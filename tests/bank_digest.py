"""Print a SHA-256 digest of each bank table that counts as the screen's output.

The tables are the fleet banks of the benchmark's fleet40-bank workload
(perfbench/workloads.py, FleetBank.prepare) at seeds 1-3, and the 9-bus
bank whose rows take every status (test_scenarios.case9_bank_with_failures),
each run by run_bank in locational mode. Behaviour counts as unchanged when
these tables keep their bytes, so a change to the screen compares these
lines before and after. It reports and checks nothing, and imports the
benchmark's modules without writing to its directory. Run from the
repository root:

    PYTHONPATH=src:tests python tests/bank_digest.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402 - from the benchmark's directory, added above

from rocofscreen import load_case9, run_bank  # noqa: E402

from test_scenarios import case9_bank_with_failures  # noqa: E402


def table_digest(case, loading, contingencies, tmp: Path) -> str:
    path = tmp / "bank.csv"
    run_bank(case, loading, contingencies, mode="locational", out_path=path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (1, 2, 3):
            st = workloads.FleetBank().prepare(seed)
            digest = table_digest(st.extra["fleet"], st.extra["lcs"], st.ctgs, Path(tmp))
            print(f"fleet40-bank seed {seed}  {digest}")
        case9 = load_case9()
        digest = table_digest(case9, *case9_bank_with_failures(case9), Path(tmp))
        print(f"case9 failure bank  {digest}")


if __name__ == "__main__":
    main()
