"""Print a SHA-256 digest of each bank table that counts as the screen's
output, and of the grid's warm single screens.

The tables are the fleet banks of the benchmark's fleet40-bank workload
(perfbench/workloads.py, FleetBank.prepare) at seeds 1-3, and the 9-bus
bank whose rows take every status (test_scenarios.case9_bank_with_failures),
each run by run_bank in locational mode. Behaviour counts as unchanged when
these tables keep their bytes, so a change to the screen compares these
lines before and after. The next line digests the outputs of the
grid5041-screen workload's seed-1 contingencies (GridScreen.prepare), each
screened singly on one model after a first, cold pass over them all: the
warm screens add stored rows with BLAS, so a run with OPENBLAS_NUM_THREADS=1
must print the same line as one with the default threads. The last line
digests the generated banks themselves: the bytes that write_contingencies
and write_loading_cases write for the fleet banks of seeds 1-3, so a change
to bank generation, or a Python whose sum() rounds otherwise, shows too.
It reports and checks nothing, and imports the benchmark's modules without
writing to its directory. Run from the repository root:

    PYTHONPATH=src:tests python tests/bank_digest.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402 - from the benchmark's directory, added above

from rocofscreen import build_model, load_case9, locational_rocof, run_bank  # noqa: E402
from rocofscreen.case_io import write_contingencies, write_loading_cases  # noqa: E402

from test_scenarios import case9_bank_with_failures  # noqa: E402


def table_digest(case, loading, contingencies, tmp: Path) -> str:
    path = tmp / "bank.csv"
    run_bank(case, loading, contingencies, mode="locational", out_path=path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def bank_files_digest(states, tmp: Path) -> str:
    digest = hashlib.sha256()
    for st in states:
        write_contingencies(st.ctgs, tmp / "contingencies.csv")
        write_loading_cases(st.extra["lcs"], tmp / "loading_cases.json")
        for name in ("contingencies.csv", "loading_cases.json"):
            digest.update((tmp / name).read_bytes())
    return digest.hexdigest()


def warm_screens_digest() -> str:
    st = workloads.GridScreen().prepare(1)
    _, model, states = build_model(st.case)
    for ctg in st.ctgs:
        locational_rocof(model, states, ctg)
    digest = hashlib.sha256()
    for ctg in st.ctgs:
        res = locational_rocof(model, states, ctg)
        for values in (res.mw_lost, res.system_rocof_hz_s, res.bus_rocof_hz_s,
                       res.machine_accel, res.post_disturbance_voltages):
            digest.update(np.asarray(values).tobytes())
    return digest.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        fleet_states = []
        for seed in (1, 2, 3):
            st = workloads.FleetBank().prepare(seed)
            fleet_states.append(st)
            digest = table_digest(st.extra["fleet"], st.extra["lcs"], st.ctgs, Path(tmp))
            print(f"fleet40-bank seed {seed}  {digest}")
        case9 = load_case9()
        digest = table_digest(case9, *case9_bank_with_failures(case9), Path(tmp))
        print(f"case9 failure bank  {digest}")
        print(f"grid5041-screen seed 1 warm single screens  {warm_screens_digest()}")
        print(f"fleet40-bank seeds 1-3 generated bank files  "
              f"{bank_files_digest(fleet_states, Path(tmp))}")


if __name__ == "__main__":
    main()
