"""Self-test of the benchmark itself; run from the root of a checkout.

    python3 perfbench/selftest.py

Checks that
* the benchmark's network builders reproduce the test suite's
  ``make_grid_case(71, 7)`` and ``make_fleet_case(1)`` exactly, so the
  default seed (and every other) measures the networks that ROADMAP's
  baselines and acceptance criterion 5 describe;
* the seeded draws repeat for a seed and differ between seeds;
* the independent screen in ``oracle.py`` reproduces the committed
  references within the check tolerance;
* ``run.py`` prints exactly the metrics ``BENCHMARK.json`` lists, and
  refuses to run, printing no result, without the library source.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "tests")]

import conftest  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

from rocofscreen import rocof  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    grid = inputs.grid_case()
    fleet = inputs.fleet_case()
    expect(grid == conftest.make_grid_case(71, 7), "grid_case() == make_grid_case(71, 7)")
    expect(fleet == conftest.make_fleet_case(1), "fleet_case() == make_fleet_case(1)")

    a, b, c = (inputs.grid_contingencies(grid, s) for s in (7, 7, 8))
    expect(a == b and a != c, "grid contingencies repeat per seed, differ across seeds")
    sizes = {len(x.outaged_generator_ids) for x in a}
    expect(len(a) >= 100 and sizes == {1, 2, 3, 4}, "at least 100 grid contingencies of 1-4 units")

    for wl in workloads.WORKLOADS.values():
        st = wl.prepare(7)
        ref = oracle.load_ref(wl.ref)
        model, states, _ = workloads.first_map(st.case, st.map_ctg)
        expect(sorted(st.map_ctg.outaged_generator_ids) == ref["map_contingency"],
               f"{wl.name}: map contingency matches the reference")
        got = oracle.screen(model, states, st.map_ctg.outaged_generator_ids)[0]
        expect(oracle.same(got, ref["map_rocof"]), f"{wl.name}: independent screen reproduces the map")
        if "anchors" in ref:
            ok = all(oracle.same(oracle.screen(*oracle.loading_case_model(st.extra["fleet"], lc),
                                               wl.anchor)[0], ref["anchors"][lc.id])
                     for lc in st.extra["lcs"])
            expect(ok, f"{wl.name}: independent screen reproduces every loading-case anchor")
        lib = [rocof.locational_rocof(model, states, x).bus_rocof_hz_s for x in st.ctgs[:20]]
        ind = [oracle.screen(model, states, x.outaged_generator_ids)[0] for x in st.ctgs[:20]]
        expect(all(map(oracle.same, lib, ind)), f"{wl.name}: library and independent screens agree")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = run_bench(ROOT, "case9-shed-sim", trace)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        listed = {m["name"]: m["unit"] for m in bench[key]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(out.returncode == 0 and result["correct"] and printed == listed,
               f"--trace {trace} prints exactly the {key} metrics of BENCHMARK.json")

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = run_bench(bare, "case9-shed-sim", 0)
        expect(out.returncode != 0 and not out.stdout.strip(),
               "without the library source: non-zero exit and no result")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
