"""Run one workload of the rocofscreen benchmark and print its metrics.

    python3 perfbench/run.py --workload grid5041-screen --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
The report lists every metric with its unit and sample count, then the last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``. The full result, with the
environment and every sample, goes to ``perfbench/out/``; a traced run also
writes its spans there.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before every import
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("grid5041-screen", "fleet40-bank", "case9-shed-sim")
DEFAULT_SEED = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "rocofscreen").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    caches = {name: os.sysconf(name) for name in
              ("SC_LEVEL1_DCACHE_SIZE", "SC_LEVEL2_CACHE_SIZE", "SC_LEVEL3_CACHE_SIZE")
              if name in os.sysconf_names}
    return {"git_sha": sha, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "cache_bytes": caches}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rocofscreen" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'rocofscreen'}; run from the root "
              "of a rocofscreen checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import rocofscreen
    import calib
    import spans
    import workloads

    if not Path(rocofscreen.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported rocofscreen from {rocofscreen.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        # on before set-up, so that the first call of each kind is recorded
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.enabled = True
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        tmp = Path(tmp)
        cal = calib.Calibration()
        setup = workloads.setups(wl, args.seed, tmp, cal, import_s)
        st = setup.state
        if tracer:
            tracer.enabled = False
            samples, passes, overhead = workloads.measure_traced(
                wl, st, args.seconds, tmp, cal, tracer)
        else:
            samples = workloads.measure(wl, st, args.seconds, tmp, cal)
        attempted, failed, facts = workloads.check(wl, st, samples, tracer)

    e2e = workloads.end_to_end(wl, samples, setup.ref_s)
    if tracer:
        layers = spans.layer_metrics(tracer, passes, facts)
        layers["bench.trace_overhead_share"] = (overhead, "share")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}

    extra = workloads.reported(wl, samples, setup, cal, attempted, failed)
    print(f"{wl.name}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}")
    for name, (v, unit, n) in extra.items():
        gate = "gated" if name in e2e else ""
        shown = "not run by this workload" if v is None else f"{v:14.6g} {unit:<6} n={n:<6} {gate}"
        print(f"  {name:<16} {shown}")
    if tracer:
        for name, (v, unit) in layers.items():
            print(f"  {name:<38} {v:14.6g} {unit}")
    print(f"  attempted {attempted}  failed {failed}")

    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {**result, "workload": wl.name, "seed": args.seed,
              "seconds": args.seconds, "environment": environment(),
              "report": {k: {"value": v, "unit": u, "n": n, "gated": k in e2e}
                         for k, (v, u, n) in extra.items() if v is not None},
              "samples": {"setup_wall_s": setup.wall_s, "setup_ref_s": setup.ref_s,
                          **{f"{p}_{kind}_s": getattr(samples, p).times(kind == "ref")
                             for p in ("map", "screen", "main") for kind in ("wall", "ref")},
                          "calib_kernel_s": cal.ticks}}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        (OUT_DIR / f"{stem}-spans.json").write_text(
            json.dumps([asdict(s) for s in tracer.spans]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
