"""Command-line surface for batch screening studies.

Exit codes: 0 success, 1 data or validation error, 2 numerical failure.
Every stochastic subcommand requires --seed and prints the seed it used, so
any output is reproducible from (inputs, flags, seed). Log level comes from
the ROCOF_SCREEN_LOG environment variable (default WARNING).
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import case_io
from .case_model import (CaseValidationError, InputError, UnknownIdError,
                         validate_case)
from .netdyn import ModelBuildError, augment_dynamic, init_machines
from .powerflow import PowerFlowError, solve_powerflow
from .rocof import (Contingency, SingularOutageError, ZeroInertiaError,
                    locational_rocof, system_rocof)
from .scenarios import (MODES, InfeasibleDispatch, generate_contingencies,
                        generate_loading_cases, run_bank)
from .swingsim import EVENT_TIME_S, SimOptions, SimulationBlowup, simulate
from .synthdyn import assign_plant_correlated, assign_ufls, validate_synthesis

log = logging.getLogger(__name__)

# only the library's own classes: a KeyError or ValueError raised by a bug
# is not a data error and must not be reported as one
DATA_ERRORS = (CaseValidationError, case_io.CaseParseError, InfeasibleDispatch,
               InputError, ModelBuildError, UnknownIdError, FileNotFoundError)
NUMERICAL_ERRORS = (PowerFlowError, SimulationBlowup, SingularOutageError,
                    ZeroInertiaError)


def _add_case_args(p):
    p.add_argument("--case", required=True, help="case document (JSON)")
    p.add_argument("--sidecar", default=None,
                   help="dynamics sidecar CSV (default: <case>.dyn.csv if present)")


def _load_case(args):
    return case_io.read_case(args.case, sidecar=args.sidecar)


def _outage_list(raw: str) -> list[str]:
    return [x.strip() for x in raw.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rocofscreen",
        description="Inertia adequacy screening: per-bus theoretical ROCOF, "
                    "swing-equation validation, synthetic dynamics, and "
                    "scenario banks.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check case integrity")
    _add_case_args(p)

    p = sub.add_parser("powerflow", help="solve the AC power flow")
    _add_case_args(p)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="mismatch tolerance, pu (default 1e-8)")
    p.add_argument("--max-iter", type=int, default=20,
                   help="Newton iteration limit (default 20)")
    p.add_argument("--out", default=None, help="write bus voltages CSV here")

    p = sub.add_parser("rocof-system",
                       help="system-wide ROCOF for a generation loss")
    _add_case_args(p)
    p.add_argument("--outage", default=None,
                   help="comma-separated generator ids to trip "
                        "(loss defaults to their dispatch)")
    p.add_argument("--loss-mw", type=float, default=None,
                   help="generation loss in MW (overrides the outage dispatch)")

    p = sub.add_parser("rocof-local", help="per-bus theoretical ROCOF")
    _add_case_args(p)
    p.add_argument("--outage", required=True,
                   help="comma-separated generator ids to trip")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", choices=("csv", "geojson"), default="csv",
                   help="output format (default csv)")

    p = sub.add_parser("simulate", help="classical swing simulation")
    _add_case_args(p)
    p.add_argument("--outage", default="",
                   help=f"comma-separated generator ids to trip at t = {EVENT_TIME_S:g} s")
    p.add_argument("--t-end", type=float, default=10.0,
                   help="horizon, seconds (default 10)")
    p.add_argument("--dt", type=float, default=1.0 / 240.0,
                   help="integration step, seconds (default 1/240)")
    p.add_argument("--damping", type=float, default=0.0,
                   help="machine damping D, pu torque per pu speed (default 0)")
    p.add_argument("--out", required=True,
                   help="time-series CSV (events go to <out>.events.csv)")

    p = sub.add_parser("synth",
                       help="synthesize inertia and UFLS parameters")
    _add_case_args(p)
    p.add_argument("--seed", type=int, required=True, help="rng seed")
    p.add_argument("--out", required=True, help="sidecar CSV to write")

    p = sub.add_parser("scenarios-gen",
                       help="generate contingency and loading banks")
    _add_case_args(p)
    p.add_argument("--seed", type=int, required=True, help="rng seed")
    p.add_argument("--n-contingencies", type=int, default=163,
                   help="contingency count (default 163)")
    p.add_argument("--n-loading", type=int, default=125,
                   help="loading case count (default 125)")
    p.add_argument("--load-range", default="15000:75000",
                   help="demand sweep, MW, as lo:hi (default 15000:75000)")
    p.add_argument("--wind-range", default="10000:30000",
                   help="wind sweep, MW, as lo:hi (default 10000:30000)")
    p.add_argument("--out", required=True,
                   help="output directory for the bank files")

    p = sub.add_parser("scenarios-run", help="evaluate a scenario bank")
    _add_case_args(p)
    p.add_argument("--bank", required=True,
                   help="directory holding contingencies.csv and "
                        "loading_cases.json")
    p.add_argument("--mode", choices=MODES, default="locational",
                   help="evaluation mode")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; loading cases are "
                        "evaluated serially and the output is the same for "
                        "any value")
    p.add_argument("--out", required=True, help="scenario table CSV")

    p = sub.add_parser("report",
                       help="aggregate a scenario table into summary CSVs")
    p.add_argument("--results", required=True, help="scenario table CSV")
    p.add_argument("--out", required=True, help="output directory")

    return ap


def cmd_validate(args) -> int:
    try:
        case = _load_case(args)
    except CaseValidationError as exc:
        for v in exc.violations:
            print(v)
        print(f"{len(exc.violations)} violation(s)")
        return 1
    violations = validate_case(case)
    print(f"{case.name}: {len(case.buses)} buses, {len(case.generators)} "
          f"generators, {len(case.loads)} loads, {len(case.branches)} branches")
    print("ok" if not violations else f"{len(violations)} violation(s)")
    return 0 if not violations else 1


def cmd_powerflow(args) -> int:
    case = _load_case(args)
    sol = solve_powerflow(case, tol=args.tol, max_iter=args.max_iter)
    print(f"converged in {sol.iterations} iterations, "
          f"max mismatch {sol.max_mismatch_pu:.3e} pu")
    if args.out:
        case_io.write_powerflow_csv(sol, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_rocof_system(args) -> int:
    case = _load_case(args)
    outage = _outage_list(args.outage) if args.outage else []
    if args.loss_mw is None and not outage:
        raise InputError("give --outage and/or --loss-mw")
    loss = args.loss_mw
    if loss is None:
        loss = sum(case.generator(g).p_mw for g in outage)
    value = system_rocof(case, loss, outaged_ids=outage)
    print(f"{value:.4f} Hz/s  (loss {loss:.1f} MW)")
    return 0


def cmd_rocof_local(args) -> int:
    case = _load_case(args)
    sol = solve_powerflow(case)
    model = augment_dynamic(sol.ybus, case, sol)
    states = init_machines(model, case, sol)
    ctg = Contingency.of("cli", _outage_list(args.outage))
    res = locational_rocof(model, states, ctg)
    case_io.write_results(res, args.out, format=args.format, case=case)
    finite = res.bus_rocof_hz_s[~np.isnan(res.bus_rocof_hz_s)]
    print(f"system {res.system_rocof_hz_s:.4f} Hz/s; bus range "
          f"[{finite.min():.4f}, {finite.max():.4f}] Hz/s over "
          f"{finite.size} buses; wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    case = _load_case(args)
    sol = solve_powerflow(case)
    model = augment_dynamic(sol.ybus, case, sol)
    states = init_machines(model, case, sol)
    ctg = Contingency.of("cli", _outage_list(args.outage))
    opts = SimOptions(t_end=args.t_end, dt=args.dt, damping_d=args.damping)
    t0 = time.perf_counter()
    sim = simulate(model, states, ctg, opts)
    elapsed = time.perf_counter() - t0
    case_io.write_results(sim, args.out)
    events_path = str(args.out) + ".events.csv"
    case_io.write_events(sim.events, events_path)
    nadir = float(np.nanmin(sim.bus_freq_hz))
    print(f"simulated {args.t_end:.2f} s in {elapsed:.2f} s; frequency nadir "
          f"{nadir:.3f} Hz; {len(sim.events)} trip event(s); wrote {args.out}")
    return 0


def cmd_synth(args) -> int:
    case = _load_case(args)
    print(f"seed: {args.seed}")
    rng = np.random.default_rng(args.seed)
    case = assign_plant_correlated(case, rng)
    case = assign_ufls(case, rng)
    case_io.write_sidecar(case, args.out)
    report = validate_synthesis(case)
    print(report)
    print(f"wrote {args.out}")
    return 0


def _parse_range(raw: str) -> tuple[float, float]:
    lo, _, hi = raw.partition(":")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise InputError(f"range {raw!r} is not lo:hi in MW") from None


def cmd_scenarios_gen(args) -> int:
    case = _load_case(args)
    print(f"seed: {args.seed}")
    rng = np.random.default_rng(args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    contingencies = generate_contingencies(case, args.n_contingencies, rng)
    loading = generate_loading_cases(case, args.n_loading,
                                     _parse_range(args.load_range),
                                     _parse_range(args.wind_range))
    case_io.write_contingencies(contingencies, outdir / "contingencies.csv")
    case_io.write_loading_cases(loading, outdir / "loading_cases.json")
    print(f"wrote {len(contingencies)} contingencies and {len(loading)} "
          f"loading cases to {outdir}")
    return 0


def cmd_scenarios_run(args) -> int:
    case = _load_case(args)
    bank = Path(args.bank)
    contingencies = case_io.read_contingencies(bank / "contingencies.csv")
    loading = case_io.read_loading_cases(bank / "loading_cases.json")
    t0 = time.perf_counter()
    records = run_bank(case, loading, contingencies, mode=args.mode,
                       out_path=args.out, workers=args.workers)
    elapsed = time.perf_counter() - t0
    n_err = sum(1 for r in records if r.status not in ("ok", "no_online_units"))
    print(f"{len(records)} scenarios in {elapsed:.1f} s "
          f"({args.mode} mode); "
          f"{n_err} recorded failure(s); wrote {args.out}")
    return 0


def cmd_report(args) -> int:
    records = case_io.read_scenario_table(args.results)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    # loss-vs-ROCOF scatter summary (system screen)
    by_loss = outdir / "summary_by_loss.csv"
    with open(by_loss, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mw_lost_bin_lo", "mw_lost_bin_hi", "n", "system_rocof_mean",
                    "system_rocof_min", "worst_bus_rocof_min"])
        vals = [r for r in records if not math.isnan(r.mw_lost) and r.mw_lost > 0]
        if vals:
            hi = max(r.mw_lost for r in vals)
            edges = np.linspace(0, hi, 12)
            for lo, up in zip(edges[:-1], edges[1:]):
                sel = [r for r in vals if lo < r.mw_lost <= up]
                if not sel:
                    continue
                sysr = [r.system_rocof_hz_s for r in sel]
                busmin = [r.bus_rocof_min for r in sel
                          if not math.isnan(r.bus_rocof_min)]
                w.writerow([f"{lo:.1f}", f"{up:.1f}", len(sel),
                            repr(float(np.mean(sysr))), repr(float(np.min(sysr))),
                            repr(float(np.min(busmin))) if busmin else ""])

    # per loading case: inertia level and concern counts
    by_loading = outdir / "summary_by_loading.csv"
    with open(by_loading, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["loading_id", "inertia_gws", "n_scenarios", "n_concern",
                    "bus_rocof_min"])
        ids = sorted({r.loading_id for r in records})
        for lid in ids:
            sel = [r for r in records if r.loading_id == lid]
            busmin = [r.bus_rocof_min for r in sel if not math.isnan(r.bus_rocof_min)]
            w.writerow([lid, repr(sel[0].inertia_gws), len(sel),
                        sum(1 for r in sel if r.concern_flag),
                        repr(float(np.min(busmin))) if busmin else ""])

    # per contingency across loading cases (range chart input)
    by_ctg = outdir / "summary_by_contingency.csv"
    with open(by_ctg, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["contingency_id", "mw_lost_max", "n", "bus_rocof_min",
                    "bus_rocof_mean", "bus_rocof_max"])
        for cid in sorted({r.contingency_id for r in records}):
            sel = [r for r in records if r.contingency_id == cid]
            mins = [r.bus_rocof_min for r in sel if not math.isnan(r.bus_rocof_min)]
            means = [r.bus_rocof_mean for r in sel if not math.isnan(r.bus_rocof_mean)]
            maxs = [r.bus_rocof_max for r in sel if not math.isnan(r.bus_rocof_max)]
            w.writerow([cid, repr(max(r.mw_lost for r in sel)), len(sel),
                        repr(float(np.min(mins))) if mins else "",
                        repr(float(np.mean(means))) if means else "",
                        repr(float(np.max(maxs))) if maxs else ""])

    print(f"wrote {by_loss}, {by_loading}, {by_ctg}")
    return 0


COMMANDS = {
    "validate": cmd_validate,
    "powerflow": cmd_powerflow,
    "rocof-system": cmd_rocof_system,
    "rocof-local": cmd_rocof_local,
    "simulate": cmd_simulate,
    "synth": cmd_synth,
    "scenarios-gen": cmd_scenarios_gen,
    "scenarios-run": cmd_scenarios_run,
    "report": cmd_report,
}


def main(argv=None) -> int:
    level = os.environ.get("ROCOF_SCREEN_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
