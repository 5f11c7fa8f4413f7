"""Contingency/loading scenario banks and the batch screening runner.

A scenario is one (loading case, contingency) pair. Loading cases sweep
total demand and wind output over a regular grid, re-dispatching the
synchronous fleet with a merit-order heuristic (wind and nuclear at full
output, remaining demand met by committing coal then gas units at a uniform
loading factor). Contingencies are probabilistic multi-unit generation
losses, mostly single-plant events below the design size with a tail of
larger multi-site events.

The bank runner evaluates every pair in one of three modes and emits a flat
result table; per-scenario failures are recorded in their row and never
abort the bank. The locational and simulate modes solve and factorize each
loading case once, serially; locational mode then screens all of the
loading case's contingencies in one batch, two multi-right-hand-side solves
per loading case. Output ordering is by (loading id, contingency id), and
each loading case's rows reach the table file (case_io's scenario table)
as soon as that loading case completes.

For a fixed loading case the tabulated system-wide ROCOF uses that case's
total online inertia in the denominator, making it the linear-in-MW-lost
screening line the per-bus results are compared against. (The per-bus
evaluation itself excludes the outaged machines' inertia, which matters
only when the outage removes a large inertia share.)
"""

from __future__ import annotations

import logging
import math
from dataclasses import replace

import numpy as np

from .case_io import write_scenario_table
from .case_model import (GridCase, InputError, LoadingCase, ScenarioRecord,
                         total_inertia_gws)
from .netdyn import augment_dynamic, init_machines
from .powerflow import solve_powerflow
from .rocof import Contingency, locational_rocof_batch
from .swingsim import SimOptions, simulate

log = logging.getLogger(__name__)

CONCERN_ROCOF_HZ_S = -0.5
FUEL_MERIT_ORDER = {"coal": 0, "gas": 1, "other": 2}
# Fixed study parameters. Contingencies lose more than MIN_CONTINGENCY_MW;
# most are design-sized (up to DESIGN_CONTINGENCY_MW), MULTI_SITE_FRACTION
# of them combine plants into up to twice that. Simulate mode runs each
# scenario briefly without shedding and averages the finite-difference ROCOF
# over FD_WINDOW_S after the event.
MIN_CONTINGENCY_MW = 800.0
DESIGN_CONTINGENCY_MW = 2750.0
MULTI_SITE_FRACTION = 0.10
FD_WINDOW_S = 0.02
SIMULATE_MODE_OPTS = SimOptions(t_end=0.25, shedding=False)
# buses within this relative distance of a column's minimum ROCOF tie for
# worst bus (see _column_stats)
WORST_BUS_RTOL = 1e-12

MODES = ("system_only", "locational", "simulate")


class InfeasibleDispatch(ValueError):
    pass


def dispatch_heuristic(case: GridCase, target_load_mw: float,
                       target_wind_mw: float) -> GridCase:
    """Re-dispatch the case to the given demand and wind targets.

    Loads scale uniformly; wind scales to its target; nuclear runs at full
    output; machines at slack buses are must-run; the remaining demand
    commits non-nuclear synchronous units in merit order (coal, gas, other;
    largest first) at one uniform loading factor. Uncommitted units go out
    of service. The returned case is not solved: bus voltages are those of
    the input, and callers run solve_powerflow on it (the slack then
    absorbs the losses).
    """
    if sum(l.p_mw for l in case.loads) <= 0:
        raise InfeasibleDispatch("case has no load to scale")

    wind = [g for g in case.generators if not g.synchronous and g.status]
    wind_cap = sum(g.p_max_mw for g in wind)
    if target_wind_mw > wind_cap:
        raise InfeasibleDispatch(
            f"wind target {target_wind_mw:.0f} MW exceeds installed wind "
            f"capability {wind_cap:.0f} MW")
    wind_factor = target_wind_mw / wind_cap if wind_cap > 0 else 0.0

    slack_buses = {b.id for b in case.buses if b.kind == "slack"}
    sync = [g for g in case.generators if g.synchronous and g.status]
    nuclear_mw = sum(g.p_max_mw for g in sync if g.fuel == "nuclear")
    required = target_load_mw - target_wind_mw - nuclear_mw
    if required < 0:
        raise InfeasibleDispatch(
            f"wind target {target_wind_mw:.0f} MW exceeds load "
            f"{target_load_mw:.0f} MW minus the {nuclear_mw:.0f} MW "
            "must-run nuclear floor")

    must_run = [g for g in sync if g.fuel == "nuclear" or g.bus_id in slack_buses]
    merit = sorted((g for g in sync if g not in must_run),
                   key=lambda g: (FUEL_MERIT_ORDER.get(g.fuel, 9),
                                  -g.p_max_mw, g.id))
    committed = list(must_run)
    cap = sum(g.p_max_mw for g in must_run if g.fuel != "nuclear")
    for g in merit:
        if cap >= required:
            break
        committed.append(g)
        cap += g.p_max_mw
    if cap < required:
        raise InfeasibleDispatch(
            f"insufficient synchronous capacity: need {required:.0f} MW "
            f"beyond nuclear, have {cap:.0f} MW")
    lam = required / cap if cap > 0 else 0.0

    p_mw = {g.id: g.p_max_mw * wind_factor for g in wind}
    p_mw.update((g.id, g.p_max_mw if g.fuel == "nuclear" else lam * g.p_max_mw)
                for g in committed)
    return _dispatch(case, target_load_mw, p_mw)


def _dispatch(case: GridCase, target_load_mw: float,
              p_mw: dict[str, float]) -> GridCase:
    """Scale every load to the target total, run each in-service unit listed
    in p_mw at its MW (non-synchronous units at zero MVAr) and take the
    other in-service units out of service. Bus voltages are left as given."""
    factor = target_load_mw / sum(l.p_mw for l in case.loads)
    new_gens = []
    for g in case.generators:
        if not g.status:
            new_gens.append(g)
        elif g.id in p_mw:
            new_gens.append(replace(g, p_mw=p_mw[g.id],
                                    q_mvar=g.q_mvar if g.synchronous else 0.0))
        else:
            new_gens.append(replace(g, status=False))
    new_loads = [replace(l, p_mw=l.p_mw * factor, q_mvar=l.q_mvar * factor)
                 for l in case.loads]
    return replace(case, generators=tuple(new_gens), loads=tuple(new_loads))


def loading_case_from(dispatched: GridCase, lc_id: str, target_load_mw: float,
                      target_wind_mw: float) -> LoadingCase:
    disp = {g.id: g.p_mw for g in dispatched.generators if g.status}
    committed = frozenset(disp)
    inertia = total_inertia_gws(dispatched)
    sync_mw = sum(g.p_mw for g in dispatched.generators
                  if g.status and g.synchronous)
    total = sync_mw + target_wind_mw
    return LoadingCase(lc_id, target_load_mw, target_wind_mw, disp, committed,
                       inertia, target_wind_mw / total if total > 0 else 0.0)


def generate_loading_cases(case: GridCase, n: int,
                           load_range_mw: tuple[float, float],
                           wind_range_mw: tuple[float, float]) -> list[LoadingCase]:
    """Regular grid of n loading cases over the demand and wind ranges.

    Demand levels form the outer axis; within each demand level the wind
    levels span from the range minimum up to the feasible maximum (demand
    minus the nuclear must-run floor), so every generated case dispatches.
    Raises when some demand level cannot accept even the minimum wind.
    """
    if n <= 0:
        raise InputError("n must be positive")
    lo_l, hi_l = load_range_mw
    lo_w, hi_w = wind_range_mw
    sync = [g for g in case.generators if g.synchronous and g.status]
    nuclear_mw = sum(g.p_max_mw for g in sync if g.fuel == "nuclear")
    wind_cap = sum(g.p_max_mw for g in case.generators
                   if not g.synchronous and g.status)

    n_load = max(int(round(math.sqrt(n))), 1)
    n_wind = math.ceil(n / n_load)
    load_levels = np.linspace(lo_l, hi_l, n_load) if n_load > 1 else [lo_l]
    out: list[LoadingCase] = []
    for load_mw in load_levels:
        w_max = min(hi_w, wind_cap, load_mw - nuclear_mw)
        if w_max < lo_w:
            raise InfeasibleDispatch(
                f"wind target {lo_w:.0f} MW exceeds what a {load_mw:.0f} MW "
                f"demand level can absorb ({w_max:.0f} MW after the nuclear "
                "floor)")
        if w_max < hi_w:
            log.info("demand level %.0f MW caps wind at %.0f MW "
                     "(requested up to %.0f)", load_mw, w_max, hi_w)
        wind_levels = np.linspace(lo_w, w_max, n_wind) if n_wind > 1 else [lo_w]
        for wind_mw in wind_levels:
            if len(out) >= n:
                break
            lc_id = f"lc{len(out):03d}"
            dispatched = dispatch_heuristic(case, float(load_mw), float(wind_mw))
            out.append(loading_case_from(dispatched, lc_id, float(load_mw),
                                         float(wind_mw)))
    return out


def apply_loading_case(case: GridCase, lc: LoadingCase) -> GridCase:
    """Reconstruct the dispatched case recorded in a LoadingCase. It is not
    solved; callers run solve_powerflow on it."""
    return _dispatch(case, lc.target_load_mw, lc.dispatch)


def generate_contingencies(case: GridCase, n: int,
                           rng: np.random.Generator) -> list[Contingency]:
    """n distinct generation-loss contingencies, each above
    MIN_CONTINGENCY_MW.

    About (1 - MULTI_SITE_FRACTION) of them are design-sized events drawn
    log-uniformly between MIN_CONTINGENCY_MW and DESIGN_CONTINGENCY_MW,
    preferring multi-unit outages at a single plant (a second plant joins
    only when a fleet is too small to keep the bank distinct); the rest
    combine whole plants from several sites into losses of up to twice the
    design size. Plants are picked with probability proportional to
    dispatched MW.
    """
    units = [g for g in case.generators if g.synchronous and g.status and g.p_mw > 0]
    plants: dict[int, list] = {}
    for g in units:
        plants.setdefault(g.bus_id, []).append(g)
    for members in plants.values():
        members.sort(key=lambda g: (-g.p_mw, g.id))
    plant_ids = sorted(plants)
    plant_mw = np.array([sum(g.p_mw for g in plants[b]) for b in plant_ids])
    if not plant_ids or plant_mw.sum() <= MIN_CONTINGENCY_MW:
        raise InputError(
            f"case dispatch ({plant_mw.sum():.0f} MW) is too small to build "
            f"outages above {MIN_CONTINGENCY_MW:.0f} MW")
    weights = plant_mw / plant_mw.sum()

    n_multi = int(round(n * MULTI_SITE_FRACTION))
    seen: set[frozenset[str]] = set()
    out: list[Contingency] = []
    attempts = 0
    stale = 0            # consecutive attempts that added nothing
    max_attempts = 200 * n
    while len(out) < n:
        attempts += 1
        if attempts > max_attempts:
            raise InputError(
                f"could not assemble {n} distinct contingencies above "
                f"{MIN_CONTINGENCY_MW:.0f} MW from this case "
                f"(found {len(out)})")
        if len(out) < n_multi:
            target = rng.uniform(DESIGN_CONTINGENCY_MW, 2.0 * DESIGN_CONTINGENCY_MW)
            chosen: list = []
            total = 0.0
            order = rng.choice(len(plant_ids), size=len(plant_ids),
                               replace=False, p=weights)
            for pi in order:
                chosen.extend(plants[plant_ids[pi]])
                total += plant_mw[pi]
                if total >= target:
                    break
            if total <= MIN_CONTINGENCY_MW:
                continue
        else:
            target = math.exp(rng.uniform(math.log(MIN_CONTINGENCY_MW),
                                          math.log(DESIGN_CONTINGENCY_MW)))
            # widen to a second site only once single-plant draws go stale
            second_site = stale > 25 and rng.random() < 0.7
            eligible = np.flatnonzero(
                plant_mw > (0.0 if second_site else MIN_CONTINGENCY_MW))
            if eligible.size == 0:
                n_multi = n  # no single plant is large enough
                continue
            w = plant_mw[eligible] / plant_mw[eligible].sum()
            picks = [int(eligible[rng.choice(eligible.size, p=w)])]
            if second_site and len(plant_ids) > 1:
                picks.append(int(rng.choice(len(plant_ids), p=weights)))
            members = [g for pi in dict.fromkeys(picks)
                       for g in plants[plant_ids[pi]]]
            chosen = []
            total = 0.0
            for ui in rng.permutation(len(members)):
                g = members[int(ui)]
                if total > MIN_CONTINGENCY_MW and (
                        total >= target or total + g.p_mw > DESIGN_CONTINGENCY_MW):
                    break
                chosen.append(g)
                total += g.p_mw
            if not (MIN_CONTINGENCY_MW < total <= DESIGN_CONTINGENCY_MW):
                stale += 1
                continue
        key = frozenset(g.id for g in chosen)
        if key in seen:
            stale += 1
            continue
        seen.add(key)
        stale = 0
        out.append(Contingency(f"ctg{len(out):03d}", key, float(total)))
    return out


def _column_stats(rocof: np.ndarray, bus_ids) -> list[tuple]:
    """(min, mean, max, worst bus) of each row of a contingency x bus ROCOF
    block, skipping NaN buses. The worst bus is the lowest bus id among the
    buses within WORST_BUS_RTOL * max(1, |min|) Hz/s of the row minimum, so
    buses that tie within rounding give the same worst bus in any bus order.
    A row without a number gives NaNs and no worst bus."""
    nan = np.isnan(rocof)
    count = rocof.shape[1] - np.count_nonzero(nan, axis=1)
    total = np.where(nan, 0.0, rocof).sum(axis=1)
    mean = np.divide(total, count, out=np.full(len(count), np.nan),
                     where=count > 0)
    low, high = np.fmin.reduce(rocof, axis=1), np.fmax.reduce(rocof, axis=1)
    tied = rocof <= (low + WORST_BUS_RTOL * np.fmax(1.0, np.abs(low)))[:, None]
    ids = np.asarray(bus_ids, dtype=np.int64)
    worst = np.where(tied, ids, np.iinfo(np.int64).max).min(axis=1)
    return [(float(lo), float(mu), float(hi), int(w) if c else None)
            for lo, mu, hi, w, c in zip(low, mean, high, worst, count)]


def _eval_loading_case(case: GridCase, lc: LoadingCase,
                       contingencies: list[Contingency],
                       mode: str) -> list[ScenarioRecord]:
    """One record per contingency, in id order, each filled in place."""
    model = states = None
    setup_error: str | None = None
    if mode != "system_only":
        try:
            dispatched = apply_loading_case(case, lc)
            sol = solve_powerflow(dispatched)
            model = augment_dynamic(sol.ybus, dispatched, sol)
            states = init_machines(model, dispatched, sol)
        except Exception as exc:  # noqa: BLE001 - recorded per row
            setup_error = f"loading case failed: {exc}"

    rows: list[ScenarioRecord] = []
    screened: list[tuple[ScenarioRecord, Contingency]] = []  # online units
    for ctg in sorted(contingencies, key=lambda c: c.id):
        online = frozenset(g for g in ctg.outaged_generator_ids
                           if g in lc.committed)
        # sorted: the float sum must not depend on set iteration order
        mw_disp = sum((lc.dispatch.get(g, 0.0) for g in sorted(online)), 0.0)
        rec = ScenarioRecord(lc.id, ctg.id, mw_disp, lc.online_inertia_gws, 0.0)
        rows.append(rec)
        if not online:
            rec.status = "no_online_units"
        elif setup_error is not None:
            rec.status = setup_error
        elif mode != "system_only":
            screened.append((rec, Contingency(ctg.id, online)))

    if screened:
        subs = [sub for _, sub in screened]
        rocof = np.full((len(subs), model.n_bus), np.nan)   # contingency x bus
        errors: list[Exception | None] = [None] * len(subs)
        mw_lost = [rec.mw_lost for rec, _ in screened]
        islands: list[list] = [[] for _ in subs]
        if mode == "locational":
            try:
                batch = locational_rocof_batch(model, states, subs)
                rocof, errors = batch.bus_rocof_hz_s.T, batch.errors
                mw_lost, islands = batch.mw_lost.tolist(), batch.undefined_islands
            except Exception as exc:  # noqa: BLE001 - fault isolation
                errors = [exc] * len(subs)
        else:  # simulate
            for j, sub in enumerate(subs):
                try:
                    rocof[j] = finite_difference_rocof(
                        simulate(model, states.copy(), sub, SIMULATE_MODE_OPTS))
                except Exception as exc:  # noqa: BLE001 - fault isolation
                    errors[j] = exc
        stats = _column_stats(rocof, model.bus_ids)
        for (rec, _), error, mw, isl, stat in zip(screened, errors, mw_lost,
                                                  islands, stats):
            if error is not None:
                rec.status = f"error: {error}"
                continue
            rec.mw_lost = mw
            (rec.bus_rocof_min, rec.bus_rocof_mean, rec.bus_rocof_max,
             rec.worst_bus) = stat
            if isl:
                rec.status = f"{len(isl)} undefined island(s)"

    # the loading case's inertia line at each row's final MW lost
    inertia_mws = lc.online_inertia_gws * 1000.0
    for rec in rows:
        if rec.mw_lost > 0:
            rec.system_rocof_hz_s = (
                -case.f_base_hz * rec.mw_lost / (2.0 * inertia_mws)
                if inertia_mws > 0 else math.nan)
        rec.concern_flag = rec.system_rocof_hz_s < CONCERN_ROCOF_HZ_S
    return rows


def finite_difference_rocof(sim) -> np.ndarray:
    """Average per-bus ROCOF over the first FD_WINDOW_S after the event,
    from a central second difference of the raw (unfiltered) voltage
    angles."""
    if len(sim.time_s) < 3:
        raise ValueError("simulation horizon too short for the FD window")
    dt = float(sim.time_s[1] - sim.time_s[0])
    k1 = int(round(sim.t_event / dt))
    m = max(int(round(FD_WINDOW_S / (2 * dt))), 1)
    if k1 + 2 * m >= len(sim.time_s):
        raise ValueError("simulation horizon too short for the FD window")
    th = sim.bus_angle_rad
    return (th[k1 + 2 * m] - 2.0 * th[k1 + m] + th[k1]) / ((m * dt) ** 2 * 2 * np.pi)


def run_bank(case: GridCase, loading_cases: list[LoadingCase],
             contingencies: list[Contingency], mode: str = "locational",
             out_path=None, workers: int = 1) -> list[ScenarioRecord]:
    """Evaluate every (loading case, contingency) pair.

    mode: "system_only" (inertia arithmetic only), "locational" (two
    multi-right-hand-side sparse solves per loading case, for all of its
    contingencies, after per-loading-case initialization), or "simulate"
    (a SIMULATE_MODE_OPTS time-domain run per scenario; slow, small cases
    only). Any other mode raises InputError.

    mw_lost is the lost machines' solved output on the rows a locational
    screen produced, and the dispatched MW of the online outaged units on
    every other row (see docs/case_schema.md).

    Loading cases are evaluated one after another, and rows stream to
    out_path through case_io.write_scenario_table in sorted (loading_id,
    contingency_id) order as each loading case completes. workers has no
    effect on evaluation and is kept for callers that pass it; the output
    is the same for any value.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}; expected one of "
                         f"{', '.join(MODES)}")
    records: list[ScenarioRecord] = []

    def rows():
        for lc in sorted(loading_cases, key=lambda lc: lc.id):
            batch = _eval_loading_case(case, lc, contingencies, mode)
            records.extend(batch)
            yield from batch

    if out_path is None:
        return list(rows())
    write_scenario_table(rows(), out_path)
    return records
