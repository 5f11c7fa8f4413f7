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
abort the bank. It builds once per bank what does not depend on the
loading case: the contingencies in id order, their contingency x unit
incidence, the case's unit, load and bus fields as arrays
(case_model.GridCase.arrays), and in the locational and simulate modes the
branch network (Y-bus and island labels, since a loading case changes
only generators and loads) with a store of the power flow's Jacobian
patterns. Each loading case then works on arrays, as MATPOWER keeps a
case: it writes the units' status, MW and MVAr and the loads' scale into
a copy of the bank's arrays (_dispatch_arrays, apply_loading_case to the
same bits), sums its inertia line on them and builds its model once,
serially, from them and the shared network (netdyn.build_model, whose
stages take a case's arrays as they take the case); no record is copied
or read.
Its online units and dispatched MW come off the incidence, locational
mode hands the batch screen core (rocof._screen_lost, two
multi-right-hand-side solves per loading case) the (contingency, unit)
pairs of the online outaged units in one batch, even of one row, and its
rows are filled a column at a time and handed, as columns, to the
scenario table's formatter (case_io). Output ordering is by (loading id,
contingency id), and each loading case's rows reach the table file as
soon as that loading case completes.

For a fixed loading case the tabulated system-wide ROCOF uses that case's
total online inertia in the denominator, making it the linear-in-MW-lost
screening line the per-bus results are compared against, summed over the
units named in the loading case's dispatch. (The per-bus evaluation
itself excludes the outaged machines' inertia, which matters only when
the outage removes a large inertia share.)
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .case_io import _write_scenario_runs
from .case_model import (CaseArrays, GridCase, InputError, LoadingCase,
                         ScenarioRecord, island_labels, total_inertia_gws)
from .netdyn import build_model, build_ybus
from .rocof import Contingency, _screen_lost
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
# the sampler gives up once this many attempts in a row add no contingency;
# the longest such run in a draw that succeeds was 235 (fleet and grid draws)
MAX_IDLE_ATTEMPTS = 2000
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
    the input, and callers solve it, with solve_powerflow or
    netdyn.build_model (the slack then absorbs the losses).
    """
    return _dispatch(case, target_load_mw,
                     _merit_dispatch(case)(target_load_mw, target_wind_mw))


def _merit_dispatch(case: GridCase):
    """dispatch_heuristic's checks and merit order, as a function of the
    demand and wind targets that returns the MW of each unit it runs, wind
    first, then the must-run units and the committed merit units in
    commitment order. What does not depend on the targets is read from the
    case once, here, for all of a generated bank's loading cases. Its
    float sums are plain running sums in record order (_running_sum)."""
    load_mw = _running_sum(l.p_mw for l in case.loads)
    wind = [g for g in case.generators if not g.synchronous and g.status]
    wind_cap = _running_sum(g.p_max_mw for g in wind)
    slack_buses = {b.id for b in case.buses if b.kind == "slack"}
    sync = [g for g in case.generators if g.synchronous and g.status]
    nuclear_mw = _running_sum(g.p_max_mw for g in sync if g.fuel == "nuclear")
    # a unit equal to a must-run unit is must-run itself, so the flags are
    # the membership test, without comparing records
    must = [g.fuel == "nuclear" or g.bus_id in slack_buses for g in sync]
    must_run = [g for g, m in zip(sync, must) if m]
    merit = sorted((g for g, m in zip(sync, must) if not m),
                   key=lambda g: (FUEL_MERIT_ORDER.get(g.fuel, 9),
                                  -g.p_max_mw, g.id))
    must_run_cap = _running_sum(g.p_max_mw for g in must_run if g.fuel != "nuclear")

    def dispatch(target_load_mw: float, target_wind_mw: float) -> dict[str, float]:
        if load_mw <= 0:
            raise InfeasibleDispatch("case has no load to scale")
        if target_wind_mw > wind_cap:
            raise InfeasibleDispatch(
                f"wind target {target_wind_mw:.0f} MW exceeds installed wind "
                f"capability {wind_cap:.0f} MW")
        wind_factor = target_wind_mw / wind_cap if wind_cap > 0 else 0.0
        required = target_load_mw - target_wind_mw - nuclear_mw
        if required < 0:
            raise InfeasibleDispatch(
                f"wind target {target_wind_mw:.0f} MW exceeds load "
                f"{target_load_mw:.0f} MW minus the {nuclear_mw:.0f} MW "
                "must-run nuclear floor")

        committed = list(must_run)
        cap = must_run_cap
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
        return p_mw
    return dispatch


def _running_sum(values) -> float:
    """The plain running sum of values from 0.0, in their order: what
    Python 3.11's sum() gives for floats. Later versions' sum() compensates
    and can round otherwise, which would move generated banks' bytes."""
    total = 0.0
    for v in values:
        total += v
    return total


def _dispatch(case: GridCase, target_load_mw: float,
              p_mw: dict[str, float]) -> GridCase:
    """Scale every load to the target total, run each in-service unit listed
    in p_mw at its MW (non-synchronous units at zero MVAr) and take the
    other in-service units out of service. Bus voltages are left as given."""
    factor = target_load_mw / _running_sum(l.p_mw for l in case.loads)
    new_gens = []
    for g in case.generators:
        if not g.status:
            new_gens.append(g)
        elif g.id in p_mw:
            new_gens.append(_copy_record(g, p_mw=p_mw[g.id],
                                         q_mvar=g.q_mvar if g.synchronous else 0.0))
        else:
            new_gens.append(_copy_record(g, status=False))
    new_loads = [_copy_record(l, p_mw=l.p_mw * factor, q_mvar=l.q_mvar * factor)
                 for l in case.loads]
    # replace, not a copy: a copy would carry the case's cached bus lookup
    return replace(case, generators=tuple(new_gens), loads=tuple(new_loads))


def _dispatch_arrays(arrays: CaseArrays, target_load_mw: float,
                     p_mw: dict[str, float]) -> CaseArrays:
    """_dispatch on the case's arrays, to the same bits: it writes the
    units' status, MW and MVAr and the loads' MW and MVAr, and reads or
    makes no record."""
    factor = target_load_mw / _running_sum(arrays.load_p.tolist())
    n = len(arrays.gen_ids)
    on = arrays.status & np.fromiter(map(p_mw.__contains__, arrays.gen_ids), bool, n)
    mw = np.fromiter((p_mw.get(g, 0.0) for g in arrays.gen_ids), float, n)
    return replace(arrays, status=on, p_mw=np.where(on, mw, arrays.p_mw),
                   q_mvar=np.where(on & ~arrays.synchronous, 0.0, arrays.q_mvar),
                   load_p=arrays.load_p * factor, load_q=arrays.load_q * factor)


def _copy_record(record, **changes):
    """dataclasses.replace(record, **changes) for a Generator or a Load
    (neither has a __post_init__), without the frozen __init__ whose
    per-field setattr calls cost most of a fleet dispatch."""
    new = object.__new__(type(record))
    fields = new.__dict__
    fields.update(record.__dict__)
    fields.update(changes)
    return new


def loading_case_from(dispatched: GridCase, lc_id: str, target_load_mw: float,
                      target_wind_mw: float) -> LoadingCase:
    on = [g for g in dispatched.generators if g.status]
    return _loading_case(lc_id, target_load_mw, target_wind_mw,
                         {g.id: g.p_mw for g in on},
                         total_inertia_gws(dispatched),
                         _running_sum(g.p_mw for g in on if g.synchronous))


def _loading_case(lc_id: str, target_load_mw: float, target_wind_mw: float,
                  disp: dict[str, float], inertia_gws: float,
                  sync_mw: float) -> LoadingCase:
    """The LoadingCase of a dispatch: disp, the MW of each in-service unit
    in unit order, the inertia of its synchronous units and their MW,
    summed in unit order."""
    total = sync_mw + target_wind_mw
    return LoadingCase(lc_id, target_load_mw, target_wind_mw, disp, frozenset(disp),
                       inertia_gws, target_wind_mw / total if total > 0 else 0.0)


def generate_loading_cases(case: GridCase, n: int,
                           load_range_mw: tuple[float, float],
                           wind_range_mw: tuple[float, float]) -> list[LoadingCase]:
    """Regular grid of n loading cases over the demand and wind ranges.

    Demand levels form the outer axis; within each demand level the wind
    levels span from the range minimum up to the feasible maximum (demand
    minus the nuclear must-run floor), so every generated case dispatches.
    Raises when some demand level cannot accept even the minimum wind, and
    InputError for an n below 1 or a range end that is not finite.

    Each loading case is loading_case_from of dispatch_heuristic's case,
    field for field, built from the merit order's MW without dispatching
    records: its units are case's in-service units that the merit order
    runs, in unit order, and its inertia is case.arrays.inertia_gws of them.
    """
    if n <= 0:
        raise InputError("n must be positive")
    if not np.isfinite([*load_range_mw, *wind_range_mw]).all():
        raise InputError(f"ranges must be finite: {load_range_mw} {wind_range_mw}")
    lo_l, hi_l = load_range_mw
    lo_w, hi_w = wind_range_mw
    sync = [g for g in case.generators if g.synchronous and g.status]
    nuclear_mw = _running_sum(g.p_max_mw for g in sync if g.fuel == "nuclear")
    wind_cap = _running_sum(g.p_max_mw for g in case.generators
                            if not g.synchronous and g.status)
    in_service = [g for g in case.generators if g.status]
    dispatch = _merit_dispatch(case)

    n_load = max(int(round(math.sqrt(n))), 1)
    n_wind = math.ceil(n / n_load)
    load_levels = np.linspace(lo_l, hi_l, n_load)
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
        wind_levels = np.linspace(lo_w, w_max, n_wind)
        for wind_mw in wind_levels:
            if len(out) >= n:
                break
            load, wind = float(load_mw), float(wind_mw)
            p_mw = dispatch(load, wind)
            on = [g for g in in_service if g.id in p_mw]
            disp = {g.id: p_mw[g.id] for g in on}
            out.append(_loading_case(
                f"lc{len(out):03d}", load, wind, disp, case.arrays.inertia_gws(disp),
                _running_sum(disp[g.id] for g in on if g.synchronous)))
    return out


def apply_loading_case(case: GridCase, lc: LoadingCase) -> GridCase:
    """Reconstruct the dispatched case recorded in a LoadingCase. It is not
    solved; callers build its model with netdyn.build_model. A bank does
    not call it: it re-dispatches its case's arrays (_dispatch_arrays)."""
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
    dispatched MW, each plant's MW a plain running sum over its units in
    unit order. InputError ends a draw in which MAX_IDLE_ATTEMPTS attempts
    in a row add no contingency, and rejects an n below 1 before any other
    check.

    The sequence of draws from rng is part of this contract: for a given
    case, n and generator state the bank is the same, and so is the state
    rng is left in. Each attempt draws, in this order:

    - a multi-site attempt: the target, rng.uniform(DESIGN_CONTINGENCY_MW,
      2 * DESIGN_CONTINGENCY_MW), then the plant order,
      rng.choice(plants, size=plants, replace=False, p=weights);
    - a single-site attempt: the log target, lo + (hi - lo) * rng.random(),
      which is rng.uniform(lo, hi); once draws go stale, one rng.random()
      that decides on a second site; one plant, or two for a second site,
      each a search of its CDF at one rng.random(), which is
      rng.choice(k, p=w) (_draw); then the order of their units,
      rng.shuffle of a list, which draws what rng.permutation does.

    Tests pin each of these pairs of calls to the same numbers and the same
    generator state.
    """
    if n <= 0:
        raise InputError("n must be positive")
    units = [g for g in case.generators if g.synchronous and g.status and g.p_mw > 0]
    plants: dict[int, list] = {}       # each plant's units as (id, MW), largest first
    for g in sorted(units, key=lambda g: (-g.p_mw, g.id)):
        plants.setdefault(g.bus_id, []).append((g.id, g.p_mw))
    plant_units = [plants[b] for b in sorted(plants)]
    plant_mw = np.array([_running_sum(mw for _, mw in units) for units in plant_units])
    if not plant_units or plant_mw.sum() <= MIN_CONTINGENCY_MW:
        raise InputError(
            f"case dispatch ({plant_mw.sum():.0f} MW) is too small to build "
            f"outages above {MIN_CONTINGENCY_MW:.0f} MW")
    weights = plant_mw / plant_mw.sum()
    plant_cdf = _cdf(weights)
    # a single-site draw picks among the plants above MIN_CONTINGENCY_MW; a
    # second-site draw among all plants, since each has dispatched MW
    large = [i for i, mw in enumerate(plant_mw.tolist()) if mw > MIN_CONTINGENCY_MW]
    large_cdf = _cdf(plant_mw[large] / plant_mw[large].sum()) if large else None
    log_lo = math.log(MIN_CONTINGENCY_MW)
    log_span = math.log(DESIGN_CONTINGENCY_MW) - log_lo

    n_multi = int(round(n * MULTI_SITE_FRACTION))
    seen: set[frozenset[str]] = set()
    out: list[Contingency] = []
    idle = 0             # attempts since the last contingency was added
    stale = 0            # the same, counting only stale single-site draws
    while len(out) < n:
        idle += 1
        if idle > MAX_IDLE_ATTEMPTS:
            raise InputError(
                f"could not assemble {n} distinct contingencies above "
                f"{MIN_CONTINGENCY_MW:.0f} MW from this case "
                f"(found {len(out)})")
        if len(out) < n_multi:
            target = rng.uniform(DESIGN_CONTINGENCY_MW, 2.0 * DESIGN_CONTINGENCY_MW)
            chosen: list = []
            total = 0.0
            order = rng.choice(len(plant_units), size=len(plant_units),
                               replace=False, p=weights)
            for pi in order:
                chosen.extend(uid for uid, _ in plant_units[pi])
                total += plant_mw[pi]
                if total >= target:
                    break
            if total <= MIN_CONTINGENCY_MW:
                continue
        else:
            target = math.exp(log_lo + log_span * rng.random())
            # widen to a second site only once single-plant draws go stale
            second_site = stale > 25 and rng.random() < 0.7
            if second_site:
                first = _draw(plant_cdf, rng)
                members = plant_units[first][:]
                if len(plant_units) > 1:
                    second = _draw(plant_cdf, rng)
                    if second != first:
                        members += plant_units[second]
            elif large:
                members = plant_units[large[_draw(large_cdf, rng)]][:]
            else:
                n_multi = n  # no single plant is large enough
                continue
            rng.shuffle(members)
            chosen = []
            total = 0.0
            for uid, mw in members:
                if total > MIN_CONTINGENCY_MW and (
                        total >= target or total + mw > DESIGN_CONTINGENCY_MW):
                    break
                chosen.append(uid)
                total += mw
            if not (MIN_CONTINGENCY_MW < total <= DESIGN_CONTINGENCY_MW):
                stale += 1
                continue
        key = frozenset(chosen)
        if key in seen:
            stale += 1
            continue
        seen.add(key)
        stale = idle = 0
        out.append(Contingency(f"ctg{len(out):03d}", key, float(total)))
    return out


def _cdf(p: np.ndarray) -> list[float]:
    """The CDF Generator.choice searches for a draw with probabilities p:
    the cumulative sum, divided by its last entry, as a list for bisect."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _draw(cdf: list[float], rng: np.random.Generator) -> int:
    """rng.choice(len(p), p=p) for the p whose _cdf is cdf: the same index
    from the same one rng.random(), without choice's checks of p."""
    return bisect.bisect_right(cdf, rng.random())


def _column_stats(rocof: np.ndarray, bus_ids) -> tuple:
    """The min, mean and max (arrays) and the worst bus (a list) of each row
    of a contingency x bus ROCOF block, skipping NaN buses. The worst bus is
    the lowest bus id among the buses within WORST_BUS_RTOL * max(1, |min|)
    Hz/s of the row minimum, so buses that tie within rounding give the
    same worst bus in any bus order. A row without a number gives NaNs and
    no worst bus (None)."""
    nan = np.isnan(rocof)
    count = rocof.shape[1] - np.count_nonzero(nan, axis=1)
    total = np.where(nan, 0.0, rocof).sum(axis=1)
    mean = np.divide(total, count, out=np.full(len(count), np.nan),
                     where=count > 0)
    low, high = np.fmin.reduce(rocof, axis=1), np.fmax.reduce(rocof, axis=1)
    tied = rocof <= (low + WORST_BUS_RTOL * np.fmax(1.0, np.abs(low)))[:, None]
    ids = np.asarray(bus_ids, dtype=np.int64)
    worst = np.where(tied, ids, np.iinfo(np.int64).max).min(axis=1)
    return low, mean, high, [w if c else None
                             for w, c in zip(worst.tolist(), count.tolist())]


@dataclass
class _Bank:
    """What every loading case of a bank shares, built once per bank by
    _bank: the contingency ids in sorted order, the ids of the units the
    contingencies name, in sorted order, the contingency x unit incidence
    (True where the contingency loses the unit), the case's fields as
    arrays (GridCase.arrays), which each loading case re-dispatches, and in
    the locational and simulate modes the branch network as
    netdyn.build_model takes it, the Y-bus, the island labels and the
    power flow's Jacobian patterns (_branch_network). Where building the
    arrays or the network raised, the exception stands in their place."""

    ids: list[str]
    unit_ids: list[str]
    incidence: np.ndarray
    arrays: CaseArrays | Exception
    network: tuple | Exception | None


def _bank(case: GridCase, contingencies: list[Contingency], mode: str) -> _Bank:
    ctgs = sorted(contingencies, key=lambda c: c.id)
    unit_ids = sorted({u for c in ctgs for u in c.outaged_generator_ids})
    column = {u: k for k, u in enumerate(unit_ids)}
    incidence = np.zeros((len(ctgs), len(unit_ids)), dtype=bool)
    incidence[[j for j, c in enumerate(ctgs) for _ in c.outaged_generator_ids],
              [column[u] for c in ctgs for u in c.outaged_generator_ids]] = True
    network = None if mode == "system_only" else _or_error(_branch_network, case)
    return _Bank([c.id for c in ctgs], unit_ids, incidence,
                 _or_error(attrgetter("arrays"), case), network)


def _branch_network(case: GridCase) -> tuple:
    """The case's branch network as netdyn.build_model takes it: the
    Y-bus, the island labels (build_ybus, island_labels) and an empty store
    for the power flow's Jacobian patterns, which the loading cases solved
    on it fill."""
    return build_ybus(case), island_labels(case), {}


def _or_error(build, case: GridCase):
    """build(case), or the exception it raised, which a bank records on
    every loading case that needs what build makes."""
    try:
        return build(case)
    except Exception as exc:  # noqa: BLE001 - recorded on every loading case
        return exc


def _raised(built):
    """built, or, where it is an exception (_or_error), that exception
    raised with a fresh traceback: re-raising the one object must not
    chain every loading case's frames onto it."""
    if isinstance(built, Exception):
        raise built.with_traceback(None)
    return built


def _eval_loading_case(case: GridCase, lc: LoadingCase, bank: _Bank,
                       mode: str) -> tuple[list, ...]:
    """The loading case's rows, one per contingency of the bank in id
    order, as the scenario table's columns (case_io.SCENARIO_COLUMNS, in
    ScenarioRecord's field order), filled column by column; its id and
    inertia columns hold one value. The inertia line is summed over the
    case's units in lc.dispatch, on the bank's arrays
    (CaseArrays.inertia_gws); if that sum or the model build fails, every
    row fails. The model build (not made in system_only mode) re-dispatches
    the bank's arrays (_dispatch_arrays) and builds on them and the bank's
    network (netdyn.build_model); the bank's exception for either fails
    the rows where the build would have raised it, after the dispatch.

    A contingency's online units are its units in lc.committed, read off
    the bank's incidence, and its dispatched MW is their lc.dispatch MW, a
    plain running sum in unit id order on every Python. Locational mode
    screens the rows with online units in one batch, one row too, handing
    the batch screen core (rocof._screen_lost) the (contingency, unit)
    pairs of those rows' online units; simulate mode simulates each."""
    model = states = None
    setup_error: str | None = None
    inertia_gws = math.nan
    try:
        arrays = _raised(bank.arrays)
        inertia_gws = arrays.inertia_gws(lc.dispatch)
        if mode != "system_only":
            dispatched = _dispatch_arrays(arrays, lc.target_load_mw, lc.dispatch)
            _, model, states = build_model(dispatched, _raised(bank.network))
    except Exception as exc:  # noqa: BLE001 - recorded per row
        setup_error = f"loading case failed: {exc}"

    units, m = bank.unit_ids, len(bank.ids)
    online = bank.incidence & np.array([u in lc.committed for u in units],
                                       dtype=bool)
    has_online = online.any(axis=1)
    # a plain running sum from 0.0 over the online units in sorted id order,
    # as Python 3.11's sum(..., 0.0) adds (later versions compensate): the
    # other units add 0.0, and the last + 0.0 turns a sum of signed zeros
    # into 0.0
    dispatch_mw = np.array([lc.dispatch.get(u, 0.0) for u in units], dtype=float)
    mw_lost = (np.where(online, dispatch_mw, 0.0).cumsum(axis=1)[:, -1] + 0.0
               if units else np.zeros(m))
    status = ["ok" if has else "no_online_units" for has in has_online.tolist()]
    low, mean, high = (np.full(m, np.nan) for _ in range(3))
    worst: list[int | None] = [None] * m

    screened = np.flatnonzero(has_online)
    if setup_error is not None:
        for j in screened.tolist():
            status[j] = setup_error
    elif mode != "system_only" and screened.size:
        sub, s = online[screened], len(screened)
        ids = [bank.ids[j] for j in screened.tolist()]
        rocof = np.full((s, model.n_bus), np.nan)          # contingency x bus
        screen_mw = mw_lost[screened]
        islands: list[list] = [[] for _ in range(s)]
        if mode == "locational":
            row, col = np.nonzero(sub)
            try:
                batch = _screen_lost(model, states, ids, row.tolist(),
                                     [units[k] for k in col.tolist()])
                rocof, errors = batch.bus_rocof_hz_s.T, batch.errors
                screen_mw, islands = batch.mw_lost, batch.undefined_islands
            except Exception as exc:  # noqa: BLE001 - fault isolation
                errors = [exc] * s
        else:  # simulate
            errors = [None] * s
            for j in range(s):
                lost_units = frozenset(units[k] for k in np.flatnonzero(sub[j]))
                try:
                    rocof[j] = finite_difference_rocof(simulate(
                        model, states, Contingency(ids[j], lost_units),
                        SIMULATE_MODE_OPTS))
                except Exception as exc:  # noqa: BLE001 - fault isolation
                    errors[j] = exc
        s_low, s_mean, s_high, s_worst = _column_stats(rocof, model.bus_ids)
        ok = np.array([e is None for e in errors], dtype=bool)
        rows = screened[ok]
        mw_lost[rows] = screen_mw[ok]
        low[rows], mean[rows], high[rows] = s_low[ok], s_mean[ok], s_high[ok]
        for j, error, isl, w in zip(screened.tolist(), errors, islands, s_worst):
            if error is not None:
                status[j] = f"error: {error}"
            else:
                worst[j] = w
                if isl:
                    status[j] = f"{len(isl)} undefined island(s)"

    # the loading case's inertia line at each row's final MW lost
    inertia_mws = inertia_gws * 1000.0
    system_rocof = np.zeros(m)
    lossy = mw_lost > 0
    system_rocof[lossy] = (-case.f_base_hz * mw_lost[lossy] / (2.0 * inertia_mws)
                           if inertia_mws > 0 else math.nan)
    concern = system_rocof < CONCERN_ROCOF_HZ_S
    return ([lc.id] * m, bank.ids, mw_lost.tolist(), [inertia_gws] * m,
            system_rocof.tolist(), low.tolist(), mean.tolist(), high.tolist(),
            worst, concern.tolist(), status)


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
    (a SIMULATE_MODE_OPTS time-domain run per scenario, 0.1-0.25 s each on
    a 5041-bus grid). Any other mode raises InputError.

    mw_lost is the lost machines' solved output on the rows a locational
    screen produced, and the dispatched MW of the online outaged units on
    every other row (see docs/case_schema.md).

    What does not depend on the loading case is built once per bank: the
    contingencies in id order and their contingency x unit incidence over
    the units they name, in sorted id order; the case's unit, load and bus
    fields as arrays (GridCase.arrays); and, in the locational and
    simulate modes, the branch network (the Y-bus and the island labels),
    from case, since a loading case changes only generators and loads,
    with a store of the power flow's Jacobian patterns, which the loading
    cases with the same pv and pq buses share. system_only mode builds no
    network. A network that cannot be built fails every loading case's
    rows with its error, as each loading case's own build would. Each
    loading case sets three things from its dispatch on a copy of the
    arrays, the units' status and MW and the load scale, to the bits of
    apply_loading_case; the power flow, the model build and the inertia
    line read the arrays, never a record, and its model keeps case's load
    records, not a dispatched case (netdyn.NetworkModel.loads). It reads
    its online units and dispatched MW off the incidence, hands the
    (contingency, unit) pairs of its online outaged units to the screen
    core in one batch and fills its rows a column at a time. Loading cases
    are evaluated one after another, and rows stream to out_path as
    case_io's scenario table (write_scenario_table) in sorted (loading_id,
    contingency_id) order, each loading case's rows in one write, from
    its columns, as it completes. workers has no effect on evaluation and
    is kept for callers that pass it; the output is the same for any value.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}; expected one of "
                         f"{', '.join(MODES)}")
    records: list[ScenarioRecord] = []

    def batches():
        bank = _bank(case, contingencies, mode)
        for lc in sorted(loading_cases, key=lambda lc: lc.id):
            columns = _eval_loading_case(case, lc, bank, mode)
            records.extend(map(ScenarioRecord, *columns))
            yield columns

    if out_path is None:
        for _ in batches():
            pass
    else:
        _write_scenario_runs(batches(), out_path)
    return records
