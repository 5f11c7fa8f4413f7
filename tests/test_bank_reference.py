"""Bank generation and the bank runner against frozen copies of earlier
implementations.

``reference_generate_contingencies`` draws each weighted plant with
``Generator.choice``, rebuilds the eligible plants and their weights on
every attempt, takes its targets with ``Generator.uniform`` and orders a
plant's units with ``Generator.permutation``; ``reference_dispatch_heuristic``
builds every record with ``dataclasses.replace``. The library hoists the
weights into CDFs, held as lists and searched by ``bisect`` at one
``rng.random()``, takes its single-site target from one ``rng.random()``,
orders units by ``rng.shuffle`` of a list and copies records without the
frozen ``__init__``. A seed's bank is part of ``generate_contingencies``'s
contract, so the library must give the same contingencies, the same MW,
the same errors, the same generator state after a draw that succeeds, and
the same dispatched records. ``reference_generate_loading_cases`` builds
each loading case from a dispatched case (``reference_dispatch_heuristic``
and the record-reading ``reference_loading_case_from``); the library builds
it from the merit order's MW and the case's arrays, field for field.
The references add floats as plain running sums (``running_sum``), as
Python 3.11's ``sum()`` does, so they pin 3.11's bytes on every Python.

``reference_run_bank`` evaluates a loading case row by row: a frozenset of
online units, a running sum of their MW in sorted id order and a
``Contingency`` per row, a screen through ``locational_rocof_batch``'s
front end, and each cell formatted on its own through ``csv.writer``; it
solves every power flow without the bank's Jacobian patterns. The library builds a bank's contingency x unit
incidence once, screens from lost-machine masks, fills its rows column by
column and formats its cells a column at a time. Its tables must keep
their bytes.
"""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rocofscreen import build_model, build_ybus, scenarios, solve_powerflow
from rocofscreen.case_io import SCENARIO_COLUMNS, write_scenario_table
from rocofscreen.case_model import (GridCase, InputError, LoadingCase,
                                    ScenarioRecord, island_labels,
                                    total_inertia_gws)
from rocofscreen.rocof import Contingency, locational_rocof_batch
from rocofscreen.scenarios import (CONCERN_ROCOF_HZ_S, DESIGN_CONTINGENCY_MW,
                                   FUEL_MERIT_ORDER, MIN_CONTINGENCY_MW,
                                   MULTI_SITE_FRACTION, SIMULATE_MODE_OPTS,
                                   WORST_BUS_RTOL, InfeasibleDispatch, _cdf,
                                   _draw, apply_loading_case, dispatch_heuristic,
                                   finite_difference_rocof,
                                   generate_contingencies,
                                   generate_loading_cases, run_bank)
from rocofscreen.swingsim import simulate

from conftest import record_fields
from test_netdyn import assert_same_bits
from test_scenarios import case9_bank_with_failures

STUDY_LOAD_RANGE = (15000.0, 75000.0)
STUDY_WIND_RANGE = (10000.0, 30000.0)


def running_sum(values) -> float:
    """The plain running sum from 0.0 that Python 3.11's sum() makes of
    floats; later versions' sum() compensates."""
    total = 0.0
    for v in values:
        total += v
    return total


def reference_generate_contingencies(case: GridCase, n: int,
                                     rng: np.random.Generator) -> list[Contingency]:
    units = [g for g in case.generators if g.synchronous and g.status and g.p_mw > 0]
    plants: dict[int, list] = {}
    for g in units:
        plants.setdefault(g.bus_id, []).append(g)
    for members in plants.values():
        members.sort(key=lambda g: (-g.p_mw, g.id))
    plant_ids = sorted(plants)
    plant_mw = np.array([running_sum(g.p_mw for g in plants[b]) for b in plant_ids])
    if not plant_ids or plant_mw.sum() <= MIN_CONTINGENCY_MW:
        raise InputError(
            f"case dispatch ({plant_mw.sum():.0f} MW) is too small to build "
            f"outages above {MIN_CONTINGENCY_MW:.0f} MW")
    weights = plant_mw / plant_mw.sum()

    n_multi = int(round(n * MULTI_SITE_FRACTION))
    seen: set[frozenset[str]] = set()
    out: list[Contingency] = []
    attempts = 0
    stale = 0
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
            second_site = stale > 25 and rng.random() < 0.7
            eligible = np.flatnonzero(
                plant_mw > (0.0 if second_site else MIN_CONTINGENCY_MW))
            if eligible.size == 0:
                n_multi = n
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


def reference_dispatch(case: GridCase, target_load_mw: float,
                       p_mw: dict[str, float]) -> GridCase:
    factor = target_load_mw / running_sum(l.p_mw for l in case.loads)
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


def reference_dispatch_heuristic(case: GridCase, target_load_mw: float,
                                 target_wind_mw: float) -> GridCase:
    wind = [g for g in case.generators if not g.synchronous and g.status]
    wind_cap = running_sum(g.p_max_mw for g in wind)
    wind_factor = target_wind_mw / wind_cap if wind_cap > 0 else 0.0
    slack_buses = {b.id for b in case.buses if b.kind == "slack"}
    sync = [g for g in case.generators if g.synchronous and g.status]
    nuclear_mw = running_sum(g.p_max_mw for g in sync if g.fuel == "nuclear")
    required = target_load_mw - target_wind_mw - nuclear_mw
    must_run = [g for g in sync if g.fuel == "nuclear" or g.bus_id in slack_buses]
    merit = sorted((g for g in sync if g not in must_run),
                   key=lambda g: (FUEL_MERIT_ORDER.get(g.fuel, 9),
                                  -g.p_max_mw, g.id))
    committed = list(must_run)
    cap = running_sum(g.p_max_mw for g in must_run if g.fuel != "nuclear")
    for g in merit:
        if cap >= required:
            break
        committed.append(g)
        cap += g.p_max_mw
    if cap < required:
        raise InfeasibleDispatch("insufficient synchronous capacity")
    lam = required / cap if cap > 0 else 0.0
    p_mw = {g.id: g.p_max_mw * wind_factor for g in wind}
    p_mw.update((g.id, g.p_max_mw if g.fuel == "nuclear" else lam * g.p_max_mw)
                for g in committed)
    return reference_dispatch(case, target_load_mw, p_mw)


def reference_loading_case_from(dispatched: GridCase, lc_id: str,
                                target_load_mw: float,
                                target_wind_mw: float) -> LoadingCase:
    disp = {g.id: g.p_mw for g in dispatched.generators if g.status}
    inertia = total_inertia_gws(dispatched)
    sync_mw = running_sum(g.p_mw for g in dispatched.generators
                          if g.status and g.synchronous)
    total = sync_mw + target_wind_mw
    return LoadingCase(lc_id, target_load_mw, target_wind_mw, disp, frozenset(disp),
                       inertia, target_wind_mw / total if total > 0 else 0.0)


def reference_generate_loading_cases(case: GridCase, n: int,
                                     load_range_mw: tuple[float, float],
                                     wind_range_mw: tuple[float, float]) -> list[LoadingCase]:
    lo_l, hi_l = load_range_mw
    lo_w, hi_w = wind_range_mw
    sync = [g for g in case.generators if g.synchronous and g.status]
    nuclear_mw = running_sum(g.p_max_mw for g in sync if g.fuel == "nuclear")
    wind_cap = running_sum(g.p_max_mw for g in case.generators
                           if not g.synchronous and g.status)
    n_load = max(int(round(math.sqrt(n))), 1)
    n_wind = math.ceil(n / n_load)
    out: list[LoadingCase] = []
    for load_mw in np.linspace(lo_l, hi_l, n_load):
        w_max = min(hi_w, wind_cap, load_mw - nuclear_mw)
        for wind_mw in np.linspace(lo_w, w_max, n_wind):
            if len(out) >= n:
                break
            dispatched = reference_dispatch_heuristic(case, float(load_mw),
                                                      float(wind_mw))
            out.append(reference_loading_case_from(
                dispatched, f"lc{len(out):03d}", float(load_mw), float(wind_mw)))
    return out


def loading_case_fields(lc: LoadingCase) -> list:
    """A loading case's fields, each float as its repr and the dispatch as
    its (unit, MW repr) items in their order."""
    assert type(lc.dispatch) is dict and type(lc.committed) is frozenset
    return [lc.id, repr(lc.target_load_mw), repr(lc.target_wind_mw),
            [(u, repr(mw)) for u, mw in lc.dispatch.items()], sorted(lc.committed),
            repr(lc.online_inertia_gws), repr(lc.wind_fraction)]


def draw_both(case, n, seed):
    """(bank or error text, generator state) from the library and from the
    reference, each on its own generator with the same seed."""
    out = []
    for draw in (generate_contingencies, reference_generate_contingencies):
        rng = np.random.default_rng(seed)
        try:
            bank = draw(case, n, rng)
        except InputError as exc:
            bank = str(exc)
        out.append((bank, rng.bit_generator.state))
    return out


def assert_same_bank(case, n, seed):
    """The library's and the reference's draws agree exactly: the same error
    text, or the same bank and generator state; returns the library's bank
    (or error text). The library gives up after MAX_IDLE_ATTEMPTS attempts
    in a row find nothing, the reference after 200 per contingency in all,
    so a draw that fails leaves their generators in different states."""
    (bank, state), (ref_bank, ref_state) = draw_both(case, n, seed)
    if isinstance(ref_bank, str):
        assert bank == ref_bank
        return bank
    assert state == ref_state
    assert [(c.id, sorted(c.outaged_generator_ids), repr(c.total_mw_lost))
            for c in bank] == [(c.id, sorted(c.outaged_generator_ids),
                                repr(c.total_mw_lost)) for c in ref_bank]
    return bank


def second_site_pairs(monkeypatch, case, n, seed) -> list[tuple[int, int]]:
    """The (first, second) plant indices of the library's second-site
    draws. They are the _draw calls on the CDF of all plants, two per
    attempt; the bank's first single-site attempt, which is never stale,
    draws on the other CDF, that of the plants above MIN_CONTINGENCY_MW."""
    calls = []
    draw = scenarios._draw

    def logged(cdf, rng):
        calls.append((cdf, draw(cdf, rng)))
        return calls[-1][1]

    monkeypatch.setattr(scenarios, "_draw", logged)
    generate_contingencies(case, n, np.random.default_rng(seed))
    monkeypatch.undo()
    single = calls[0][0]
    picks = [pick for cdf, pick in calls if cdf is not single]
    assert len(picks) % 2 == 0
    return list(zip(picks[::2], picks[1::2]))


def plant_mw(case) -> list[float]:
    """Dispatched MW of each plant (bus) the sampler draws from."""
    mw: dict[int, float] = {}
    for g in case.generators:
        if g.synchronous and g.status and g.p_mw > 0:
            mw[g.bus_id] = mw.get(g.bus_id, 0.0) + g.p_mw
    return list(mw.values())


def assert_same_records(case, ref):
    """Field for field, type, == and hash, record by record."""
    assert case == ref and hash(case) == hash(ref)
    for got, want in zip(case.generators + case.loads, ref.generators + ref.loads):
        assert type(got) is type(want)
        assert record_fields(got) == record_fields(want)
        assert got == want and hash(got) == hash(want)
    assert len(case.generators) == len(ref.generators)
    assert len(case.loads) == len(ref.loads)


@pytest.fixture(scope="module")
def study_cases(fleet_case):
    return generate_loading_cases(fleet_case, 25, STUDY_LOAD_RANGE, STUDY_WIND_RANGE)


@pytest.mark.parametrize("p", [[1.0], [0.5, 0.5], [0.1, 0.0, 0.6, 0.3],
                               [1e-9, 1.0 - 2e-9, 1e-9], [0.0, 0.0, 1.0],
                               np.linspace(1.0, 30.0, 30)])
def test_cdf_search_is_numpys_weighted_draw(p):
    # the sampler draws one plant as a bisect of _cdf(p), a list, at one
    # rng.random(); a NumPy whose choice(k, p=p) draws otherwise would
    # silently re-draw every bank, so pin the two together
    p = np.asarray(p, dtype=float) / np.sum(p)
    cdf = _cdf(p)
    assert type(cdf) is list
    for seed in (0, 1, 7, 2024):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            assert _draw(cdf, a) == int(b.choice(len(p), p=p))
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("lo, hi", [
    (math.log(MIN_CONTINGENCY_MW), math.log(DESIGN_CONTINGENCY_MW)),
    (DESIGN_CONTINGENCY_MW, 2.0 * DESIGN_CONTINGENCY_MW), (-3.5, 1e-3), (0.0, 1.0)])
def test_scaled_random_is_numpys_uniform(lo, hi):
    # the sampler takes a single-site attempt's log target as
    # lo + (hi - lo) * rng.random(), the number rng.uniform(lo, hi) returns
    span = hi - lo
    for seed in (0, 1, 7, 2024):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            assert repr(lo + span * a.random()) == repr(b.uniform(lo, hi))
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("k", range(1, 9))
def test_shuffle_of_a_list_is_numpys_permutation(k):
    # the sampler orders a plant's units by rng.shuffle of a list, which
    # must make the swaps, and so the draws, of rng.permutation(k)
    for seed in (0, 1, 7, 2024):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(100):
            order = list(range(k))
            a.shuffle(order)
            assert order == b.permutation(k).tolist()
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("n", [20, 163, 250])
def test_fleet_base_bank_matches_reference(fleet_case, n):
    base = dispatch_heuristic(fleet_case, 50000.0, 15000.0)
    for seed in (range(1, 21) if n == 163 else (1, 2, 11)):
        bank = assert_same_bank(base, n, seed)
        assert len(bank) == n


def test_second_site_draws_that_pick_one_plant_twice(monkeypatch, fleet_case):
    # a second-site draw may pick its first plant again, which adds no
    # units; the seed-1 bank on the base dispatch has such draws, and
    # test_fleet_base_bank_matches_reference matches it to the reference
    base = dispatch_heuristic(fleet_case, 50000.0, 15000.0)
    pairs = second_site_pairs(monkeypatch, base, 163, 1)
    assert any(a == b for a, b in pairs) and any(a != b for a, b in pairs)


def test_every_study_loading_case_matches_reference(fleet_case, study_cases):
    for lc in study_cases:
        ref = reference_dispatch_heuristic(fleet_case, lc.target_load_mw,
                                           lc.target_wind_mw)
        assert_same_records(dispatch_heuristic(fleet_case, lc.target_load_mw,
                                               lc.target_wind_mw), ref)
        dispatched = apply_loading_case(fleet_case, lc)
        assert_same_records(dispatched, reference_dispatch(
            fleet_case, lc.target_load_mw, lc.dispatch))
        assert_same_records(dispatched, ref)
    # the banks drawn on the first, middle and last study dispatches
    for k, lc in enumerate(study_cases[::12]):
        assert_same_bank(apply_loading_case(fleet_case, lc), 40, 5 + k)


@pytest.mark.parametrize("n, load_range, wind_range", [
    (25, STUDY_LOAD_RANGE, STUDY_WIND_RANGE),
    (12, (20000.0, 60000.0), (10000.0, 25000.0)),
    (10, (18000.0, 42000.0), (0.0, 40000.0))])
def test_generated_loading_cases_match_reference(fleet_case, n, load_range,
                                                 wind_range):
    # field for field, floats by repr and the dispatch in its key order;
    # the last range caps wind by the nuclear floor and by installed wind
    got = generate_loading_cases(fleet_case, n, load_range, wind_range)
    want = reference_generate_loading_cases(fleet_case, n, load_range, wind_range)
    assert len(got) == n
    assert list(map(loading_case_fields, got)) == list(map(loading_case_fields, want))


def test_grid_bank_matches_reference(grid71):
    # no plant of the grid is above MIN_CONTINGENCY_MW, so the first
    # single-site attempt finds none ("no single plant is large enough")
    # and every contingency is a multi-site one
    case = grid71[0]
    assert max(plant_mw(case)) <= MIN_CONTINGENCY_MW
    for seed in (4, 9):
        bank = assert_same_bank(case, 120, seed)
        assert len(bank) == 120
        assert all(c.total_mw_lost >= DESIGN_CONTINGENCY_MW for c in bank)


def test_could_not_assemble_path_matches_reference(fleet_case, study_cases):
    # the second low-demand study case has too few plants for 20 distinct
    # losses; its draws go stale, so second sites join, picked among all
    # plants, some of them below MIN_CONTINGENCY_MW. Both give up having
    # found the same count; their generator states differ (assert_same_bank)
    low = apply_loading_case(fleet_case, study_cases[1])
    mw = plant_mw(low)
    assert min(mw) <= MIN_CONTINGENCY_MW < max(mw)
    for seed in (1, 2):
        error = assert_same_bank(low, 20, seed)
        assert error.startswith("could not assemble 20 distinct contingencies")


def test_dispatch_does_not_copy_the_cached_bus_lookup(fleet_case):
    fleet_case._find_buses([1])           # fills the cached lookup
    assert "_bus_lookup" in fleet_case.__dict__
    out = dispatch_heuristic(fleet_case, 40000.0, 20000.0)
    assert "_bus_lookup" not in out.__dict__


def reference_column_stats(rocof: np.ndarray, bus_ids) -> list[tuple]:
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


def reference_branch_network(case: GridCase):
    try:
        return build_ybus(case), island_labels(case)
    except Exception as exc:  # noqa: BLE001 - recorded on every loading case
        return exc


def reference_eval_loading_case(case, lc, contingencies, mode, network):
    model = states = None
    setup_error = None
    inertia_gws = math.nan
    try:
        inertia_gws = total_inertia_gws(case.with_generators(
            g for g in case.generators if g.id in lc.dispatch))
        if mode != "system_only":
            dispatched = apply_loading_case(case, lc)
            if isinstance(network, Exception):
                raise network.with_traceback(None)
            _, model, states = build_model(dispatched, network)
    except Exception as exc:  # noqa: BLE001 - recorded per row
        setup_error = f"loading case failed: {exc}"

    rows = []
    screened = []
    for ctg in sorted(contingencies, key=lambda c: c.id):
        online = frozenset(g for g in ctg.outaged_generator_ids
                           if g in lc.committed)
        # the running sum Python 3.11's sum(..., 0.0) makes, on any Python
        mw_disp = 0.0
        for g in sorted(online):
            mw_disp += lc.dispatch.get(g, 0.0)
        rec = ScenarioRecord(lc.id, ctg.id, mw_disp, inertia_gws, 0.0)
        rows.append(rec)
        if not online:
            rec.status = "no_online_units"
        elif setup_error is not None:
            rec.status = setup_error
        elif mode != "system_only":
            screened.append((rec, Contingency(ctg.id, online)))

    if screened:
        subs = [sub for _, sub in screened]
        rocof = np.full((len(subs), model.n_bus), np.nan)
        errors = [None] * len(subs)
        mw_lost = [rec.mw_lost for rec, _ in screened]
        islands = [[] for _ in subs]
        if mode == "locational":
            try:
                batch = locational_rocof_batch(model, states, subs)
                rocof, errors = batch.bus_rocof_hz_s.T, batch.errors
                mw_lost, islands = batch.mw_lost.tolist(), batch.undefined_islands
            except Exception as exc:  # noqa: BLE001 - fault isolation
                errors = [exc] * len(subs)
        else:
            for j, sub in enumerate(subs):
                try:
                    rocof[j] = finite_difference_rocof(
                        simulate(model, states, sub, SIMULATE_MODE_OPTS))
                except Exception as exc:  # noqa: BLE001 - fault isolation
                    errors[j] = exc
        stats = reference_column_stats(rocof, model.bus_ids)
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

    inertia_mws = inertia_gws * 1000.0
    for rec in rows:
        if rec.mw_lost > 0:
            rec.system_rocof_hz_s = (
                -case.f_base_hz * rec.mw_lost / (2.0 * inertia_mws)
                if inertia_mws > 0 else math.nan)
        rec.concern_flag = rec.system_rocof_hz_s < CONCERN_ROCOF_HZ_S
    return rows


def reference_fmt(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return repr(float(x))


def reference_write_scenario_table(records, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(SCENARIO_COLUMNS)
        w.writerows(
            [r.loading_id, r.contingency_id, reference_fmt(r.mw_lost),
             reference_fmt(r.inertia_gws), reference_fmt(r.system_rocof_hz_s),
             reference_fmt(r.bus_rocof_min), reference_fmt(r.bus_rocof_mean),
             reference_fmt(r.bus_rocof_max),
             "" if r.worst_bus is None else str(r.worst_bus),
             "1" if r.concern_flag else "0", r.status]
            for r in records)


def reference_run_bank(case, loading_cases, contingencies, mode, out_path):
    network = None if mode == "system_only" else reference_branch_network(case)
    records = [rec for lc in sorted(loading_cases, key=lambda lc: lc.id)
               for rec in reference_eval_loading_case(case, lc, contingencies,
                                                      mode, network)]
    reference_write_scenario_table(records, out_path)
    return records


def assert_same_tables(case, loading, contingencies, mode, tmp_path):
    """run_bank's table and records are reference_run_bank's, byte for byte
    and field for field."""
    got, want = tmp_path / f"{mode}.csv", tmp_path / f"{mode}-ref.csv"
    records = run_bank(case, loading, contingencies, mode=mode, out_path=got)
    ref = reference_run_bank(case, loading, contingencies, mode, want)
    assert got.read_bytes() == want.read_bytes()
    assert [record_fields(r) for r in records] == [record_fields(r) for r in ref]
    return records


@pytest.fixture(scope="module")
def fleet_study_bank(fleet_case, study_cases):
    base = dispatch_heuristic(fleet_case, 50000.0, 15000.0)
    return study_cases, generate_contingencies(base, 163, np.random.default_rng(1))


def test_fleet_study_bank_matches_reference(fleet_case, fleet_study_bank, tmp_path):
    loading, contingencies = fleet_study_bank
    records = assert_same_tables(fleet_case, loading, contingencies,
                                 "locational", tmp_path)
    assert len(records) == 25 * 163
    assert {r.status for r in records} == {"ok", "no_online_units"}


@pytest.mark.parametrize("mode", ["locational", "system_only", "simulate"])
def test_case9_bank_with_failures_matches_reference(case9, tmp_path, mode):
    loading, contingencies = case9_bank_with_failures(case9)
    records = assert_same_tables(case9, loading, contingencies, mode, tmp_path)
    statuses = {r.status.partition(":")[0] for r in records}
    assert statuses == ({"ok", "no_online_units"} if mode == "system_only" else
                        {"ok", "no_online_units", "error", "loading case failed"})


def test_jacobian_pattern_reuse_keeps_the_solution_bits(fleet_case, study_cases):
    # the bank keeps one Jacobian pattern per set of pv and pq buses; a
    # loading case that reuses one solves to the bits of a fresh solve
    ybus = build_ybus(fleet_case)
    patterns: dict = {}
    for _ in range(2):                  # the second pass reuses every one
        for lc in study_cases:
            case = apply_loading_case(fleet_case, lc)
            arrays = case.arrays
            got = solve_powerflow(arrays, ybus=ybus, patterns=patterns)
            want = solve_powerflow(arrays, ybus=ybus)
            for name in ("v_mag", "v_ang", "iterations", "max_mismatch_pu"):
                assert_same_bits(getattr(got, name), getattr(want, name))
    assert len(patterns) < len(study_cases)


TEXT = st.text(st.sampled_from(['a', '1', ' ', ',', '"', "'", '\r', '\n', 'é', ':']),
               max_size=6)
NUMBER = st.one_of(st.none(), st.integers(-10**6, 10**6),
                   st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(["lc0", "lc,1", 'lc"2', "lc3"]),
                          st.one_of(TEXT, st.integers(0, 9)),
                          *[NUMBER] * 6, st.one_of(st.none(), st.integers(-9, 99)),
                          st.booleans(), st.one_of(TEXT, st.none())),
                max_size=12))
def test_scenario_table_cells_match_the_reference_writer(tmp_path_factory, rows):
    # the column-wise cells, whose lines csv.writer writes in one string
    # (case_io._csv_lines), against a cell-by-cell csv.writer
    records = [ScenarioRecord(*row) for row in rows]
    path = tmp_path_factory.mktemp("table")
    write_scenario_table(records, path / "got.csv")
    reference_write_scenario_table(records, path / "want.csv")
    assert (path / "got.csv").read_bytes() == (path / "want.csv").read_bytes()
