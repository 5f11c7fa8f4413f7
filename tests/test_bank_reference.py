"""Bank generation against a frozen copy of its first implementation.

``reference_generate_contingencies`` draws each weighted plant with
``Generator.choice`` and rebuilds the eligible plants and their weights on
every attempt; ``reference_dispatch_heuristic`` builds every record with
``dataclasses.replace``. The library hoists the weights into CDFs searched
at one ``rng.random()`` and copies records without the frozen ``__init__``.
A seed's bank is part of ``generate_contingencies``'s contract, so the
library must give the same contingencies, the same MW, the same errors,
the same generator state after a draw that succeeds, and the same
dispatched records.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from rocofscreen.case_model import GridCase, InputError
from rocofscreen.rocof import Contingency
from rocofscreen.scenarios import (DESIGN_CONTINGENCY_MW, FUEL_MERIT_ORDER,
                                   MIN_CONTINGENCY_MW, MULTI_SITE_FRACTION,
                                   InfeasibleDispatch, _cdf, _draw,
                                   apply_loading_case, dispatch_heuristic,
                                   generate_contingencies, generate_loading_cases)

from conftest import record_fields

STUDY_LOAD_RANGE = (15000.0, 75000.0)
STUDY_WIND_RANGE = (10000.0, 30000.0)


def reference_generate_contingencies(case: GridCase, n: int,
                                     rng: np.random.Generator) -> list[Contingency]:
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


def reference_dispatch_heuristic(case: GridCase, target_load_mw: float,
                                 target_wind_mw: float) -> GridCase:
    wind = [g for g in case.generators if not g.synchronous and g.status]
    wind_cap = sum(g.p_max_mw for g in wind)
    wind_factor = target_wind_mw / wind_cap if wind_cap > 0 else 0.0
    slack_buses = {b.id for b in case.buses if b.kind == "slack"}
    sync = [g for g in case.generators if g.synchronous and g.status]
    nuclear_mw = sum(g.p_max_mw for g in sync if g.fuel == "nuclear")
    required = target_load_mw - target_wind_mw - nuclear_mw
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
        raise InfeasibleDispatch("insufficient synchronous capacity")
    lam = required / cap if cap > 0 else 0.0
    p_mw = {g.id: g.p_max_mw * wind_factor for g in wind}
    p_mw.update((g.id, g.p_max_mw if g.fuel == "nuclear" else lam * g.p_max_mw)
                for g in committed)
    return reference_dispatch(case, target_load_mw, p_mw)


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
    # the sampler draws one plant as a search of _cdf(p) at one
    # rng.random(); a NumPy whose choice(k, p=p) draws otherwise would
    # silently re-draw every bank, so pin the two together
    p = np.asarray(p, dtype=float) / np.sum(p)
    cdf = _cdf(p)
    for seed in (0, 1, 7, 2024):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            assert _draw(cdf, a) == int(b.choice(len(p), p=p))
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("n", [20, 163, 250])
def test_fleet_base_bank_matches_reference(fleet_case, n):
    base = dispatch_heuristic(fleet_case, 50000.0, 15000.0)
    for seed in (1, 2, 11):
        bank = assert_same_bank(base, n, seed)
        assert len(bank) == n


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
