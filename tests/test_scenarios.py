import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rocofscreen import netdyn, powerflow, scenarios
from rocofscreen import (Contingency, InfeasibleDispatch, SingularOutageError,
                         ZeroInertiaError, augment_dynamic, dispatch_heuristic,
                         generate_contingencies, generate_loading_cases,
                         init_machines, locational_rocof, run_bank,
                         solve_powerflow, total_inertia_gws)
from rocofscreen.case_io import read_scenario_table, write_scenario_table
from rocofscreen.case_model import (Branch, Bus, Generator, GridCase, InputError,
                                    Load, LoadingCase)
from rocofscreen.scenarios import (apply_loading_case, loading_case_from,
                                   _eval_loading_case)

from conftest import record_fields

STUDY_LOAD_RANGE = (15000.0, 75000.0)
STUDY_WIND_RANGE = (10000.0, 30000.0)


@pytest.fixture(scope="module")
def dispatched_fleet(fleet_case):
    return dispatch_heuristic(fleet_case, 50000.0, 15000.0)


@pytest.fixture(scope="module")
def small_bank(fleet_case):
    rng = np.random.default_rng(17)
    base = dispatch_heuristic(fleet_case, 50000.0, 15000.0)
    contingencies = generate_contingencies(base, 8, rng)
    loading = generate_loading_cases(fleet_case, 5, (30000.0, 60000.0),
                                     (12000.0, 25000.0))
    return fleet_case, loading, contingencies


def test_dispatch_hits_targets(fleet_case):
    out = dispatch_heuristic(fleet_case, 40000.0, 20000.0)
    wind = sum(g.p_mw for g in out.generators if not g.synchronous and g.status)
    load = sum(l.p_mw for l in out.loads)
    sync = sum(g.p_mw for g in out.generators if g.synchronous and g.status)
    assert wind == pytest.approx(20000.0)
    assert load == pytest.approx(40000.0)
    assert sync == pytest.approx(40000.0 - 20000.0, rel=1e-9)


def test_dispatch_nuclear_at_full_output(fleet_case):
    out = dispatch_heuristic(fleet_case, 40000.0, 15000.0)
    for g in out.generators:
        if g.fuel == "nuclear":
            assert g.status and g.p_mw == g.p_max_mw


def test_dispatch_base_point_is_fixed_point(fleet_case):
    base_load = sum(l.p_mw for l in fleet_case.loads)
    base_wind = sum(g.p_mw for g in fleet_case.generators
                    if not g.synchronous and g.status)
    out = dispatch_heuristic(fleet_case, base_load, base_wind)
    load = sum(l.p_mw for l in out.loads)
    wind = sum(g.p_mw for g in out.generators if not g.synchronous and g.status)
    assert load == pytest.approx(base_load, rel=0.01)
    assert wind == pytest.approx(base_wind, rel=0.01)


def test_dispatch_merit_order_lowers_inertia(fleet_case):
    low = dispatch_heuristic(fleet_case, 15000.0, 10000.0)
    high = dispatch_heuristic(fleet_case, 75000.0, 10000.0)
    assert total_inertia_gws(low) < total_inertia_gws(high)


def test_dispatch_uniform_loading_factor(fleet_case):
    out = dispatch_heuristic(fleet_case, 45000.0, 15000.0)
    lams = {round(g.p_mw / g.p_max_mw, 9)
            for g in out.generators
            if g.status and g.synchronous and g.fuel != "nuclear"
            and g.p_mw > 0}
    assert len(lams) == 1


def test_dispatch_wind_above_load_is_infeasible(fleet_case):
    with pytest.raises(InfeasibleDispatch, match="exceeds load"):
        dispatch_heuristic(fleet_case, 20000.0, 25000.0)


def test_dispatch_wind_above_capability(fleet_case):
    with pytest.raises(InfeasibleDispatch, match="capability"):
        dispatch_heuristic(fleet_case, 80000.0, 50000.0)


def test_dispatch_insufficient_capacity(fleet_case):
    with pytest.raises(InfeasibleDispatch, match="capacity"):
        dispatch_heuristic(fleet_case, 150000.0, 10000.0)


def test_loading_cases_study_shape(fleet_case):
    cases = generate_loading_cases(fleet_case, 125, STUDY_LOAD_RANGE,
                                   STUDY_WIND_RANGE)
    assert len(cases) == 125
    assert len({lc.id for lc in cases}) == 125
    loads = sorted({lc.target_load_mw for lc in cases})
    winds = sorted({lc.target_wind_mw for lc in cases})
    assert loads[0] == pytest.approx(15000.0)
    assert loads[-1] == pytest.approx(75000.0)
    assert winds[0] == pytest.approx(10000.0)
    assert winds[-1] == pytest.approx(30000.0)     # reached at high demand
    for lc in cases:
        assert 0.0 < lc.wind_fraction < 1.0
        assert lc.online_inertia_gws > 0


def test_loading_cases_inertia_tracks_demand(fleet_case):
    cases = generate_loading_cases(fleet_case, 9, (20000.0, 70000.0),
                                   (10000.0, 10000.0))
    by_load = sorted(cases, key=lambda lc: lc.target_load_mw)
    assert by_load[0].online_inertia_gws < by_load[-1].online_inertia_gws


def test_loading_cases_solve_no_power_flow(fleet_case, monkeypatch):
    # generation keeps only MW and inertia figures; banks solve each case
    solved = []
    solve = scenarios.solve_powerflow

    def counting_solve(c, *args, **kwargs):
        solved.append(c.name)
        return solve(c, *args, **kwargs)

    monkeypatch.setattr(scenarios, "solve_powerflow", counting_solve)
    cases = generate_loading_cases(fleet_case, 9, STUDY_LOAD_RANGE,
                                   STUDY_WIND_RANGE)
    assert len(cases) == 9
    assert solved == []


def test_loading_cases_infeasible_wind_floor(fleet_case):
    with pytest.raises(InfeasibleDispatch, match="exceeds"):
        generate_loading_cases(fleet_case, 9, (10000.0, 20000.0),
                               (40000.0, 50000.0))


def test_contingency_bank_rules(dispatched_fleet):
    rng = np.random.default_rng(23)
    bank = generate_contingencies(dispatched_fleet, 40, rng)
    assert len(bank) == 40
    assert len({c.outaged_generator_ids for c in bank}) == 40
    sizes = np.array([c.total_mw_lost for c in bank])
    assert np.all(sizes > 800.0)
    assert np.mean(sizes <= 2750.0) >= 0.9
    # single-plant events dominate; check that multi-unit outages exist
    multi_unit = [c for c in bank if len(c.outaged_generator_ids) > 1]
    assert multi_unit
    for c in bank:
        mw = sum(dispatched_fleet.generator(g).p_mw
                 for g in c.outaged_generator_ids)
        assert c.total_mw_lost == pytest.approx(mw)


def test_contingency_bank_deterministic(dispatched_fleet):
    a = generate_contingencies(dispatched_fleet, 20, np.random.default_rng(5))
    b = generate_contingencies(dispatched_fleet, 20, np.random.default_rng(5))
    assert a == b


def test_contingency_bank_small_case_fails(case9):
    with pytest.raises(ValueError, match="too small"):
        generate_contingencies(case9, 5, np.random.default_rng(1))


def test_apply_loading_case_reproduces_dispatch(fleet_case):
    lc_src = dispatch_heuristic(fleet_case, 35000.0, 14000.0)
    lc = loading_case_from(lc_src, "lc000", 35000.0, 14000.0)
    rebuilt = apply_loading_case(fleet_case, lc)
    for g in rebuilt.generators:
        if g.status:
            assert g.p_mw == pytest.approx(lc.dispatch[g.id])
        else:
            assert g.id not in lc.committed


def test_run_bank_locational(small_bank, tmp_path):
    case, loading, contingencies = small_bank
    out = tmp_path / "bank.csv"
    records = run_bank(case, loading, contingencies, mode="locational",
                       out_path=out)
    assert len(records) == len(loading) * len(contingencies)
    ids = [(r.loading_id, r.contingency_id) for r in records]
    assert ids == sorted(ids)
    for r in records:
        if r.status != "ok":
            continue
        assert r.bus_rocof_min <= r.bus_rocof_mean <= r.bus_rocof_max
        assert r.concern_flag == (r.system_rocof_hz_s < -0.5)
        assert r.worst_bus is not None
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header.startswith("loading_id,contingency_id,mw_lost")


def test_run_bank_worker_count_is_invisible(small_bank, tmp_path):
    case, loading, contingencies = small_bank
    p1 = tmp_path / "w1.csv"
    p3 = tmp_path / "w3.csv"
    run_bank(case, loading, contingencies, mode="locational", out_path=p1,
             workers=1)
    run_bank(case, loading, contingencies, mode="locational", out_path=p3,
             workers=3)
    assert p1.read_bytes() == p3.read_bytes()


def test_run_bank_solves_each_loading_case_once(small_bank, monkeypatch):
    # the Y-bus the power flow solved against also builds the dynamic model
    case, loading, contingencies = small_bank
    solved = []
    built = []
    solve = scenarios.solve_powerflow
    build = netdyn.build_ybus

    def counting_solve(c, *args, **kwargs):
        solved.append(c.name)
        return solve(c, *args, **kwargs)

    def counting_build(c):
        built.append(c.name)
        return build(c)

    monkeypatch.setattr(scenarios, "solve_powerflow", counting_solve)
    for module in (netdyn, scenarios):   # every module-level binding
        if getattr(module, "build_ybus", None) is build:
            monkeypatch.setattr(module, "build_ybus", counting_build)
    run_bank(case, loading, contingencies, mode="locational")
    assert len(solved) == len(loading)
    assert len(built) == len(loading)


def test_run_bank_power_flow_failure_isolated(small_bank, fleet_case,
                                              monkeypatch):
    # a loading case whose power flow fails yields failure rows for that
    # case only; generation does not solve, so it cannot abort
    case, loading, contingencies = small_bank
    clean = run_bank(case, loading, contingencies, mode="locational")
    bad = loading[1]
    solve = scenarios.solve_powerflow

    def failing_solve(c, *args, **kwargs):
        load = sum(l.p_mw for l in c.loads)
        wind = sum(g.p_mw for g in c.generators
                   if g.status and not g.synchronous)
        if (math.isclose(load, bad.target_load_mw)
                and math.isclose(wind, bad.target_wind_mw)):
            raise powerflow.PowerFlowDivergence(20, 1.0)
        return solve(c, *args, **kwargs)

    monkeypatch.setattr(scenarios, "solve_powerflow", failing_solve)
    regenerated = generate_loading_cases(fleet_case, 5, (30000.0, 60000.0),
                                         (12000.0, 25000.0))
    assert regenerated == loading
    mixed = run_bank(case, regenerated, contingencies, mode="locational")
    assert len(mixed) == len(clean)
    for m, c in zip(mixed, clean):
        if m.loading_id != bad.id:
            assert record_fields(m) == record_fields(c)
        elif c.status != "no_online_units":
            assert m.status.startswith("loading case failed: no convergence")
            assert math.isnan(m.bus_rocof_min)
            assert m.mw_lost == pytest.approx(c.mw_lost, rel=1e-9)
    assert any(m.status.startswith("loading case failed") for m in mixed)


def test_run_bank_singular_outage_is_error_row(small_bank, monkeypatch):
    case, loading, contingencies = small_bank

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    rows = run_bank(case, loading[:2], contingencies, mode="locational")
    screened = [r for r in rows if r.status != "no_online_units"]
    assert screened
    for r in screened:
        assert r.status.startswith(f"error: contingency {r.contingency_id}: ")
        assert "singular network at buses [" in r.status
        assert math.isnan(r.bus_rocof_min)


def loading_case_model(case, lc):
    dispatched = apply_loading_case(case, lc)
    sol = solve_powerflow(dispatched)
    model = augment_dynamic(sol.ybus, dispatched, sol)
    return model, init_machines(model, dispatched, sol)


def test_run_bank_batch_matches_single_screens(small_bank):
    # one batch per loading case gives the rows a loop of single screens
    # gives: ROCOF within 1e-9 Hz/s, status, worst bus and flag exact
    case, loading, contingencies = small_bank
    rows = {(r.loading_id, r.contingency_id): r
            for r in run_bank(case, loading, contingencies, mode="locational")}
    for lc in loading:
        model, states = loading_case_model(case, lc)
        for ctg in contingencies:
            row = rows[(lc.id, ctg.id)]
            online = frozenset(g for g in ctg.outaged_generator_ids
                               if g in lc.committed)
            if not online:
                assert row.status == "no_online_units"
                continue
            res = locational_rocof(model, states, Contingency(ctg.id, online))
            rocof = res.bus_rocof_hz_s
            assert row.status == "ok"
            low = np.nanmin(rocof)
            tied = rocof <= low + 1e-12 * max(1.0, abs(low))
            assert row.worst_bus == min(np.array(res.bus_ids)[tied])
            assert row.mw_lost == res.mw_lost
            line = -60.0 * res.mw_lost / (2.0 * lc.online_inertia_gws * 1000.0)
            assert row.concern_flag == (line < -0.5)
            for got, want in ((row.bus_rocof_min, np.nanmin(rocof)),
                              (row.bus_rocof_mean, np.nanmean(rocof)),
                              (row.bus_rocof_max, np.nanmax(rocof))):
                assert abs(got - want) <= 1e-9


def mirror_case(bus_order):
    """A five-bus chain mirrored about its middle bus 3 (the slack), with a
    machine at every bus, equal machines and loads at mirrored buses, and
    its buses listed in the given order."""
    kinds = {b: "slack" if b == 3 else "pv" for b in range(1, 6)}
    buses = {b: Bus(id=b, kind=kinds[b], v_mag=1.02) for b in range(1, 6)}
    gens = tuple(Generator(id=f"g{b}", bus_id=b, s_base_mva=300.0,
                           p_mw=60.0, p_max_mw=250.0, h_sec=4.0 if b % 2 else 3.0,
                           xdp_pu=0.25) for b in (3, 1, 5, 2, 4))
    loads = tuple(Load(id=f"ld{b}", bus_id=b, p_mw=80.0 if b in (2, 4) else 40.0,
                       q_mvar=15.0) for b in range(1, 6))
    branches = tuple(Branch(b, b + 1, 0.002, 0.02, 0.02) for b in range(1, 5))
    return GridCase(s_base_mva=100.0, name="mirror",
                    buses=tuple(buses[b] for b in bus_order),
                    generators=gens, loads=loads, branches=branches)


def test_worst_bus_is_lowest_id_among_ties_in_any_bus_order():
    # losing the machines at both ends leaves buses 1, 2, 4 and 5 with the
    # same ROCOF up to rounding, which falls differently in each bus order
    # (the first exact minimum is bus 1, 5 and 4 in these three orders)
    for order in ((1, 2, 3, 4, 5), (5, 4, 3, 2, 1), (3, 5, 1, 4, 2)):
        case = mirror_case(order)
        lc = loading_case_from(case, "lc", 280.0, 0.0)
        ctg = Contingency.of("ends", ["g1", "g5"])
        (row,) = run_bank(case, [lc], [ctg], mode="locational")
        model, states = loading_case_model(case, lc)
        rocof = locational_rocof(model, states, ctg).bus_rocof_hz_s
        low = rocof.min()
        tied = {b for b, r in zip(model.bus_ids, rocof)
                if r <= low + 1e-12 * max(1.0, abs(low))}
        assert tied == {1, 2, 4, 5}
        assert row.worst_bus == 1


def test_locational_bank_makes_two_solves_per_loading_case(small_bank,
                                                            monkeypatch):
    # after init_machines, every contingency of a loading case is screened
    # by the same two solves and no factorization
    case, loading, contingencies = small_bank
    after_init = []
    init = scenarios.init_machines

    def recording_init(model, *args):
        states = init(model, *args)
        after_init.append((model, model.solve_count, model.factor_count))
        return states

    monkeypatch.setattr(scenarios, "init_machines", recording_init)
    rows = run_bank(case, loading, contingencies, mode="locational")
    assert sum(r.status == "ok" for r in rows) > 2 * len(loading)
    assert len(after_init) == len(loading)
    for model, solves, factorizations in after_init:
        assert model.solve_count - solves == 2
        assert model.factor_count == factorizations


def test_run_bank_isolates_faults_within_one_batch(small_bank, monkeypatch):
    # an unknown machine, a loss of all inertia and a singular capacitance
    # matrix each fail only their own row, with the error a single screen
    # raises; every other row of the loading case equals the clean batch
    case, loading, contingencies = small_bank
    lc = loading[0]
    model, states = loading_case_model(case, lc)
    online = {c.id: frozenset(g for g in c.outaged_generator_ids
                              if g in lc.committed) for c in contingencies}
    screened = [c for c in contingencies if online[c.id]]

    def units_at(c, bus):
        return frozenset(g for g in online[c.id]
                         if case.generator(g).bus_id == bus)

    target, bus = next(
        (c, b) for c in screened
        for b in sorted({case.generator(g).bus_id for g in online[c.id]})
        if all(units_at(o, b) != units_at(c, b) for o in screened if o is not c))
    # the capacitance solve's right-hand side carries D, the removed Norton
    # shunts summed per bus in machine order; the target's D at this bus,
    # which no other contingency shares, marks the target's matrix
    marker = 0j
    for p in model.machine_positions(units_at(target, bus)):
        marker += -model.norton_y[p]
    solve = np.linalg.solve

    def singular_for_target(a, b):
        if np.any(np.asarray(b) == marker):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    wind = next(g.id for g in case.generators
                if not g.synchronous and g.id in lc.committed)
    unknown = Contingency("ctg_unknown", frozenset({wind}), 0.0)
    everything = Contingency("ctg_all", frozenset(
        g for g in lc.committed if case.generator(g).synchronous), 0.0)
    expected = {}
    with pytest.raises(KeyError) as err:
        locational_rocof(model, states, unknown)
    expected[unknown.id] = f"error: {err.value}"
    with pytest.raises(ZeroInertiaError) as err:
        locational_rocof(model, states, everything)
    expected[everything.id] = f"error: {err.value}"
    clean = run_bank(case, [lc], contingencies, mode="locational")

    monkeypatch.setattr(np.linalg, "solve", singular_for_target)
    with pytest.raises(SingularOutageError) as err:
        locational_rocof(model, states, Contingency(target.id, online[target.id]))
    expected[target.id] = f"error: {err.value}"
    mixed = run_bank(case, [lc], list(contingencies) + [unknown, everything],
                     mode="locational")
    assert {r.contingency_id: r.status for r in mixed
            if r.status.startswith("error")} == expected
    survivors = [record_fields(r) for r in mixed if r.contingency_id not in expected]
    assert survivors == [record_fields(r) for r in clean
                         if r.contingency_id != target.id]


HASHSEED_BANK = """
import sys
import numpy as np
from conftest import make_fleet_case
from rocofscreen import (dispatch_heuristic, generate_contingencies,
                         generate_loading_cases, run_bank)
fleet = make_fleet_case(1)
base = dispatch_heuristic(fleet, 50000.0, 15000.0)
contingencies = generate_contingencies(base, 40, np.random.default_rng(1))
loading = generate_loading_cases(fleet, 4, (15000.0, 75000.0),
                                 (10000.0, 30000.0))
run_bank(fleet, loading, contingencies, mode="system_only",
         out_path=sys.argv[1])
"""


def test_run_bank_table_independent_of_hash_seed(tmp_path):
    # MW lost sums over a set of unit ids; the table must not depend on
    # the order Python happens to iterate that set in
    root = Path(__file__).resolve().parents[1]
    tables = []
    for seed in ("1", "2"):
        out = tmp_path / f"bank-{seed}.csv"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(root / "src"),
                                               str(root / "tests")]))
        subprocess.run([sys.executable, "-c", HASHSEED_BANK, str(out)],
                       env=env, check=True, timeout=120)
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


def test_run_bank_system_only_matches_inertia_line(small_bank):
    case, loading, contingencies = small_bank
    records = run_bank(case, loading, contingencies, mode="system_only")
    by_lc = {}
    for r in records:
        by_lc.setdefault(r.loading_id, []).append(r)
    for lc in loading:
        h_mws = lc.online_inertia_gws * 1000.0
        for r in by_lc[lc.id]:
            if r.mw_lost > 0:
                assert r.system_rocof_hz_s == pytest.approx(
                    -60.0 * r.mw_lost / (2 * h_mws))
            assert math.isnan(r.bus_rocof_min)


def test_run_bank_monotone_within_loading_case(small_bank):
    # fixed denominator: bigger loss never gives a smaller-magnitude screen
    case, loading, contingencies = small_bank
    records = run_bank(case, loading, contingencies, mode="system_only")
    for lc in loading:
        rows = sorted((r for r in records if r.loading_id == lc.id),
                      key=lambda r: r.mw_lost)
        mags = [abs(r.system_rocof_hz_s) for r in rows]
        assert all(m2 >= m1 - 1e-12 for m1, m2 in zip(mags, mags[1:]))


def test_run_bank_mean_tracks_inertia_line(small_bank):
    # across one loading case's contingencies the mean-bus-ROCOF-vs-MW-lost
    # relationship stays within 10% of the inertia line (single scenarios
    # can deviate more when an outage removes a large inertia share)
    case, loading, contingencies = small_bank
    records = run_bank(case, loading[:1], contingencies, mode="locational")
    pts = [(r.mw_lost, r.bus_rocof_mean) for r in records
           if r.status == "ok" and r.mw_lost > 0]
    assert len(pts) >= 3
    mw = np.array([p[0] for p in pts])
    mean_rocof = np.array([p[1] for p in pts])
    fit_slope = float(mw @ mean_rocof / (mw @ mw))   # line through origin
    line_slope = -60.0 / (2.0 * loading[0].online_inertia_gws * 1000.0)
    assert abs(fit_slope - line_slope) <= 0.10 * abs(line_slope)


def test_run_bank_offline_units_recorded(small_bank):
    case, loading, contingencies = small_bank
    phantom = Contingency("ctg_zz", frozenset({"zzz_not_a_unit"}), 999.0)
    records = run_bank(case, loading[:1], list(contingencies) + [phantom],
                       mode="locational")
    row = [r for r in records if r.contingency_id == "ctg_zz"]
    assert len(row) == 1
    assert row[0].status == "no_online_units"
    assert row[0].mw_lost == 0.0


def test_run_bank_fault_isolation(small_bank, tmp_path):
    case, loading, contingencies = small_bank
    # a contingency tripping every committed machine leaves zero inertia:
    # its row records the failure, every other row is unchanged
    lc = loading[0]
    all_units = frozenset(g for g in lc.committed
                          if case.generator(g).synchronous)
    poison = Contingency("ctg_poison", all_units, 0.0)
    clean = run_bank(case, [lc], contingencies, mode="locational")
    mixed = run_bank(case, [lc], list(contingencies) + [poison],
                     mode="locational")
    bad = [r for r in mixed if r.contingency_id == "ctg_poison"]
    assert len(bad) == 1 and bad[0].status.startswith("error")
    survivors = [r for r in mixed if r.contingency_id != "ctg_poison"]
    assert [record_fields(r) for r in survivors] == [record_fields(r) for r in clean]


def test_run_bank_simulate_mode(case9):
    lc_case = case9  # tiny case: simulate mode is affordable
    disp = {g.id: g.p_mw for g in case9.generators}
    lc = LoadingCase("lc000", sum(l.p_mw for l in case9.loads), 0.0, disp,
                     frozenset(disp), total_inertia_gws(case9), 0.0)
    ctg = Contingency("ctg000", frozenset({"gen3"}), 85.0)
    records = run_bank(case9, [lc], [ctg], mode="simulate")
    assert len(records) == 1
    r = records[0]
    assert r.status == "ok"
    assert r.bus_rocof_min <= r.bus_rocof_mean <= r.bus_rocof_max
    # the finite-difference screen lands near the theoretical figure
    assert r.bus_rocof_mean == pytest.approx(-1.03, abs=0.15)


def case9_bank_with_failures(case9):
    """A 9-bus bank whose rows take every status: a normal loading case, one
    at eight times the load whose power flow fails, and contingencies that
    screen, lose all inertia, trip a committed unit the case lacks, or name
    no online unit."""
    disp = {g.id: g.p_mw for g in case9.generators}
    committed = frozenset(disp) | {"ghost"}
    load = sum(l.p_mw for l in case9.loads)
    inertia = total_inertia_gws(case9)
    loading = [LoadingCase("lc000", load, 0.0, disp, committed, inertia, 0.0),
               LoadingCase("lc001", 8 * load, 0.0,
                           {g: 8 * p for g, p in disp.items()}, committed,
                           inertia, 0.0)]
    contingencies = [Contingency.of("ctg000", ["gen2"]),
                     Contingency.of("ctg001", ["gen2", "gen3"]),
                     Contingency.of("ctg002", ["gen1", "gen2", "gen3"]),
                     Contingency.of("ctg003", ["ghost"]),
                     Contingency.of("ctg004", ["not_a_unit"])]
    return loading, contingencies


@pytest.mark.parametrize("mode", ["locational", "system_only", "simulate"])
def test_run_bank_table_is_the_table_of_its_records(case9, tmp_path, mode):
    # the rows run_bank streams to out_path are case_io's scenario table of
    # the records it returns, and read back to those records
    loading, contingencies = case9_bank_with_failures(case9)
    streamed, written = tmp_path / "streamed.csv", tmp_path / "written.csv"
    records = run_bank(case9, loading, contingencies, mode=mode,
                       out_path=streamed)
    write_scenario_table(records, written)
    assert streamed.read_bytes() == written.read_bytes()
    assert ([record_fields(r) for r in read_scenario_table(streamed)]
            == [record_fields(r) for r in records])
    statuses = {r.status.partition(":")[0] for r in records}
    expected = {"ok", "no_online_units"}
    if mode != "system_only":
        expected |= {"error", "loading case failed"}
    assert statuses == expected


def test_run_bank_unknown_mode_is_input_error(case9):
    loading, contingencies = case9_bank_with_failures(case9)
    with pytest.raises(InputError, match="unknown mode 'fast'"):
        run_bank(case9, loading, contingencies, mode="fast")


def test_full_scale_bank_shape(fleet_case):
    # the study-scale bank: 125 loading cases x 163 contingencies evaluates
    # to 20,375 rows (system mode keeps this cheap at full count)
    rng = np.random.default_rng(3)
    base = dispatch_heuristic(fleet_case, 50000.0, 15000.0)
    contingencies = generate_contingencies(base, 163, rng)
    sizes = np.array([c.total_mw_lost for c in contingencies])
    assert len(contingencies) == 163
    assert (sizes > 800.0).all()
    assert (sizes <= 2750.0).mean() >= 0.9
    loading = generate_loading_cases(fleet_case, 125, STUDY_LOAD_RANGE,
                                     STUDY_WIND_RANGE)
    records = run_bank(fleet_case, loading, contingencies, mode="system_only")
    assert len(records) == 125 * 163 == 20375
    keys = {(r.loading_id, r.contingency_id) for r in records}
    assert len(keys) == 20375
