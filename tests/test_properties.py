"""Properties checked on small generated networks rather than fixed cases."""

import dataclasses

import numpy as np
from hypothesis import example, given, settings, strategies as st

from rocofscreen import (Contingency, GridCase, SimOptions, build_model,
                         locational_rocof, locational_rocof_batch, simulate,
                         solve_powerflow)
from rocofscreen.case_model import (Branch, Bus, Generator, Load, LoadingCase,
                                    island_labels)
from rocofscreen.scenarios import _column_stats, finite_difference_rocof
from test_netdyn import (assert_builders_match_loops, assert_builds_match_stages,
                         loop_island_labels)
from test_powerflow import assert_newton_matches_reference
from test_scenarios import assert_arrays_build_the_records
from test_screen_reference import assert_same_screens
from test_rocof import (assert_cache_changes_no_bit, assert_matches_current_columns,
                        assert_matches_default_panel, assert_matches_plain_splu,
                        refactor_reference)
from test_swingsim import (assert_matches_four_solve_step, assert_matches_refactoring,
                           assert_matches_two_array_loop)


def network_case(n, branches, load_mw, machines) -> GridCase:
    """The case of n buses with these branches, load_mw[b - 1] at bus b and
    one machine (bus, s_base_mva, h_sec, xdp_pu) per entry of ``machines``,
    which share the load equally. The first machine's bus is the slack."""
    loads = [Load(id=f"ld{b}", bus_id=b, p_mw=p, q_mvar=0.3 * p)
             for b, p in enumerate(load_mw, start=1) if p > 0]
    share = sum(load_mw) / len(machines)
    gens = [Generator(id=f"m{k}", bus_id=b, s_base_mva=s, p_mw=share,
                      p_max_mw=100.0 + share, fuel="gas", h_sec=h, xdp_pu=x)
            for k, (b, s, h, x) in enumerate(machines)]
    kinds = {b: "pv" for b, *_ in machines}
    kinds[machines[0][0]] = "slack"
    buses = [Bus(id=b, kind=kinds.get(b, "pq"),
                 v_mag=1.02 if b in kinds else 1.0) for b in range(1, n + 1)]
    return GridCase(s_base_mva=100.0, name="generated", buses=tuple(buses),
                    generators=tuple(gens), loads=tuple(loads),
                    branches=tuple(branches))


@st.composite
def networks(draw):
    """A connected network of 3-8 buses (a random tree plus up to three
    chords) with 2-5 machines, some sharing a bus, and light loads, so the
    power flow is benign (network_case)."""
    n = draw(st.integers(3, 8))
    reactance = st.floats(0.01, 0.06)
    branches = []
    for b in range(2, n + 1):
        x = draw(reactance)
        branches.append(Branch(draw(st.integers(1, b - 1)), b, x / 10, x, 0.02))
    for f, t in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                              max_size=3)):
        if f != t:
            x = draw(reactance)
            branches.append(Branch(f, t, x / 10, x, 0.02))

    load_mw = draw(st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n))
    machine_bus = draw(st.lists(st.integers(1, n), min_size=2, max_size=5))
    case = network_case(n, branches, load_mw, [
        (b, draw(st.floats(100.0, 400.0)), draw(st.floats(2.0, 8.0)),
         draw(st.floats(0.15, 0.35))) for b in machine_bus])
    outaged = draw(st.permutations([g.id for g in case.generators]))
    k_out = draw(st.integers(1, min(3, len(machine_bus) - 1)))
    return case, outaged[:k_out]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks())
def test_build_model_matches_the_stages_on_generated_networks(drawn):
    assert_builds_match_stages(drawn[0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks(), st.data())
def test_bank_arrays_build_the_bits_of_dispatched_records_on_generated_networks(
        drawn, data):
    # a random commitment and dispatch, which may name a unit the case
    # lacks or one out of service, leave every machine out or find no load
    # to scale, of units some of which are converters whose reactive
    # output the dispatch zeroes, which shows at a pq bus
    case, _ = drawn
    mostly = st.sampled_from([True, True, True, False])
    units = [dataclasses.replace(g, synchronous=data.draw(mostly),
                                 status=data.draw(mostly),
                                 q_mvar=data.draw(st.floats(1.0, 20.0)))
             for g in case.generators]
    buses = [dataclasses.replace(b, kind="pq")
             if b.kind == "pv" and data.draw(st.booleans()) else b
             for b in case.buses]
    case = case.with_generators(units).with_buses(buses)
    ids = [g.id for g in case.generators] + ["ghost"]
    committed = [g for g in ids if data.draw(mostly)]
    dispatch = {g: data.draw(st.floats(0.0, 60.0)) for g in committed}
    load_mw = data.draw(st.floats(0.0, 1.5)) * sum(l.p_mw for l in case.loads)
    assert_arrays_build_the_records(case, LoadingCase(
        "lc", load_mw, 0.0, dispatch, frozenset(committed), 0.0, 0.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks())
def test_compensation_equals_refactoring_on_generated_networks(drawn):
    case, outaged = drawn
    _, model, states = build_model(case)
    null = locational_rocof(model, states, Contingency.of("null", []))
    assert np.all(np.abs(null.bus_rocof_hz_s) < 1e-9)

    ctg = Contingency.of("c", outaged)
    res = locational_rocof(model, states, ctg)
    rocof, _, _, _ = refactor_reference(model, states, ctg)
    assert not np.isnan(rocof).any()
    np.testing.assert_allclose(res.bus_rocof_hz_s, rocof, rtol=0, atol=1e-9)
    assert res.n_solves == 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks())
def test_voltage_start_matches_current_columns_on_generated_networks(drawn):
    # solve 1 from the states' voltages against the path with one current
    # column per contingency, singly and as a batch with an unknown machine
    case, outaged = drawn
    _, model, states = build_model(case)
    assert_matches_current_columns(model, states, [
        Contingency.of("c", outaged), Contingency.of("one", outaged[:1]),
        Contingency.of("unknown", ["nope"]), Contingency.of("null", [])])


# the draws seldom put three machines on one bus; here three, lost
# together, sum their Norton currents at bus 2
THREE_ON_ONE_BUS = (network_case(
    3, [Branch(1, 2, 0.0023, 0.023, 0.02), Branch(2, 3, 0.0041, 0.041, 0.02),
        Branch(1, 3, 0.0017, 0.017, 0.02)], [0.0, 13.7, 6.1],
    [(1, 250.0, 5.0, 0.3), (2, 117.3, 2.9, 0.171), (2, 389.1, 7.3, 0.327),
     (2, 203.9, 4.1, 0.243)]), ("m1", "m2", "m3"))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks())
@example(THREE_ON_ONE_BUS)
def test_screen_matches_frozen_reference_on_generated_networks(drawn):
    # machines share buses here, so a bus can sum several lost machines, up
    # to four when all but one are lost; losing every machine leaves no
    # inertia and a dead island
    case, outaged = drawn
    _, model, states = build_model(case)
    units = model.machine_ids
    assert_same_screens(model, states, [
        Contingency.of("c", outaged), Contingency.of("one", outaged[:1]),
        Contingency.of("rest", units[1:]), Contingency.of("all", units),
        Contingency.of("null", []), Contingency.of("unknown", ["nope"])])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks())
def test_cached_unit_columns_change_no_bit_on_generated_networks(drawn):
    # losses that share buses, so later screens read columns that earlier
    # ones solved, and the empty loss
    case, outaged = drawn
    assert_cache_changes_no_bit(case, [
        Contingency.of("one", outaged[:1]), Contingency.of("c", outaged),
        Contingency.of("rest", outaged[1:]), Contingency.of("null", [])])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks())
def test_symmetric_ordering_matches_plain_splu_on_generated_networks(drawn):
    case, outaged = drawn
    assert_matches_plain_splu(case, [Contingency.of("c", outaged),
                                     Contingency.of("one", outaged[:1])])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks())
def test_panel_size_1_matches_default_panel_on_generated_networks(drawn):
    case, outaged = drawn
    assert_matches_default_panel(case, [Contingency.of("c", outaged),
                                        Contingency.of("one", outaged[:1])])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks())
def test_simulator_agrees_with_screen_on_generated_networks(drawn):
    # criterion 2: the simulator's finite-difference ROCOF just after the
    # loss matches the two-solve screen within max(10%, 0.02 Hz/s) on every
    # bus with a defined ROCOF
    case, outaged = drawn
    _, model, states = build_model(case)
    ctg = Contingency.of("c", outaged)
    sim = simulate(model, states.copy(), ctg,
                   SimOptions(t_end=0.25, dt=1 / 200, shedding=False))
    res = locational_rocof(model, states, ctg)
    defined = ~np.isnan(res.bus_rocof_hz_s)
    screen = res.bus_rocof_hz_s[defined]
    fd = finite_difference_rocof(sim)[defined]
    assert np.all(np.abs(fd - screen) <= np.maximum(0.1 * np.abs(screen), 0.02))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks())
def test_machine_bus_block_matches_four_solve_step_on_generated_networks(drawn):
    # the base network before the event, the outage's after it
    case, outaged = drawn
    _, model, states = build_model(case)
    used = assert_matches_four_solve_step(
        model, states, Contingency.of("c", outaged), SimOptions(t_end=0.5))
    assert used == 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks())
def test_simulator_compensation_matches_refactoring_on_generated_networks(drawn):
    # the outage applied to the base factorization against the outage
    # network factored, machines sharing a bus included
    case, outaged = drawn
    _, model, states = build_model(case)
    assert_matches_refactoring(model, states, Contingency.of("c", outaged),
                               SimOptions(t_end=0.5))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks())
def test_stacked_state_matches_two_array_loop_on_generated_networks(drawn):
    # the outaged machines' zeroed rates leave their columns as np.where did
    case, outaged = drawn
    assert_matches_two_array_loop(case, Contingency.of("c", outaged),
                                  SimOptions(t_end=0.5))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks())
def test_doubling_inertia_halves_rocof(drawn):
    case, outaged = drawn
    ctg = Contingency.of("c", outaged)
    res = locational_rocof(*build_model(case)[1:], ctg)
    heavy = case.with_generators([dataclasses.replace(g, h_sec=2.0 * g.h_sec)
                                  for g in case.generators])
    res2 = locational_rocof(*build_model(heavy)[1:], ctg)
    np.testing.assert_allclose(res2.bus_rocof_hz_s, res.bus_rocof_hz_s / 2.0,
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(res2.system_rocof_hz_s,
                               res.system_rocof_hz_s / 2.0, rtol=1e-12, atol=0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks(), st.data())
def test_bus_relabelling_leaves_rocof_and_worst_bus(drawn, data):
    # listing the buses in another order changes only the rounding, so
    # every bus keeps its ROCOF and the worst bus stays the same bus
    case, outaged = drawn
    order = data.draw(st.permutations(case.buses))
    ctg = Contingency.of("c", outaged)
    results = [locational_rocof(*build_model(c)[1:], ctg)
               for c in (case, dataclasses.replace(case, buses=tuple(order)))]
    by_id = [dict(zip(r.bus_ids, r.bus_rocof_hz_s)) for r in results]
    for bus in by_id[0]:
        assert abs(by_id[1][bus] - by_id[0][bus]) <= 1e-9
    worst = [_column_stats(r.bus_rocof_hz_s[None, :], r.bus_ids)[3][0]
             for r in results]
    assert worst[0] == worst[1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks(), st.floats(0.1, 10.0))
def test_system_base_leaves_voltages_rocof_and_worst_bus(drawn, k):
    # rebasing scales every per-unit power and admittance by 1/k, so the
    # solved voltages, each bus ROCOF in Hz/s and the worst bus stay put
    case, outaged = drawn
    rebased = dataclasses.replace(
        case, s_base_mva=case.s_base_mva * k,
        branches=tuple(dataclasses.replace(br, r_pu=br.r_pu * k,
                                           x_pu=br.x_pu * k, b_pu=br.b_pu / k)
                       for br in case.branches))
    voltages = [solve_powerflow(c).v for c in (case, rebased)]
    assert np.max(np.abs(voltages[1] - voltages[0])) <= 1e-9
    ctg = Contingency.of("c", outaged)
    results = [locational_rocof(*build_model(c)[1:], ctg) for c in (case, rebased)]
    np.testing.assert_allclose(results[1].bus_rocof_hz_s,
                               results[0].bus_rocof_hz_s, rtol=0, atol=1e-9)
    worst = [_column_stats(r.bus_rocof_hz_s[None, :], r.bus_ids)[3][0]
             for r in results]
    assert worst[0] == worst[1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks())
def test_fixed_pattern_newton_matches_rebuilt_jacobian(drawn):
    assert_newton_matches_reference(drawn[0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks(), st.data())
def test_vectorized_builders_match_record_loops_on_generated_networks(drawn, data):
    # taps off 1 (0 for none), chords out of service, units other than the
    # slack's made non-synchronous, and voltages drawn per bus; island
    # labels also with tree branches out of service
    case, _ = drawn
    n, m = len(case.buses), len(case.branches)
    tree = n - 1                  # networks() lists the tree's branches first
    taps = data.draw(st.lists(st.one_of(st.just(1.0), st.just(0.0),
                                        st.floats(0.9, 1.1)), min_size=m, max_size=m))
    live = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
    sync = [True] + data.draw(st.lists(st.booleans(), min_size=len(case.generators) - 1,
                                       max_size=len(case.generators) - 1))
    v_mag = data.draw(st.lists(st.floats(0.9, 1.1), min_size=n, max_size=n))
    v_ang = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n))
    cut = dataclasses.replace(case, branches=tuple(
        dataclasses.replace(br, status=on) for br, on in zip(case.branches, live)))
    assert np.array_equal(island_labels(cut), loop_island_labels(cut))
    case = dataclasses.replace(
        case,
        branches=tuple(dataclasses.replace(br, tap_ratio=t, status=k < tree or on)
                       for k, (br, t, on) in enumerate(zip(case.branches, taps, live))),
        generators=tuple(dataclasses.replace(g, synchronous=s)
                         for g, s in zip(case.generators, sync)))
    assert_builders_match_loops(case, v_mag, v_ang)


@st.composite
def banks(draw):
    """One or two islands, each a random tree with light loads and 1-4
    machines (some sharing a bus, a slack at the first machine's bus), and
    a bank of contingencies for it: the empty one, random machine subsets
    that leave some machine in service, and, with two islands, the loss of
    every machine of the second one (a dead island)."""
    sizes = [draw(st.integers(2, 5))] + draw(st.lists(st.integers(1, 3),
                                                      max_size=1))
    reactance = st.floats(0.01, 0.06)
    buses, branches, loads, gens, islands = [], [], [], [], []
    first = 1
    for size in sizes:
        ids = list(range(first, first + size))
        for b in ids[1:]:
            x = draw(reactance)
            branches.append(Branch(draw(st.sampled_from(ids[:b - first])), b,
                                   x / 10, x, 0.02))
        load_mw = draw(st.lists(st.floats(0.0, 20.0), min_size=size,
                                max_size=size))
        loads += [Load(id=f"ld{b}", bus_id=b, p_mw=p, q_mvar=0.3 * p)
                  for b, p in zip(ids, load_mw) if p > 0]
        machine_bus = draw(st.lists(st.sampled_from(ids), min_size=1,
                                    max_size=4 if first == 1 else 2))
        if first == 1 and len(machine_bus) < 2:
            machine_bus.append(ids[-1])
        share = sum(load_mw) / len(machine_bus)
        island = []
        for b in machine_bus:
            gid = f"m{len(gens)}"
            gens.append(Generator(
                id=gid, bus_id=b, s_base_mva=draw(st.floats(100.0, 400.0)),
                p_mw=share, p_max_mw=100.0 + share, fuel="gas",
                h_sec=draw(st.floats(2.0, 8.0)),
                xdp_pu=draw(st.floats(0.15, 0.35))))
            island.append(gid)
        islands.append(island)
        kinds = {b: "pv" for b in machine_bus}
        kinds[machine_bus[0]] = "slack"
        buses += [Bus(id=b, kind=kinds.get(b, "pq"),
                      v_mag=1.02 if b in kinds else 1.0) for b in ids]
        first += size
    case = GridCase(s_base_mva=100.0, name="generated", buses=tuple(buses),
                    generators=tuple(gens), loads=tuple(loads),
                    branches=tuple(branches))
    everyone = [g.id for g in gens]
    outages = [[]] + draw(st.lists(
        st.lists(st.sampled_from(everyone), min_size=1, max_size=3,
                 unique=True).filter(lambda ids: len(ids) < len(everyone)),
        min_size=1, max_size=5))
    if len(islands) > 1:
        outages.append(islands[1])
    return case, outages


@settings(max_examples=30, deadline=None, derandomize=True)
@given(banks())
def test_batch_equals_refactoring_per_contingency(drawn):
    # one batch over the whole bank gives each contingency's refactored
    # screen: outages sharing a bus, dead islands and the empty contingency
    case, outages = drawn
    _, model, states = build_model(case)
    ctgs = [Contingency.of(f"c{j}", ids) for j, ids in enumerate(outages)]
    batch = locational_rocof_batch(model, states, ctgs)
    # solve 1 is for the lost machines' buses in islands that keep a
    # machine, so a bank whose every loss kills its island makes none
    island = dict(zip(model.machine_ids, model.machine_islands))
    live_loss = any(island[g] == island[h] for ids in outages for g in ids
                    for h in model.machine_ids if h not in ids)
    assert batch.n_solves == 1 + live_loss
    assert batch.bus_rocof_hz_s.shape == (model.n_bus, len(ctgs))
    for j, ctg in enumerate(ctgs):
        assert batch.errors[j] is None
        rocof, v, wdot, islands = refactor_reference(model, states, ctg)
        got = batch.bus_rocof_hz_s[:, j]
        assert np.array_equal(np.isnan(got), np.isnan(rocof))
        np.testing.assert_allclose(got, rocof, rtol=0, atol=1e-9)
        np.testing.assert_allclose(batch.post_disturbance_voltages[:, j], v,
                                   rtol=0, atol=1e-9)
        assert np.array_equal(np.isnan(batch.machine_accel[:, j]),
                              np.isnan(wdot))
        assert batch.undefined_islands[j] == islands
