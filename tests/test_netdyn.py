import cmath
import dataclasses
import math
import re

import numpy as np
import pytest

import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rocofscreen import (PowerFlowSolution, augment_dynamic, build_model,
                         build_ybus, electrical_torque, init_machines, netdyn,
                         solve_powerflow)
from rocofscreen.case_model import (Branch, Bus, Generator, GridCase, Load,
                                    UnknownIdError, island_labels)
from rocofscreen.netdyn import ModelBuildError, SingularNetworkError
from rocofscreen.powerflow import SUPERLU_OPTIONS, bus_injections
from rocofscreen.rocof import injection_derivatives
from rocofscreen.scenarios import apply_loading_case, generate_loading_cases
from conftest import currents, tiny_case
from test_rocof import groundless_island_case, two_island_case


def pair_case(**branch_kw):
    kw = dict(r_pu=0.0, x_pu=0.1, b_pu=0.0, tap_ratio=1.0)
    kw.update(branch_kw)
    return GridCase(
        buses=(Bus(id=1, kind="slack"), Bus(id=2)),
        generators=(Generator(id="g1", bus_id=1, s_base_mva=100.0,
                              p_max_mw=100.0, h_sec=3.0, xdp_pu=0.2),),
        branches=(Branch(from_bus=1, to_bus=2, **kw),),
    )


def test_ybus_single_branch_stamp():
    y = build_ybus(pair_case()).toarray()
    assert y[0, 0] == pytest.approx(-10j)   # diag +1/z
    assert y[1, 1] == pytest.approx(-10j)
    assert y[0, 1] == pytest.approx(10j)    # off-diag -1/z
    assert y[1, 0] == pytest.approx(10j)


def test_ybus_charging_splits_to_diagonals():
    y = build_ybus(pair_case(b_pu=0.2)).toarray()
    assert y[0, 0] == pytest.approx(-10j + 0.1j)
    assert y[1, 1] == pytest.approx(-10j + 0.1j)
    assert y[0, 1] == pytest.approx(10j)


def test_ybus_off_nominal_tap():
    t = 1.05
    y = build_ybus(pair_case(tap_ratio=t)).toarray()
    ys = 1 / 0.1j
    assert y[0, 0] == pytest.approx(ys / t**2)   # from side scaled 1/t^2
    assert y[1, 1] == pytest.approx(ys)
    assert y[0, 1] == pytest.approx(-ys / t)


def test_ybus_zero_impedance_branch():
    with pytest.raises(ModelBuildError, match="zero impedance"):
        build_ybus(pair_case(r_pu=0.0, x_pu=0.0))


def test_ybus_names_a_missing_bus():
    case = pair_case()
    case = dataclasses.replace(case, branches=case.branches + (Branch(2, 99, 0.0, 0.1),))
    with pytest.raises(UnknownIdError, match="no bus with id 99"):
        build_ybus(case)
    # an out-of-service branch is not read
    off = dataclasses.replace(case.branches[-1], status=False)
    build_ybus(dataclasses.replace(case, branches=case.branches[:1] + (off,)))


def test_factor_count_counts_each_splu(case9):
    # a model is factored once, at build; initialization and the
    # machine-bus block reuse that factorization (the screen and the
    # simulator count theirs in test_rocof and test_swingsim)
    model = build_model(case9)[1]
    assert model.factor_count == 1
    assert model.factorize() is model.factorize()
    model.machine_bus_block()
    assert model.factor_count == 1


def test_machine_bus_block_is_gathered_from_the_store(fleet_case):
    # the block's columns are the stored rows of the machine buses, read
    # at each call: one solve for the first, none after
    model = build_model(fleet_case)[1]
    solves = model.solve_count
    block = model.machine_bus_block()
    m_bus = np.unique(model.machine_bus)
    assert model.solve_count - solves == 1 and set(model._unit) == set(m_bus.tolist())
    assert "_block" not in {f.name for f in dataclasses.fields(model)}
    inverse = np.linalg.inv(model.y_dyn.toarray())
    np.testing.assert_allclose(block, inverse[np.ix_(m_bus, model.machine_bus)],
                               rtol=0, atol=1e-10)
    again = model.machine_bus_block()
    assert model.solve_count - solves == 1 and again is not block
    assert np.array_equal(again, block)
    for b in (block, again):
        assert b.flags.f_contiguous and not b.flags.writeable


def test_responses_are_the_stored_blocks(case9):
    # a lookup hands out the store's own read-only blocks, no copy: the
    # same objects again, in the order asked, whose first row is the unit
    # column
    _, model, states = build_model(case9)
    buses = np.unique(model.machine_bus)[:2]
    blocks, r0 = model.responses(states, buses)
    solves = model.solve_count
    again, _ = model.responses(states, buses[::-1])
    assert model.solve_count == solves and r0 is None
    assert [id(b) for b in again] == [id(b) for b in blocks[::-1]]
    for b, block in zip(buses, blocks):
        assert block.shape == (3, model.n_bus) and not block.flags.writeable
        with pytest.raises(ValueError):
            block[1, 0] = 0.0
        assert np.shares_memory(block, model._unit[int(b)])
        assert np.array_equal(block[0], model.unit_columns([b])[0])


def test_models_and_states_compare_by_identity(case9):
    # their array fields have no single truth value, so equality is identity
    sol, model, states = build_model(case9)
    twin = augment_dynamic(sol.ybus, case9, sol)
    assert model == model and model != twin
    assert states == states and states != states.copy()
    assert len({model, twin, states}) == 3


def test_load_shunt_at_nominal_voltage():
    case = tiny_case(load_mw=100.0, xdp_sys=0.1)
    model = build_model(case)[1]
    # y_dyn diagonal = load shunt (1.0) + machine Norton (1/(j 0.1))
    assert model.y_dyn[0, 0] == pytest.approx(1.0 - 10j)
    assert model.load_shunt[0] == pytest.approx(1.0 + 0j)


def test_load_shunt_scales_with_voltage():
    case = tiny_case(load_mw=90.25, xdp_sys=0.1)
    case = case.with_buses([dataclasses.replace(case.buses[0], v_mag=0.95)])
    model = build_model(case)[1]
    assert model.load_shunt[0] == pytest.approx(1.0 + 0j)  # 0.9025/0.95^2


def test_norton_shunt_base_conversion(case9):
    # xdp 0.25 on a 500 MVA machine, system base 100 -> x_sys 0.05 -> -20j
    gens = [dataclasses.replace(g, s_base_mva=500.0, xdp_pu=0.25)
            if g.id == "gen1" else g for g in case9.generators]
    case = case9.with_generators(gens)
    model = build_model(case)[1]
    k = model.machine_ids.index("gen1")
    assert model.xdp_sys[k] == pytest.approx(0.05)
    assert model.norton_y[k] == pytest.approx(-20j)


def test_norton_count_matches_fleet(case9, fleet_case):
    for case in (case9, fleet_case):
        model = build_model(case)[1]
        expect = sum(1 for g in case.generators if g.status and g.synchronous)
        assert len(model.machine_ids) == expect


def test_wind_is_negative_load_shunt():
    case = tiny_case(load_mw=100.0, xdp_sys=0.1)
    gens = case.generators + (Generator(
        id="w1", bus_id=1, s_base_mva=50.0, p_mw=20.0, p_max_mw=50.0,
        fuel="wind", synchronous=False),)
    case = case.with_generators(gens)
    case = case.with_generators(
        [dataclasses.replace(case.generators[0], p_mw=80.0)]
        + list(case.generators[1:]))
    model = build_model(case)[1]
    # diagonal: load 1.0, wind -0.2, Norton -10j
    assert model.y_dyn[0, 0] == pytest.approx(0.8 - 10j)
    assert model.machine_ids == ["g1"]  # wind contributes no machine


def test_missing_dynamics_blocks_model(case9):
    gens = [dataclasses.replace(g, h_sec=None) if g.id == "gen2" else g
            for g in case9.generators]
    case = case9.with_generators(gens)
    sol = solve_powerflow(case)
    with pytest.raises(ModelBuildError, match="gen2"):
        augment_dynamic(sol.ybus, case, sol)


def test_init_no_load_machine():
    case = tiny_case(load_mw=0.0, xdp_sys=0.1)
    sol, model, _ = build_model(case)
    states = init_machines(model, case, sol)
    assert states.e_prime[0] == pytest.approx(1.0)
    assert states.delta[0] == pytest.approx(0.0)
    assert currents(model, states)[0] == pytest.approx(10 * cmath.exp(-1j * math.pi / 2))
    assert states.t_m[0] == pytest.approx(0.0, abs=1e-12)
    te = electrical_torque(model, currents(model, states), sol.v[model.machine_bus])
    assert te[0] == pytest.approx(0.0, abs=1e-12)


def test_init_loaded_machine_emf():
    # S = 1.0 pu at V = 1.0 /_0 with x'd = 0.1: E' = 1 + 0.1j
    case = tiny_case(load_mw=100.0, xdp_sys=0.1)
    sol, model, _ = build_model(case)
    states = init_machines(model, case, sol)
    e = cmath.rect(states.e_prime[0], states.delta[0])
    assert e == pytest.approx(1.0 + 0.1j, rel=1e-9)
    assert states.e_prime[0] == pytest.approx(abs(complex(1.0, 0.1)))
    assert states.delta[0] == pytest.approx(math.atan2(0.1, 1.0))
    # steady-state identity: T_e equals dispatched power (machine base = system base)
    assert states.t_m[0] == pytest.approx(1.0, rel=1e-9)


def test_reconstruction_on_nine_bus(solved9):
    case, sol, model, states = solved9
    rhs = model.to_buses(currents(model, states))
    v = model.factorize().solve(rhs)
    assert np.max(np.abs(v - sol.v)) < 1e-8


def test_states_keep_the_reconstruction_voltages(solved9, fleet_case):
    # the voltages init_machines solves for its check, kept bit for bit
    case, sol, model, states = solved9
    v = model.factorize().solve(model.to_buses(currents(model, states)))
    assert np.array_equal(states.v_bus, v)
    _, fleet, fleet_states = build_model(fleet_case)
    assert np.array_equal(fleet_states.v_bus, fleet.factorize().solve(
        fleet.to_buses(currents(fleet, fleet_states))))


def test_states_keep_the_norton_currents(solved9):
    # computed once, at initialization, with the bits the screen used to
    # recompute on every call, and copied with the states
    case, sol, model, states = solved9
    assert np.array_equal(states.currents, currents(model, states))
    wdot = np.array([0.3, -1.7, 0.0])
    assert np.array_equal(states.di_ddelta * wdot,
                          injection_derivatives(states.currents, states.delta, wdot))
    twin = states.copy()
    twin.currents[:] = 0.0
    twin.di_ddelta[:] = 0.0
    assert np.array_equal(states.currents, currents(model, states))
    assert np.array_equal(states.di_ddelta * wdot,
                          injection_derivatives(states.currents, states.delta, wdot))


def test_states_copy_has_its_own_voltages(solved9):
    case, sol, model, states = solved9
    twin = states.copy()
    assert np.array_equal(twin.v_bus, states.v_bus)
    twin.v_bus[:] = 0.0
    assert np.array_equal(states.v_bus, model.factorize().solve(
        model.to_buses(currents(model, states))))


def test_machine_base_torque_scaling(solved9):
    case, sol, model, states = solved9
    te = electrical_torque(model, currents(model, states), sol.v[model.machine_bus])
    for k, gid in enumerate(model.machine_ids):
        g = case.generator(gid)
        assert te[k] * g.s_base_mva == pytest.approx(g.p_mw, rel=1e-6)


def test_power_balance_after_outage(solved9):
    case, sol, model, states = solved9
    k_out = model.machine_ids.index("gen2")
    active = np.ones(len(model.machine_ids), dtype=bool)
    active[k_out] = False
    y_mod = model.y_with_diag_update(
        model.machine_bus[[k_out]], -model.norton_y[[k_out]])
    i_mach = currents(model, states)
    v = spla.splu(y_mod, **SUPERLU_OPTIONS).solve(
        model.to_buses(np.where(active, i_mach, 0.0)))
    te = np.where(active, electrical_torque(model, i_mach, v[model.machine_bus]), 0.0)
    machine_mw = float(np.sum(te * model.s_mach))
    # passive power with the outaged Norton shunt removed from the matrix
    i_passive = y_mod @ v
    p = float(np.sum(v * np.conj(i_passive)).real)
    vb = v[model.machine_bus[active]]
    p -= float(np.sum((vb * np.conj(model.norton_y[active] * vb)).real))
    assert machine_mw / case.s_base_mva == pytest.approx(p, abs=1e-6)


def passive_network_power(model, voltages):
    """Active power absorbed by branches plus load/non-synchronous shunts,
    system-base pu. Machine Norton shunts (lossless) are netted out, so this
    equals total machine electrical output at any consistent (I, V) pair."""
    i_all = model.y_dyn @ voltages
    p_total = float(np.sum(voltages * np.conj(i_all)).real)
    vb = voltages[model.machine_bus]
    p_norton = float(np.sum((vb * np.conj(model.norton_y * vb)).real))
    return p_total - p_norton


def test_passive_power_equals_machine_output(solved9):
    case, sol, model, states = solved9
    i_mach = currents(model, states)
    v = model.factorize().solve(model.to_buses(i_mach))
    te = electrical_torque(model, i_mach, v[model.machine_bus])
    total_machine = float(np.sum(te * model.s_mach)) / case.s_base_mva
    assert passive_network_power(model, v) == pytest.approx(total_machine, abs=1e-6)


def test_diag_update_adds_repeated_buses_in_order(solved9, fleet_case):
    """Bit for bit what a dense matrix gets when each delta is added to its
    diagonal in the given order: a bus that repeats (two lost units, or a
    unit and a shed load) must not get its deltas summed first."""
    rng = np.random.default_rng(6)
    for model in (solved9[2], build_model(fleet_case)[1]):
        before = model.y_dyn.copy()
        for _ in range(20):
            k = int(rng.integers(2, 9))
            bus_pos = rng.integers(0, model.n_bus, size=k)
            bus_pos[-1] = bus_pos[0]                    # at least one repeat
            delta = rng.normal(size=k) + 1j * rng.normal(size=k)
            dense = model.y_dyn.toarray()
            for b, d in zip(bus_pos, delta):
                dense[b, b] += d
            y = model.y_with_diag_update(bus_pos, delta)
            assert np.array_equal(y.toarray(), dense)
            # same stored pattern, so a refactor orders it as before
            assert np.array_equal(y.indptr, model.y_dyn.indptr)
            assert np.array_equal(y.indices, model.y_dyn.indices)
        assert (model.y_dyn != before).nnz == 0


# The per-record loops that build_ybus, island_labels, bus_injections and
# augment_dynamic replaced, kept as the reference their arrays must equal
# bit for bit.

def loop_ybus(case):
    idx = case.bus_index()
    n = len(case.buses)
    rows, cols, data = [], [], []
    for br in case.branches:
        if not br.status:
            continue
        z = complex(br.r_pu, br.x_pu)
        ys = 1.0 / z
        bc = 0.5j * br.b_pu
        t = br.tap_ratio if br.tap_ratio else 1.0
        i, j = idx[br.from_bus], idx[br.to_bus]
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        data += [(ys + bc) / t**2, ys + bc, -ys / t, -ys / t]
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n), dtype=complex).tocsc()


def loop_island_labels(case):
    from scipy.sparse.csgraph import connected_components
    idx = case.bus_index()
    n = len(case.buses)
    rows, cols = [], []
    for br in case.branches:
        if br.status and br.from_bus in idx and br.to_bus in idx:
            rows.append(idx[br.from_bus])
            cols.append(idx[br.to_bus])
    adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return connected_components(adj, directed=False)[1]


def loop_bus_injections(case):
    idx = case.bus_index()
    s = np.zeros(len(case.buses), dtype=complex)
    for g in case.generators:
        if g.status:
            s[idx[g.bus_id]] += complex(g.p_mw, g.q_mvar)
    for l in case.loads:
        s[idx[l.bus_id]] -= complex(l.p_mw, l.q_mvar)
    return s / case.s_base_mva


def loop_solved_generator_powers(case, ybus, solution):
    idx = case.bus_index()
    v = solution.v
    s_bus = v * np.conj(ybus @ v)
    for l in case.loads:
        s_bus[idx[l.bus_id]] += complex(l.p_mw, l.q_mvar) / case.s_base_mva
    by_bus = {}
    for g in case.generators:
        if g.status:
            by_bus.setdefault(idx[g.bus_id], []).append(g)
    out = {}
    for b, members in by_bus.items():
        base = np.array([g.s_base_mva for g in members])
        w_all = base / base.sum()
        sync = np.array([g.synchronous for g in members])
        w_sync = np.where(sync, base, 0.0)
        w_sync = w_sync / w_sync.sum() if w_sync.sum() > 0 else w_all
        disp = np.array([g.p_mw for g in members]) / case.s_base_mva
        surplus = s_bus[b].real - disp.sum()
        p = disp + surplus * w_sync
        q = s_bus[b].imag * w_all
        for j, g in enumerate(members):
            out[g.id] = complex(p[j], q[j])
    return out


def loop_model_products(ybus, case, solution):
    """augment_dynamic's loops: the load shunts, the machines' solved
    outputs and y_dyn."""
    idx = case.bus_index()
    v = solution.v
    diag = np.zeros(len(case.buses), dtype=complex)
    solved_s = loop_solved_generator_powers(case, ybus, solution)
    load_shunt = []
    for l in case.loads:
        b = idx[l.bus_id]
        s_pu = complex(l.p_mw, l.q_mvar) / case.s_base_mva
        y = np.conj(s_pu) / abs(v[b]) ** 2
        diag[b] += y
        load_shunt.append(y)
    s_solved = []
    for g in case.generators:
        if not g.status:
            continue
        b = idx[g.bus_id]
        if not g.synchronous:
            diag[b] += -np.conj(solved_s[g.id]) / abs(v[b]) ** 2
            continue
        x_sys = g.xdp_pu * case.s_base_mva / g.s_base_mva
        s_solved.append(solved_s[g.id])
        diag[b] += 1.0 / (1j * x_sys)
    y_dyn = (ybus + sp.diags(diag, format="csc", dtype=complex)).tocsc()
    y_dyn.sort_indices()
    return (np.array(load_shunt, dtype=complex), np.array(s_solved, dtype=complex),
            y_dyn)


def assert_same_bits(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


def staged_build(case):
    """The public stages that build_model joins, on the case's own Y-bus."""
    sol = solve_powerflow(case)
    model = augment_dynamic(build_ybus(case), case, sol)
    return sol, model, init_machines(model, case, sol)


def assert_builds_match_stages(case, network=None):
    """build_model of the case on the given branch network has the bits of
    staged_build: solution, y_dyn, solved machine outputs, state arrays."""
    sol, model, states = build_model(case, network)
    ref_sol, ref_model, ref_states = staged_build(case)
    for name in ("v_mag", "v_ang", "iterations", "max_mismatch_pu"):
        assert_same_bits(getattr(sol, name), getattr(ref_sol, name))
    for part in ("data", "indices", "indptr"):
        assert_same_bits(getattr(model.y_dyn, part), getattr(ref_model.y_dyn, part))
    assert_same_bits(model.s_solved, ref_model.s_solved)
    for f in dataclasses.fields(states):
        assert_same_bits(getattr(states, f.name), getattr(ref_states, f.name))


def assert_builders_match_loops(case, v_mag, v_ang):
    """The Y-bus, island labels and injections of the case, and the load
    shunts, machine outputs and y_dyn of the solution with the given
    voltages, equal their record loops' bit for bit."""
    ybus, ref = build_ybus(case), loop_ybus(case)
    for part in ("indptr", "indices", "data"):
        assert_same_bits(getattr(ybus, part), getattr(ref, part))
    assert_same_bits(island_labels(case), loop_island_labels(case))
    assert_same_bits(bus_injections(case), loop_bus_injections(case))

    solution = PowerFlowSolution([b.id for b in case.buses], np.asarray(v_mag),
                                 np.asarray(v_ang), 0, 0.0, ybus)
    model = augment_dynamic(ybus, case, solution)
    load_shunt, s_solved, y_dyn = loop_model_products(ref, case, solution)
    assert_same_bits(model.load_shunt, load_shunt)
    assert_same_bits(model.s_solved, s_solved)
    for part in ("indptr", "indices", "data"):
        assert_same_bits(getattr(model.y_dyn, part), getattr(y_dyn, part))


def test_singular_network_names_the_island_with_no_machine_and_no_shunt():
    # SuperLU's "Factor is exactly singular" used to escape as a bare
    # RuntimeError; the power flow of the case converges
    case = groundless_island_case()
    sol = solve_powerflow(case)
    with pytest.raises(SingularNetworkError, match=re.escape(
            "dynamic admittance matrix is singular: buses [4] form an "
            "island with no machine and no shunt")):
        augment_dynamic(sol.ybus, case, sol)


def test_vectorized_builders_match_record_loops(case9):
    # taps off 1 (one whose square rounds differently through pow than as
    # t * t), charging, a parallel and an out-of-service branch, a bus with
    # nine units (numpy sums eight or more pairwise) and one with a wind
    # unit, an out-of-service unit, loads at generator buses and a bus with
    # three loads whose shunts sum differently in another order
    branches = [dataclasses.replace(br, tap_ratio=0.978)
                if (br.from_bus, br.to_bus) == (1, 4) else
                dataclasses.replace(br, tap_ratio=0.9500000402331352)
                if (br.from_bus, br.to_bus) == (2, 7) else br
                for br in case9.branches]
    assert any(br.b_pu for br in branches)
    branches += [dataclasses.replace(branches[-1], r_pu=0.013),
                 Branch(5, 9, 0.01, 0.08, 0.1, status=False)]
    # nine units at bus 3 whose bases and dispatch sum differently pairwise
    # than one after another
    extra = [Generator(id=f"g3x{k}", bus_id=3, s_base_mva=s, p_mw=p,
                       p_max_mw=200.0, h_sec=3.0, xdp_pu=0.21)
             for k, (s, p) in enumerate(zip(
                 (369.1, 763.2, 36.2, 452.3, 378.1, 482.3, 136.3, 230.3),
                 (56.2, 38.8, 79.2, 60.5, 86.1, 73.2, 60.2, 28.8)))]
    extra += [Generator(id="w2", bus_id=2, s_base_mva=60.0, p_mw=20.0,
                        p_max_mw=60.0, fuel="wind", synchronous=False),
              Generator(id="g2b", bus_id=2, s_base_mva=80.0, p_mw=15.0,
                        p_max_mw=60.0, h_sec=4.0, xdp_pu=0.3),
              Generator(id="off", bus_id=5, s_base_mva=80.0, status=False)]
    loads = list(case9.loads) + [Load(id="l2", bus_id=2, p_mw=12.5, q_mvar=-3.1),
                                 Load(id="l3", bus_id=3, p_mw=7.0, q_mvar=0.3),
                                 Load(id="l5b", bus_id=5, p_mw=30.0, q_mvar=9.8),
                                 Load(id="l5c", bus_id=5, p_mw=-2.7, q_mvar=-4.1)]
    case = dataclasses.replace(case9, branches=tuple(branches),
                               generators=case9.generators + tuple(extra),
                               loads=tuple(loads))
    rng = np.random.default_rng(5)
    n = len(case.buses)
    v_mag = rng.uniform(0.9, 1.1, n)
    v_ang = rng.uniform(-0.5, 0.5, n)
    # at zero angle |V| is v_mag, whose square rounds differently through pow
    v_mag[4], v_ang[4] = 0.95000009983778, 0.0
    assert v_mag[4] ** 2 != v_mag[4] * v_mag[4]
    assert_builders_match_loops(case, v_mag, v_ang)
    sol = solve_powerflow(case9)
    assert_builders_match_loops(case9, sol.v_mag, sol.v_ang)


def sparse_add(ybus, diag):
    """ybus plus the diagonal matrix of diag by SciPy's sparse add, as
    augment_dynamic formed y_dyn before netdyn._add_diagonal: the
    reference."""
    n = len(diag)
    y = (ybus + sp.csc_matrix((diag, np.arange(n), np.arange(n + 1)),
                              shape=(n, n))).tocsc()
    y.sort_indices()
    return y


def assert_same_matrix(got, expected):
    assert got.shape == expected.shape
    for part in ("data", "indices", "indptr"):
        assert_same_bits(getattr(got, part), getattr(expected, part))


def test_y_dyn_matches_the_sparse_add(case9, fleet_case, monkeypatch):
    # the shunts are added at y_dyn's diagonal entries in place of the
    # sparse add, with its bits and pattern, on the 9-bus case, both
    # two-island cases and the fleet's 25 loading cases
    loading = generate_loading_cases(fleet_case, 25, (15000.0, 75000.0),
                                     (10000.0, 30000.0))
    cases = [case9, two_island_case(True), two_island_case(False),
             *(apply_loading_case(fleet_case, lc) for lc in loading)]
    got = [build_model(case)[1].y_dyn for case in cases]
    monkeypatch.setattr(netdyn, "_add_diagonal", sparse_add)
    for case, y_dyn in zip(cases, got):
        assert_same_matrix(y_dyn, build_model(case)[1].y_dyn)


def test_diagonal_add_drops_zeros_and_fills_missing_diagonals(case9):
    # a diagonal that cancels to exactly 0, an explicit zero off the
    # diagonal and a -0.0 part, which the add turns into 0.0: the entries
    # that the add drops are dropped
    ybus = build_ybus(case9)
    n = ybus.shape[0]
    rng = np.random.default_rng(3)
    diag = rng.normal(size=n) + 1j * rng.normal(size=n)
    diag[4] = -ybus[4, 4]
    off = np.flatnonzero(ybus.indices != np.repeat(np.arange(n), np.diff(ybus.indptr)))
    ybus.data[off[0]] = 0.0
    ybus.data[off[1]] = complex(-0.0, 5.0)
    got = netdyn._add_diagonal(ybus, diag)
    assert_same_matrix(got, sparse_add(ybus, diag))
    assert got.nnz == ybus.nnz - 2
    column = np.searchsorted(ybus.indptr, off[1], side="right") - 1
    assert math.copysign(1.0, got[ybus.indices[off[1]], column].real) == 1.0
    # a bus without a branch has no diagonal entry in ybus: the add makes it
    isolated = sp.csc_matrix((ybus.data, ybus.indices, np.append(ybus.indptr, ybus.nnz)),
                             shape=(n + 1, n + 1))
    diag = np.append(diag, 2.0 - 1.0j)
    assert_same_matrix(netdyn._add_diagonal(isolated, diag), sparse_add(isolated, diag))
