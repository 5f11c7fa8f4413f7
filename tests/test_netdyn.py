import cmath
import dataclasses
import math

import numpy as np
import pytest

from rocofscreen import (augment_dynamic, build_ybus, electrical_torque,
                         init_machines, solve_powerflow)
from rocofscreen.case_model import Branch, Bus, Generator, GridCase
from rocofscreen.netdyn import ModelBuildError, passive_network_power
from conftest import currents, tiny_case


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


def _model(case):
    sol = solve_powerflow(case)
    model = augment_dynamic(build_ybus(case), case, sol)
    return sol, model


def test_factor_count_counts_each_splu(case9):
    sol, model = _model(case9)
    assert model.factor_count == 1          # the cached base factorization
    init_machines(model, case9, sol)
    model.factorize()
    assert model.factor_count == 1
    model.factorize(model.y_with_diag_update(np.array([0]), np.array([1.0 + 0j])))
    assert model.factor_count == 2


def test_load_shunt_at_nominal_voltage():
    case = tiny_case(load_mw=100.0, xdp_sys=0.1)
    sol, model = _model(case)
    # y_dyn diagonal = load shunt (1.0) + machine Norton (1/(j 0.1))
    assert model.y_dyn[0, 0] == pytest.approx(1.0 - 10j)
    assert model.load_shunt[0] == pytest.approx(1.0 + 0j)


def test_load_shunt_scales_with_voltage():
    case = tiny_case(load_mw=90.25, xdp_sys=0.1)
    case = case.with_buses([dataclasses.replace(case.buses[0], v_mag=0.95)])
    sol, model = _model(case)
    assert model.load_shunt[0] == pytest.approx(1.0 + 0j)  # 0.9025/0.95^2


def test_norton_shunt_base_conversion(case9):
    # xdp 0.25 on a 500 MVA machine, system base 100 -> x_sys 0.05 -> -20j
    gens = [dataclasses.replace(g, s_base_mva=500.0, xdp_pu=0.25)
            if g.id == "gen1" else g for g in case9.generators]
    case = case9.with_generators(gens)
    sol, model = _model(case)
    k = model.machine_ids.index("gen1")
    assert model.xdp_sys[k] == pytest.approx(0.05)
    assert model.norton_y[k] == pytest.approx(-20j)


def test_norton_count_matches_fleet(case9, fleet_case):
    for case in (case9, fleet_case):
        sol, model = _model(case)
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
    sol, model = _model(case)
    # diagonal: load 1.0, wind -0.2, Norton -10j
    assert model.y_dyn[0, 0] == pytest.approx(0.8 - 10j)
    assert model.machine_ids == ["g1"]  # wind contributes no machine


def test_missing_dynamics_blocks_model(case9):
    gens = [dataclasses.replace(g, h_sec=None) if g.id == "gen2" else g
            for g in case9.generators]
    case = case9.with_generators(gens)
    sol = solve_powerflow(case)
    with pytest.raises(ModelBuildError, match="gen2"):
        augment_dynamic(build_ybus(case), case, sol)


def test_init_no_load_machine():
    case = tiny_case(load_mw=0.0, xdp_sys=0.1)
    sol, model = _model(case)
    states = init_machines(model, case, sol)
    assert states.e_prime[0] == pytest.approx(1.0)
    assert states.delta[0] == pytest.approx(0.0)
    assert currents(model, states)[0] == pytest.approx(10 * cmath.exp(-1j * math.pi / 2))
    assert states.t_m[0] == pytest.approx(0.0, abs=1e-12)
    te = electrical_torque(model, currents(model, states), sol.v)
    assert te[0] == pytest.approx(0.0, abs=1e-12)


def test_init_loaded_machine_emf():
    # S = 1.0 pu at V = 1.0 /_0 with x'd = 0.1: E' = 1 + 0.1j
    case = tiny_case(load_mw=100.0, xdp_sys=0.1)
    sol, model = _model(case)
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


def test_machine_base_torque_scaling(solved9):
    case, sol, model, states = solved9
    te = electrical_torque(model, currents(model, states), sol.v)
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
    v = model.factorize(y_mod).solve(model.to_buses(np.where(active, i_mach, 0.0)))
    te = electrical_torque(model, i_mach, v, active)
    machine_mw = float(np.sum(te * model.s_mach))
    # passive power with the outaged Norton shunt removed from the matrix
    i_passive = y_mod @ v
    p = float(np.sum(v * np.conj(i_passive)).real)
    vb = v[model.machine_bus[active]]
    p -= float(np.sum((vb * np.conj(model.norton_y[active] * vb)).real))
    assert machine_mw / case.s_base_mva == pytest.approx(p, abs=1e-6)


def test_passive_power_equals_machine_output(solved9):
    case, sol, model, states = solved9
    i_mach = currents(model, states)
    v = model.factorize().solve(model.to_buses(i_mach))
    te = electrical_torque(model, i_mach, v)
    total_machine = float(np.sum(te * model.s_mach)) / case.s_base_mva
    assert passive_network_power(model, v) == pytest.approx(total_machine, abs=1e-6)


def test_diag_update_adds_repeated_buses_in_order(solved9, fleet_case):
    """Bit for bit what a dense matrix gets when each delta is added to its
    diagonal in the given order: a bus that repeats (two lost units, or a
    unit and a shed load) must not get its deltas summed first."""
    rng = np.random.default_rng(6)
    for model in (solved9[2], _model(fleet_case)[1]):
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
