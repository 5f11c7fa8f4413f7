import dataclasses
import math

import numpy as np
import pytest

from rocofscreen import (Contingency, SingularOutageError, ZeroInertiaError,
                         angle_second_derivative, augment_dynamic, build_ybus,
                         electrical_torque, init_machines,
                         injection_derivatives, locational_rocof,
                         solve_powerflow, system_rocof)
from rocofscreen.case_model import Branch, Bus, Generator, GridCase, Load
from rocofscreen.netdyn import norton_currents
from conftest import currents, make_fleet_case, make_grid_case


def test_system_rocof_gen3_trip(case9):
    # 85 MW against the 3026.5 MW-s left by generators 1 and 2
    value = system_rocof(case9, 85.0, outaged_ids=["gen3"])
    assert value == pytest.approx(-60 * 85 / (2 * 3026.5), rel=1e-12)
    # the commonly quoted figure for this benchmark is -0.8489 Hz/s;
    # direct arithmetic lands within 1%
    assert abs(value - (-0.8489)) / 0.8489 < 0.01


def test_system_rocof_inertia_floor():
    # 2750 MW design loss against a 100 GW-s floor
    case = GridCase(
        buses=(Bus(id=1, kind="slack"),),
        generators=(Generator(id="g", bus_id=1, s_base_mva=25000.0,
                              p_max_mw=20000.0, h_sec=4.0, xdp_pu=0.3),),
    )
    assert system_rocof(case, 2750.0) == pytest.approx(-0.825, rel=1e-12)


def test_system_rocof_zero_loss(case9):
    assert system_rocof(case9, 0.0) == 0.0


def test_system_rocof_zero_inertia(case9):
    with pytest.raises(ZeroInertiaError):
        system_rocof(case9, 100.0, outaged_ids=["gen1", "gen2", "gen3"])


def test_angle_second_derivative_axis_cases():
    assert angle_second_derivative(1 + 0j, 0 + 2.5j) == pytest.approx(2.5)
    assert angle_second_derivative(0 + 1j, -2.5 + 0j) == pytest.approx(2.5)
    with pytest.raises(ZeroDivisionError):
        angle_second_derivative(0j, 1j)


def test_angle_second_derivative_fd_oracle():
    # along V(t) = v + 0.5 vdd t^2 (so V-dot(0) = 0), the angle's second
    # difference at t=0 must match the closed form. The quantity is
    # invariant under a common rotation, so rotate v to the positive real
    # axis first to keep the finite difference away from the branch cut.
    rng = np.random.default_rng(5)
    for _ in range(25):
        v = rng.normal(scale=1.0) + 1j * rng.normal(scale=1.0)
        if abs(v) < 0.3:
            continue
        vdd = rng.normal() + 1j * rng.normal()
        rot = np.conj(v) / abs(v)
        h = 1e-4
        ang = [np.angle(rot * (v + 0.5 * vdd * t**2)) for t in (-h, 0.0, h)]
        fd = (ang[2] - 2 * ang[1] + ang[0]) / h**2
        assert angle_second_derivative(v, vdd) == pytest.approx(fd, rel=1e-6,
                                                                abs=1e-7)


def test_injection_derivatives_zero_accel():
    delta = np.array([0.3])
    i = norton_currents(np.array([10.0]), delta)
    assert injection_derivatives(i, delta, np.array([0.0]))[0] == 0


def test_injection_derivatives_arithmetic():
    delta = np.array([0.0])
    i = norton_currents(np.array([10.0]), delta)
    idd = injection_derivatives(i, delta, np.array([-0.01]))
    assert idd[0] == pytest.approx(-0.1 + 0j)


def test_empty_contingency_is_null(solved9):
    case, sol, model, states = solved9
    res = locational_rocof(model, states, Contingency.of("null", []))
    assert np.all(np.abs(res.bus_rocof_hz_s) < 1e-9)
    assert np.all(np.abs(res.machine_accel) < 1e-12)
    assert res.system_rocof_hz_s == 0.0
    assert res.mw_lost == 0.0


def test_two_solves_per_contingency(solved9):
    case, sol, model, states = solved9
    before = model.solve_count
    res = locational_rocof(model, states, Contingency.of("c", ["gen3"]))
    assert model.solve_count - before == 2
    assert res.n_solves == model.solve_count - before


def test_gen3_outage_aggregation_consistency(solved9):
    # the inertia-weighted mean of the machine-bus values tracks the
    # system-wide figure for this outage (verified margin ~3%)
    case, sol, model, states = solved9
    res = locational_rocof(model, states, Contingency.of("c", ["gen3"]))
    sys_val = system_rocof(case, res.mw_lost, outaged_ids=["gen3"])
    assert res.system_rocof_hz_s == pytest.approx(sys_val)
    act = ~np.isnan(res.machine_accel)
    w = 2 * model.h_sec[act] * model.s_mach[act]
    coi = np.sum(w * model.f_base * res.machine_accel[act]) / np.sum(w)
    assert abs(coi - sys_val) / abs(sys_val) < 0.05
    bus_pos = {b: i for i, b in enumerate(res.bus_ids)}
    at_machines = np.array([res.bus_rocof_hz_s[bus_pos[model.bus_ids[b]]]
                            for b in model.machine_bus[act]])
    wmean = np.sum(w * at_machines) / np.sum(w)
    assert abs(wmean - sys_val) / abs(sys_val) < 0.05


def test_all_bus_rocofs_negative_for_generation_loss(solved9):
    case, sol, model, states = solved9
    for gid in ("gen1", "gen2", "gen3"):
        res = locational_rocof(model, states, Contingency.of("c", [gid]))
        assert res.system_rocof_hz_s < 0
        ok = ~np.isnan(res.bus_rocof_hz_s)
        assert np.all(res.bus_rocof_hz_s[ok] < 0)


def test_doubling_h_halves_everything(case9):
    sol = solve_powerflow(case9)
    model = augment_dynamic(build_ybus(case9), case9, sol)
    states = init_machines(model, case9, sol)
    res1 = locational_rocof(model, states, Contingency.of("c", ["gen3"]))

    doubled = case9.with_generators(
        [dataclasses.replace(g, h_sec=2 * g.h_sec) for g in case9.generators])
    sol2 = solve_powerflow(doubled)
    model2 = augment_dynamic(build_ybus(doubled), doubled, sol2)
    states2 = init_machines(model2, doubled, sol2)
    res2 = locational_rocof(model2, states2, Contingency.of("c", ["gen3"]))

    act = ~np.isnan(res1.machine_accel)
    assert np.allclose(res2.machine_accel[act], 0.5 * res1.machine_accel[act],
                       rtol=1e-10, atol=0)
    assert np.allclose(res2.bus_rocof_hz_s, 0.5 * res1.bus_rocof_hz_s,
                       rtol=1e-10, atol=0)


def two_island_case(load_on_island_b=True):
    """Island A: buses 1-2 (machine + load); island B: bus 3 (machine,
    optionally with a matched load)."""
    loads = [Load(id="l2", bus_id=2, p_mw=80.0, q_mvar=10.0)]
    gens = [
        Generator(id="gA", bus_id=1, s_base_mva=200.0, p_mw=80.0,
                  p_max_mw=150.0, h_sec=4.0, xdp_pu=0.25),
        Generator(id="gB", bus_id=3, s_base_mva=100.0, p_mw=0.0,
                  p_max_mw=100.0, h_sec=3.0, xdp_pu=0.2),
    ]
    if load_on_island_b:
        loads.append(Load(id="l3", bus_id=3, p_mw=50.0, q_mvar=5.0))
        gens[1] = dataclasses.replace(gens[1], p_mw=50.0)
    return GridCase(
        buses=(Bus(id=1, kind="slack", v_mag=1.02), Bus(id=2),
               Bus(id=3, kind="slack", v_mag=1.0)),
        generators=tuple(gens),
        loads=tuple(loads),
        branches=(Branch(1, 2, 0.01, 0.08, 0.02),),
    )


def test_machine_bus_identity_on_isolated_machine():
    # a bus holding only its machine's Norton shunt must report exactly the
    # machine's acceleration: V tracks E' there, so Vdd_angle == wdot
    case = two_island_case(load_on_island_b=False)
    sol = solve_powerflow(case)
    model = augment_dynamic(build_ybus(case), case, sol)
    states = init_machines(model, case, sol)
    wdot = np.array([0.0, -0.0123])  # synthetic accelerations, pu/s
    idd_rhs = np.zeros(model.n_bus, dtype=complex)
    i_mach = currents(model, states)
    np.add.at(idd_rhs, model.machine_bus, injection_derivatives(i_mach, states.delta, wdot))
    norton_rhs = np.zeros(model.n_bus, dtype=complex)
    np.add.at(norton_rhs, model.machine_bus, i_mach)
    lu = model.factorize()
    v = lu.solve(norton_rhs)
    vdd = lu.solve(idd_rhs)
    k3 = model.bus_ids.index(3)
    assert angle_second_derivative(v[k3], vdd[k3]) == pytest.approx(
        wdot[1], abs=1e-12)


def test_islanded_group_reported_undefined():
    case = two_island_case(load_on_island_b=True)
    sol = solve_powerflow(case)
    model = augment_dynamic(build_ybus(case), case, sol)
    states = init_machines(model, case, sol)
    res = locational_rocof(model, states, Contingency.of("c", ["gB"]))
    k3 = res.bus_ids.index(3)
    assert math.isnan(res.bus_rocof_hz_s[k3])
    assert res.undefined_islands == [[3]]
    for bid in (1, 2):
        assert not math.isnan(res.bus_rocof_hz_s[res.bus_ids.index(bid)])


def test_unknown_generator_rejected(solved9):
    case, sol, model, states = solved9
    with pytest.raises(KeyError, match="nope"):
        locational_rocof(model, states, Contingency.of("c", ["nope"]))


def test_outage_of_offline_generator_rejected(case9):
    gens = [dataclasses.replace(g, status=False) if g.id == "gen3" else g
            for g in case9.generators]
    case = case9.with_generators(gens)
    sol = solve_powerflow(case)
    model = augment_dynamic(build_ybus(case), case, sol)
    states = init_machines(model, case, sol)
    with pytest.raises(KeyError):
        locational_rocof(model, states, Contingency.of("c", ["gen3"]))


def built_model(case):
    sol = solve_powerflow(case)
    model = augment_dynamic(build_ybus(case), case, sol)
    return model, init_machines(model, case, sol)


def refactor_reference(model, states, contingency):
    """The screen on a refactored matrix: y_dyn with the outaged Norton
    shunts removed and dead-island buses pinned to a unit diagonal, then the
    two solves. Returns (bus ROCOF in Hz/s, post-disturbance voltages,
    machine accelerations, undefined islands)."""
    active = np.ones(len(model.machine_ids), dtype=bool)
    out_pos = model.machine_positions(contingency.outaged_generator_ids)
    active[out_pos] = False
    dead = model.dead_island_mask(active)
    upd_bus = np.r_[model.machine_bus[out_pos], np.flatnonzero(dead)]
    upd_val = np.r_[-model.norton_y[out_pos],
                    np.ones(int(dead.sum()), dtype=complex)]
    lu = model.factorize(model.y_with_diag_update(upd_bus, upd_val))
    i_mach = currents(model, states)
    v = lu.solve(model.to_buses(np.where(active, i_mach, 0.0)))
    te = electrical_torque(model, i_mach, v, active)
    wdot = np.where(active, (states.t_m - te) / (2.0 * model.h_sec), np.nan)
    idd = np.zeros(model.n_bus, dtype=complex)
    np.add.at(idd, model.machine_bus, np.where(active, injection_derivatives(
        i_mach, states.delta, np.where(active, wdot, 0.0)), 0.0))
    vdd = lu.solve(idd)
    ok = ~dead & (np.abs(v) > 1e-9)
    rocof = np.full(model.n_bus, np.nan)
    rocof[ok] = model.f_base * angle_second_derivative(v[ok], vdd[ok])
    islands = [[model.bus_ids[i] for i in np.flatnonzero(model.islands == isl)]
               for isl in sorted(set(model.islands[dead].tolist()))]
    return rocof, v, wdot, islands


def assert_matches_refactoring(model, states, contingency):
    res = locational_rocof(model, states, contingency)
    rocof, v, wdot, islands = refactor_reference(model, states, contingency)
    assert np.array_equal(np.isnan(res.bus_rocof_hz_s), np.isnan(rocof))
    np.testing.assert_allclose(res.bus_rocof_hz_s, rocof, rtol=0, atol=1e-9)
    np.testing.assert_allclose(res.post_disturbance_voltages, v,
                               rtol=0, atol=1e-9)
    assert np.array_equal(np.isnan(res.machine_accel), np.isnan(wdot))
    np.testing.assert_allclose(res.machine_accel, wdot, rtol=0, atol=1e-12)
    assert res.undefined_islands == islands
    assert res.n_solves == 2
    return res


def test_compensation_matches_refactoring_on_grid():
    model, states = built_model(make_grid_case(side=25))
    units = model.machine_ids
    plant = units[2][:-2]                       # "g<bus>" of the second plant
    cases = [[units[5]], [plant + "u0", plant + "u1"],
             units[10:13], [units[20], units[21], units[30]], []]
    for k, ids in enumerate(cases):
        assert_matches_refactoring(model, states, Contingency.of(f"c{k}", ids))


def test_compensation_matches_refactoring_on_fleet():
    model, states = built_model(make_fleet_case(1))
    units = model.machine_ids
    for k, ids in enumerate([units[:1], units[3:5], units[7:10], []]):
        assert_matches_refactoring(model, states, Contingency.of(f"c{k}", ids))


@pytest.mark.parametrize("load_on_island_b", [True, False])
@pytest.mark.parametrize("outage", [["gA"], ["gB"], []])
def test_compensation_matches_refactoring_with_dead_island(load_on_island_b,
                                                           outage):
    model, states = built_model(two_island_case(load_on_island_b))
    res = assert_matches_refactoring(model, states,
                                     Contingency.of("c", outage))
    assert len(res.undefined_islands) == len(outage)


def test_singular_outage_is_numerical(solved9, monkeypatch):
    case, sol, model, states = solved9

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularOutageError,
                       match=r"contingency c3: .* at buses \[3\]"):
        locational_rocof(model, states, Contingency.of("c3", ["gen3"]))
    assert not issubclass(SingularOutageError, ValueError)


def test_screens_make_no_factorization(solved9):
    case, sol, model, states = solved9
    before = (model.factor_count, model.solve_count)
    ids = [[], ["gen1"], ["gen2"], ["gen3"], ["gen1", "gen2"],
           ["gen1", "gen3"], ["gen2", "gen3"], ["gen3"], ["gen2"], ["gen1"]]
    for k, gids in enumerate(ids):
        locational_rocof(model, states, Contingency.of(f"c{k}", gids))
    assert model.factor_count == before[0]
    assert model.solve_count == before[1] + 2 * len(ids)
