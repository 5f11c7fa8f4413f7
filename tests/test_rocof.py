import dataclasses
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from rocofscreen import (Contingency, SingularOutageError, ZeroInertiaError,
                         angle_second_derivative, build_model,
                         electrical_torque, injection_derivatives,
                         locational_rocof, locational_rocof_batch, netdyn,
                         powerflow, simulate, system_rocof)
from rocofscreen.case_model import (Branch, Bus, Generator, GridCase,
                                    InputError, Load, total_inertia_gws)
from rocofscreen.netdyn import norton_currents
from rocofscreen.scenarios import apply_loading_case, generate_loading_cases
from rocofscreen.swingsim import SimOptions
from conftest import (case9_with_bus10, currents, make_fleet_case, make_grid_case,
                      tiny_case)


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


def test_system_rocof_names_a_unit_without_inertia(case9):
    # the message of case_model.total_inertia_gws; a tripped unit needs none
    bare = case9.with_generators(
        [dataclasses.replace(g, h_sec=None) if g.id == "gen1" else g
         for g in case9.generators])
    with pytest.raises(InputError, match="generator 'gen1' is in service but "
                                         "has no h_sec"):
        system_rocof(bare, 85.0, outaged_ids=["gen3"])
    assert system_rocof(bare, 71.6, outaged_ids=["gen1"]) == system_rocof(
        case9, 71.6, outaged_ids=["gen1"])


def test_system_rocof_zero_loss(case9):
    assert system_rocof(case9, 0.0) == 0.0


def test_system_rocof_zero_inertia(case9):
    with pytest.raises(ZeroInertiaError):
        system_rocof(case9, 100.0, outaged_ids=["gen1", "gen2", "gen3"])


def test_zero_loss_leaving_no_inertia_is_zero_and_a_loss_raises():
    # one rule in all three: a zero loss gives 0.0 whatever inertia is left,
    # and ZeroInertiaError needs a nonzero loss that leaves none. The only
    # machine, dispatched at 0 MW, trips on an unloaded case; at 100 MW the
    # same trip raises
    lose_g1 = Contingency.of("c", ["g1"])
    opts = SimOptions(t_end=0.25, shedding=False)
    unloaded = tiny_case(load_mw=0.0)
    _, model, states = build_model(unloaded)
    assert system_rocof(unloaded, 0.0, outaged_ids=["g1"]) == 0.0
    res = locational_rocof(model, states, lose_g1)
    assert (res.mw_lost, res.system_rocof_hz_s) == (0.0, 0.0)
    assert np.isnan(res.bus_rocof_hz_s).all() and res.undefined_islands == [[1]]
    sim = simulate(model, states, lose_g1, opts)
    assert (sim.bus_freq_hz == unloaded.f_base_hz).all() and not sim.events

    loaded = tiny_case()
    _, model, states = build_model(loaded)
    with pytest.raises(ZeroInertiaError):
        system_rocof(loaded, 100.0, outaged_ids=["g1"])
    with pytest.raises(ZeroInertiaError):
        locational_rocof(model, states, lose_g1)
    with pytest.raises(ZeroInertiaError):
        simulate(model, states, lose_g1, opts)


def reference_system_rocof(case: GridCase, p_loss_mw: float, outaged_ids=()) -> float:
    """system_rocof as first written: it summed over a copy of the case
    whose outaged records were rebuilt out of service."""
    if not math.isfinite(p_loss_mw):
        raise InputError(f"p_loss_mw must be finite, got {p_loss_mw}")
    outaged = set(outaged_ids)
    inertia_gws = total_inertia_gws(case.with_generators(
        dataclasses.replace(g, status=False) if g.id in outaged else g
        for g in case.generators))
    if p_loss_mw == 0:
        return 0.0
    if inertia_gws <= 0:
        raise ZeroInertiaError(
            "no synchronous inertia remains after the disturbance")
    return -case.f_base_hz * p_loss_mw / (2000.0 * inertia_gws)


def _outage_sets(case: GridCase) -> list[list[str]]:
    """Every single loss, the loss of each run of two and of three
    consecutive units, and every unit but the first."""
    ids = [g.id for g in case.generators]
    return ([[i] for i in ids] + [ids[k:k + 2] for k in range(len(ids) - 1)]
            + [ids[k:k + 3] for k in range(len(ids) - 2)] + [ids[1:]])


@pytest.mark.parametrize("name", ["case9", "fleet"])
def test_system_rocof_matches_record_rebuilding_reference(case9, fleet_case, name):
    # leaving the outaged units out sums the same terms in the same order,
    # also for an outaged id that is already out of service
    base = case9 if name == "case9" else fleet_case
    off = base.generators[1].id
    idle = base.with_generators(dataclasses.replace(g, status=False) if g.id == off
                                else g for g in base.generators)
    checked = 0
    for case in (base, idle):
        for outage in _outage_sets(case) + [[off], [off, "nope"]]:
            loss = sum(case.generator(g).p_mw for g in outage if g != "nope")
            for mw in (loss, 0.0):
                try:
                    want = reference_system_rocof(case, mw, outage)
                except ZeroInertiaError:
                    with pytest.raises(ZeroInertiaError):
                        system_rocof(case, mw, outage)
                    continue
                assert system_rocof(case, mw, outage).hex() == want.hex()
                checked += 1
    assert checked > 4 * len(base.generators)


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


def test_two_solves_per_contingency(case9):
    # a fresh model: solve 1 solves gen3's bus column once, and the second
    # solve its acceleration responses; a repeat reads both from the model
    _, model, states = build_model(case9)
    for solves in (2, 0):
        before = model.solve_count
        res = locational_rocof(model, states, Contingency.of("c", ["gen3"]))
        assert model.solve_count - before == res.n_solves == solves


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
    res1 = locational_rocof(*build_model(case9)[1:], Contingency.of("c", ["gen3"]))

    doubled = case9.with_generators(
        [dataclasses.replace(g, h_sec=2 * g.h_sec) for g in case9.generators])
    res2 = locational_rocof(*build_model(doubled)[1:], Contingency.of("c", ["gen3"]))

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


def groundless_island_case():
    """two_island_case(True) plus an island with no machine and no shunt, a
    slack bus 4 with a 0 MW load: its dynamic admittance matrix is exactly
    singular."""
    case = two_island_case(True)
    return dataclasses.replace(
        case, buses=case.buses + (Bus(id=4, kind="slack"),),
        loads=case.loads + (Load(id="l4", bus_id=4, p_mw=0.0),))


def test_machine_bus_identity_on_isolated_machine():
    # a bus holding only its machine's Norton shunt must report exactly the
    # machine's acceleration: V tracks E' there, so Vdd_angle == wdot
    case = two_island_case(load_on_island_b=False)
    _, model, states = build_model(case)
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
    _, model, states = build_model(case)
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
    _, model, states = build_model(case)
    with pytest.raises(KeyError):
        locational_rocof(model, states, Contingency.of("c", ["gen3"]))


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
    lu = spla.splu(model.y_with_diag_update(upd_bus, upd_val),
                   **powerflow.SUPERLU_OPTIONS)
    i_mach = currents(model, states)
    v = lu.solve(model.to_buses(np.where(active, i_mach, 0.0)))
    te = np.where(active, electrical_torque(model, i_mach, v[model.machine_bus]), 0.0)
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


def assert_close_to_refactoring(got, expected):
    """A screen's (bus ROCOF, post-disturbance voltages, machine
    accelerations, undefined islands) against refactor_reference's: bus
    ROCOF and voltages within 1e-9, accelerations within 1e-12, NaN in the
    same places."""
    (rocof, v, wdot, islands), (ref_rocof, ref_v, ref_wdot, ref_islands) = got, expected
    assert np.array_equal(np.isnan(rocof), np.isnan(ref_rocof))
    np.testing.assert_allclose(rocof, ref_rocof, rtol=0, atol=1e-9)
    np.testing.assert_allclose(v, ref_v, rtol=0, atol=1e-9)
    assert np.array_equal(np.isnan(wdot), np.isnan(ref_wdot))
    np.testing.assert_allclose(wdot, ref_wdot, rtol=0, atol=1e-12)
    assert islands == ref_islands


def assert_matches_refactoring(model, states, contingency, solves):
    """The screen against refactor_reference, and its solve count: 2 when
    the contingency has a live outaged bus whose unit column and responses
    the model has not solved yet, else 0."""
    res = locational_rocof(model, states, contingency)
    assert_close_to_refactoring(
        (res.bus_rocof_hz_s, res.post_disturbance_voltages, res.machine_accel,
         res.undefined_islands), refactor_reference(model, states, contingency))
    assert res.n_solves == solves
    return res


def test_compensation_matches_refactoring_on_grid():
    _, model, states = build_model(make_grid_case(side=25))
    units = model.machine_ids
    plant = units[2][:-2]                       # "g<bus>" of the second plant
    cases = [[units[5]], [plant + "u0", plant + "u1"],
             units[10:13], [units[20], units[21], units[30]], []]
    # each loss reaches a bus not screened before; the empty one makes no
    # solve
    for k, (ids, solves) in enumerate(zip(cases, [2, 2, 2, 2, 0])):
        assert_matches_refactoring(model, states, Contingency.of(f"c{k}", ids),
                                   solves)


def test_compensation_matches_refactoring_on_fleet():
    _, model, states = build_model(make_fleet_case(1))
    units = model.machine_ids
    for k, (ids, solves) in enumerate(zip([units[:1], units[3:5], units[7:10], []],
                                          [2, 2, 2, 0])):
        assert_matches_refactoring(model, states, Contingency.of(f"c{k}", ids),
                                   solves)


@pytest.mark.parametrize("load_on_island_b", [True, False])
@pytest.mark.parametrize("outage", [["gA"], ["gB"], []])
def test_compensation_matches_refactoring_with_dead_island(load_on_island_b,
                                                           outage):
    # each loss kills its island, so the screen has no live outaged bus
    # and makes no solve
    _, model, states = build_model(two_island_case(load_on_island_b))
    res = assert_matches_refactoring(model, states,
                                     Contingency.of("c", outage), 0)
    assert len(res.undefined_islands) == len(outage)


def plain_splu_model(case):
    """build_model's model and states with every factorization by plain
    spla.splu: COLAMD column order and partial pivoting (threshold 1.0),
    the settings that powerflow.SUPERLU_OPTIONS replaced."""
    plain = SimpleNamespace(splu=lambda matrix, **kwargs: spla.splu(matrix))
    with mock.patch.object(powerflow, "spla", plain), \
            mock.patch.object(netdyn, "spla", plain):
        return build_model(case)[1:]


def assert_matches_plain_splu(case, contingencies):
    """The screen on the SUPERLU_OPTIONS factorizations against the one on
    plain_splu_model: the same undefined buses, bus ROCOF within 1e-9
    Hz/s, one contingency at a time and as one batch."""
    _, model, states = build_model(case)
    plain, plain_states = plain_splu_model(case)
    batch = locational_rocof_batch(model, states, contingencies)
    plain_batch = locational_rocof_batch(plain, plain_states, contingencies)
    singles = [locational_rocof(model, states, c).bus_rocof_hz_s
               for c in contingencies]
    plain_singles = [locational_rocof(plain, plain_states, c).bus_rocof_hz_s
                     for c in contingencies]
    for new, old in [(batch.bus_rocof_hz_s, plain_batch.bus_rocof_hz_s),
                     (np.array(singles), np.array(plain_singles))]:
        assert np.array_equal(np.isnan(new), np.isnan(old))
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-9)


def test_symmetric_ordering_matches_plain_splu_on_5041_buses():
    case = make_grid_case(side=71)
    units = [g.id for g in case.generators]
    rng = np.random.default_rng(3)
    contingencies = [Contingency.of(f"c{j}", rng.choice(units, j % 4 + 1,
                                                        replace=False))
                     for j in range(8)]
    assert_matches_plain_splu(case, contingencies)


def screened_with_fill(case, contingencies):
    """build_model and the batch screen of the contingencies. Returns the
    power-flow solution, the fill (L + U entries) of every SuperLU
    factorization made, the Newton Jacobians' in order and then y_dyn's,
    and the batch."""
    fill = []

    def splu(matrix, **kwargs):
        lu = spla.splu(matrix, **kwargs)
        fill.append(lu.nnz)
        return lu

    spy = SimpleNamespace(splu=splu)
    with mock.patch.object(powerflow, "spla", spy), \
            mock.patch.object(netdyn, "spla", spy):
        sol, model, states = build_model(case)
    return sol, fill, locational_rocof_batch(model, states, contingencies)


def assert_matches_default_panel(case, contingencies) -> float:
    """The map and batch screen on the SUPERLU_OPTIONS factorizations (panel
    size 1) against the ones on the options that panel size 1 replaced: the
    same dicts without panel_size, so SuperLU's default panel of 10. netdyn
    binds SUPERLU_OPTIONS at import, so it is patched there too. Asserts the
    same Newton iterations, both final mismatches within the default
    tolerance, voltages within 1e-10 pu, the same fill of every
    factorization, the same undefined buses and bus ROCOF within 1e-9 Hz/s.
    Returns the largest bus ROCOF gap, Hz/s."""
    def replaced(options):
        return {k: v for k, v in options.items() if k != "panel_size"}

    sol, fill, batch = screened_with_fill(case, contingencies)
    with mock.patch.object(powerflow, "SUPERLU_OPTIONS",
                           replaced(powerflow.SUPERLU_OPTIONS)), \
            mock.patch.object(powerflow, "PREORDERED_OPTIONS",
                              replaced(powerflow.PREORDERED_OPTIONS)), \
            mock.patch.object(netdyn, "SUPERLU_OPTIONS",
                              replaced(netdyn.SUPERLU_OPTIONS)):
        old_sol, old_fill, old_batch = screened_with_fill(case, contingencies)
    assert sol.iterations == old_sol.iterations
    assert max(sol.max_mismatch_pu, old_sol.max_mismatch_pu) <= 1e-8
    assert np.max(np.abs(sol.v - old_sol.v)) <= 1e-10
    assert fill == old_fill and len(fill) == sol.iterations + 1
    new, old = batch.bus_rocof_hz_s, old_batch.bus_rocof_hz_s
    assert np.array_equal(np.isnan(new), np.isnan(old))
    gap = float(np.max(np.abs(new - old), initial=0.0, where=~np.isnan(new)))
    assert gap <= 1e-9
    return gap


def drawn_contingencies(case, m, seed):
    """m seeded losses of 1-4 of the case's in-service synchronous units,
    each leaving at least one."""
    units = [g.id for g in case.generators if g.status and g.synchronous]
    rng = np.random.default_rng(seed)
    return [Contingency.of(f"c{j}", rng.choice(units, min(j % 4 + 1, len(units) - 1),
                                               replace=False))
            for j in range(m)]


def test_panel_size_1_matches_default_panel_on_5041_buses(grid71):
    case = grid71[0]
    assert_matches_default_panel(case, drawn_contingencies(case, 100, 4))


def test_panel_size_1_matches_default_panel_on_fleet_loading_cases(fleet_case):
    loading = generate_loading_cases(fleet_case, 25, (15000.0, 75000.0),
                                     (10000.0, 30000.0))
    for lc in (loading[0], loading[12], loading[24]):
        case = apply_loading_case(fleet_case, lc)
        assert_matches_default_panel(case, drawn_contingencies(case, 40, 5))


def test_every_factorization_passes_panel_size_1(case9, fleet_case):
    # the Newton Jacobian's ordering factorization, its relabelled ones and
    # y_dyn's: each splu site must take SUPERLU_OPTIONS' panel size
    calls = []

    def spy(module):
        def splu(matrix, **kwargs):
            calls.append((module, kwargs.get("permc_spec"),
                          kwargs.get("panel_size")))
            return spla.splu(matrix, **kwargs)
        return SimpleNamespace(splu=splu)

    with mock.patch.object(powerflow, "spla", spy("powerflow")), \
            mock.patch.object(netdyn, "spla", spy("netdyn")):
        for case in (case9, fleet_case):
            build_model(case)
    assert {call[:2] for call in calls} >= {("powerflow", "MMD_AT_PLUS_A"),
                                            ("powerflow", "NATURAL"),
                                            ("netdyn", "MMD_AT_PLUS_A")}
    assert [call[2] for call in calls] == [1] * len(calls)


@pytest.mark.parametrize("rel", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("ties, unit_mw, outage", [
    ("weak", 0.0, "gen4"),        # gen4's loss leaves a near-singular network
    ("charging", 5.0, "gen3"),    # y_dyn's diagonal at bus 10 nearly cancels
])
def test_screen_solves_near_singular_outages(ties, unit_mw, outage, rel):
    _, model, states = build_model(case9_with_bus10(ties, rel, unit_mw))
    res = locational_rocof(model, states, Contingency.of("c", [outage]))
    lost = model.machine_positions([outage])
    after = model.y_with_diag_update(model.machine_bus[lost],
                                     -model.norton_y[lost])
    active = np.ones(len(model.machine_ids), dtype=bool)
    active[lost] = False
    rhs = model.to_buses(np.where(active, currents(model, states), 0.0))
    assert (np.linalg.norm(after @ res.post_disturbance_voltages - rhs)
            <= 1e-9 * np.linalg.norm(rhs))


@pytest.mark.parametrize("ties, unit_mw, outage, rel", [
    *[("weak", 0.0, "gen4", rel) for rel in (1e-3, 1e-6)],
    *[pytest.param("weak", 0.0, "gen4", rel, marks=pytest.mark.xfail(
        strict=True, reason="known defect: the screen loses digits in "
        "proportion to the condition number of its capacitance matrix"))
      for rel in (1e-9, 1e-12)],
    *[("charging", 5.0, "gen3", rel) for rel in (1e-3, 1e-6, 1e-9, 1e-12)]])
def test_pair_loss_behind_a_near_singular_tie_matches_refactoring(ties, unit_mw,
                                                                  outage, rel):
    # the unit behind the tie and gen1 lost together, singly and as a
    # batch's second column. The weak tie at rel 1e-9 and 1e-12 fails, a
    # known defect: there the screen loses digits in proportion to the
    # condition number of its capacitance matrix, 4.4e-8 and 4.6e-6 Hz/s
    # from the exact answer. A fix turns these strict xfails into failures
    # that ask for the marks to go
    _, model, states = build_model(case9_with_bus10(ties, rel, unit_mw))
    pair = Contingency.of("pair", [outage, "gen1"])
    assert_matches_refactoring(model, states, pair, 2)
    batch = locational_rocof_batch(model, states, [Contingency.of("c", [outage]), pair])
    assert batch.errors == [None, None]
    assert_close_to_refactoring(
        (batch.bus_rocof_hz_s[:, 1], batch.post_disturbance_voltages[:, 1],
         batch.machine_accel[:, 1], batch.undefined_islands[1]),
        refactor_reference(model, states, pair))


def test_singular_outage_is_numerical(solved9, monkeypatch):
    case, sol, model, states = solved9

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularOutageError,
                       match=r"contingency c3: .* at buses \[3\]"):
        locational_rocof(model, states, Contingency.of("c3", ["gen3"]))
    assert not issubclass(SingularOutageError, ValueError)


def test_screens_make_no_factorization(case9):
    # on a fresh model, only the first screen of each machine bus solves:
    # its unit column, then its acceleration responses
    _, model, states = build_model(case9)
    factors = model.factor_count
    ids = [[], ["gen1"], ["gen2"], ["gen3"], ["gen1", "gen2"],
           ["gen1", "gen3"], ["gen2", "gen3"], ["gen3"], ["gen2"], ["gen1"]]
    solves = [locational_rocof(model, states, Contingency.of(f"c{k}", gids)).n_solves
              for k, gids in enumerate(ids)]
    assert solves == [0, 2, 2, 2, 0, 0, 0, 0, 0, 0]
    assert model.factor_count == factors


def current_column_screen(model, states, contingencies):
    """The screen as it was before solve 1 dropped its current columns:
    solve 1 is [I_1 ... I_m | e_U], with I_j the currents of contingency j's
    remaining machines and U the outaged buses in live islands, and the
    compensation corrects each of V's columns from its own. Returns bus
    ROCOF, machine accelerations and post-disturbance voltages, one row per
    contingency; a contingency naming an unknown machine gets NaN rows."""
    n, nm, m = model.n_bus, len(model.machine_ids), len(contingencies)
    active = np.ones((m, nm), dtype=bool)
    known = np.ones(m, dtype=bool)
    for j, c in enumerate(contingencies):
        try:
            active[j, model.machine_positions(c.outaged_generator_ids)] = False
        except KeyError:
            known[j] = False
    dead = model.dead_island_mask(active)
    lost = ~active & ~dead.T[model.machine_bus].T
    i_mach = currents(model, states)
    d_bus = model.to_buses(np.where(lost, -model.norton_y, 0.0))
    union = np.flatnonzero(d_bus.any(axis=0))
    rhs = np.zeros((n, m + union.size), dtype=complex)
    rhs[:, :m] = model.to_buses(np.where(active, i_mach, 0.0)).T
    rhs[union, m + np.arange(union.size)] = 1.0
    lu = model.factorize()
    x = lu.solve(rhs)

    def outage_solution(j, y):
        b = np.flatnonzero(d_bus[j])
        zb = x[:, m + np.searchsorted(union, b)]
        cap = np.eye(b.size) + d_bus[j, b][:, None] * zb[b]
        y = y - zb @ np.linalg.solve(cap, d_bus[j, b] * y[b])
        y[dead[j]] = 0.0
        return y

    rocof = np.full((m, n), np.nan)
    wdot = np.full((m, nm), np.nan)
    v_post = np.full((m, n), np.nan, dtype=complex)
    for j in np.flatnonzero(known):
        v = outage_solution(j, x[:, j])
        te = np.where(active[j],
                      electrical_torque(model, i_mach, v[model.machine_bus]), 0.0)
        wdot[j] = np.where(active[j], (states.t_m - te) / (2.0 * model.h_sec),
                           np.nan)
        idd = model.to_buses(injection_derivatives(
            i_mach, states.delta, np.where(active[j], wdot[j], 0.0)))
        vdd = outage_solution(j, lu.solve(idd))
        ok = ~dead[j] & (np.abs(v) > 1e-9)
        rocof[j, ok] = model.f_base * angle_second_derivative(v[ok], vdd[ok])
        v_post[j] = v
    return rocof, wdot, v_post


def assert_matches_current_columns(model, states, contingencies, solves=2):
    """The batch and each single screen against current_column_screen: bus
    ROCOF within 1e-9 Hz/s, the same undefined buses, and the machine
    accelerations and voltages, on every row that screens. The batch comes
    first on the model, and makes the given number of solves."""
    rocof, wdot, v_post = current_column_screen(model, states, contingencies)
    batch = locational_rocof_batch(model, states, contingencies)
    assert batch.n_solves == solves
    rows = [j for j, e in enumerate(batch.errors) if e is None]
    singles = [locational_rocof(model, states, contingencies[j]) for j in rows]
    for got in ((batch.bus_rocof_hz_s.T[rows], batch.machine_accel.T[rows],
                 batch.post_disturbance_voltages.T[rows]),
                tuple(np.array([getattr(r, name) for r in singles]) for name in
                      ("bus_rocof_hz_s", "machine_accel",
                       "post_disturbance_voltages"))):
        for new, old, atol in zip(got, (rocof[rows], wdot[rows], v_post[rows]),
                                  (1e-9, 1e-12, 1e-9)):
            assert np.array_equal(np.isnan(new), np.isnan(old))
            np.testing.assert_allclose(new, old, rtol=0, atol=atol)
    return batch


def test_voltage_start_matches_current_columns_on_nine_bus(case9):
    _, model, states = build_model(case9)
    ids = [[], ["gen1"], ["gen2"], ["gen3"], ["gen1", "gen2"],
           ["gen1", "gen3"], ["gen2", "gen3"], ["gen1", "gen2", "gen3"],
           ["gen9"]]
    batch = assert_matches_current_columns(
        model, states, [Contingency.of(f"c{k}", g) for k, g in enumerate(ids)])
    assert [type(e) for e in batch.errors] == [type(None)] * 7 + [
        ZeroInertiaError, netdyn.UnknownIdError]


def test_unknown_unit_error_names_the_first_unknown_id_in_sorted_order(case9):
    _, model, states = build_model(case9)
    units = ["zeta", "gen1", "alpha", "mid"]
    with pytest.raises(netdyn.UnknownIdError, match="'alpha'"):
        model.machine_positions(units)
    batch = locational_rocof_batch(model, states, [
        Contingency.of("a", units), Contingency.of("b", ["gen3"])])
    assert isinstance(batch.errors[0], netdyn.UnknownIdError)
    assert "'alpha'" in str(batch.errors[0]) and batch.errors[1] is None
    assert np.isnan(batch.bus_rocof_hz_s[:, 0]).all()
    assert np.isfinite(batch.bus_rocof_hz_s[:, 1]).all()


@pytest.mark.parametrize("load_on_island_b", [True, False])
def test_voltage_start_matches_current_columns_with_dead_islands(
        load_on_island_b):
    # no loss leaves its bus in a live island: solve 2 alone
    _, model, states = build_model(two_island_case(load_on_island_b))
    batch = assert_matches_current_columns(model, states, [
        Contingency.of("a", ["gA"]), Contingency.of("b", ["gB"]),
        Contingency.of("none", []), Contingency.of("x", ["gX"])], solves=1)
    assert [len(i) for i in batch.undefined_islands] == [1, 1, 0, 0]


def test_voltage_start_matches_current_columns_on_5041_buses():
    # plants of two units on one bus, so a bus of U can carry two currents
    _, model, states = build_model(make_grid_case(side=71))
    units = model.machine_ids
    rng = np.random.default_rng(5)
    contingencies = [Contingency.of(f"c{j}", rng.choice(units, j % 4 + 1,
                                                        replace=False))
                     for j in range(6)]
    contingencies += [Contingency.of("plant", units[8:10]),
                      Contingency.of("unknown", ["nope"])]
    batch = assert_matches_current_columns(model, states, contingencies)
    assert [e is None for e in batch.errors] == [True] * 7 + [False]


def solve_shapes(monkeypatch) -> list:
    """The shapes of the right-hand sides of every CountingLU.solve from
    here on, in call order."""
    shapes = []
    solve = netdyn.CountingLU.solve

    def spy(self, rhs):
        shapes.append(rhs.shape)
        return solve(self, rhs)
    monkeypatch.setattr(netdyn.CountingLU, "solve", spy)
    return shapes


def test_solve_1_has_a_column_per_outaged_bus(case9, monkeypatch):
    # solve 1 carries the unit columns of the live outaged buses that the
    # model has not solved before, and no current; a batch's solve 2 one
    # column per contingency, a single screen's the two responses of each
    # bus new to it
    _, model, states = build_model(case9)
    widths = solve_shapes(monkeypatch)
    batch = locational_rocof_batch(model, states, [
        Contingency.of("a", ["gen1"]), Contingency.of("b", ["gen2"]),
        Contingency.of("ab", ["gen1", "gen2"]), Contingency.of("x", ["gen9"])])
    assert widths == [(9, 2), (9, 4)] and batch.n_solves == 2
    widths.clear()
    assert locational_rocof(model, states, Contingency.of("c", ["gen3"])).n_solves == 2
    assert widths == [(9, 1), (9, 2)]
    # the unit column stored by the batch: the responses alone; a repeat
    # solves nothing
    widths.clear()
    assert locational_rocof(model, states, Contingency.of("a", ["gen1"])).n_solves == 1
    assert locational_rocof(model, states, Contingency.of("a", ["gen1"])).n_solves == 0
    assert widths == [(9, 2)]
    # every outaged bus solved before: no solve 1
    widths.clear()
    batch = locational_rocof_batch(model, states, [
        Contingency.of("a", ["gen1"]), Contingency.of("bc", ["gen2", "gen3"])])
    assert widths == [(9, 2)] and batch.n_solves == 1
    # no live outaged bus: no solve 1 either
    widths.clear()
    batch = locational_rocof_batch(model, states, [
        Contingency.of("none", []), Contingency.of("x", ["gen9"])])
    assert widths == [(9, 2)] and batch.n_solves == 1
    assert np.all(np.abs(batch.bus_rocof_hz_s[:, 0]) < 1e-9)


def test_solve_1_is_empty_when_the_outage_kills_its_island(monkeypatch):
    _, model, states = build_model(two_island_case(True))
    widths = solve_shapes(monkeypatch)
    res = locational_rocof(model, states, Contingency.of("b", ["gB"]))
    assert widths == [] and res.n_solves == 0
    assert res.undefined_islands == [[3]]


@pytest.mark.parametrize("loss", [math.nan, math.inf, -math.inf])
def test_system_rocof_rejects_a_loss_that_is_not_finite(case9, loss):
    with pytest.raises(InputError, match="p_loss_mw must be finite"):
        system_rocof(case9, loss)


# --- the model's cached unit columns against the solve they replaced ---------

def uncached_unit_columns(model, buses):
    """NetworkModel.unit_columns without its cache, as solve 1 was before
    the model kept its unit columns: every call solves every bus given."""
    rhs = np.zeros((len(buses), model.n_bus), dtype=complex)
    rhs[np.arange(len(buses)), buses] = 1.0
    return model.factorize().solve(rhs.T).T


def screened_bytes(model, states, contingencies, cycles):
    """The contingencies screened singly, cycles times over, then as one
    batch: (bus ROCOF, machine accelerations, post-disturbance voltages),
    one row per contingency, for each cycle and the batch."""
    out = []
    for _ in range(cycles):
        singles = [locational_rocof(model, states, c) for c in contingencies]
        out.append(tuple(np.array([getattr(r, name) for r in singles]) for name in
                         ("bus_rocof_hz_s", "machine_accel",
                          "post_disturbance_voltages")))
    batch = locational_rocof_batch(model, states, contingencies)
    out.append((batch.bus_rocof_hz_s.T, batch.machine_accel.T,
                batch.post_disturbance_voltages.T))
    return out


def assert_cache_changes_no_bit(case, contingencies, model=None, states=None):
    """Screens through the model's unit columns against the uncached path on
    a fresh model, bit for bit: each contingency singly in two cycles (the
    first solves the buses new to the model, the second reads them all),
    then the batch (warm), on the given model or a fresh one; and the batch
    alone on a fresh model (cold)."""
    if model is None:
        _, model, states = build_model(case)
    with mock.patch.object(netdyn.NetworkModel, "unit_columns",
                           uncached_unit_columns):
        ref = screened_bytes(*build_model(case)[1:], contingencies, cycles=1)
    cold_batch = screened_bytes(*build_model(case)[1:], contingencies, cycles=0)
    for got, want in zip(screened_bytes(model, states, contingencies, 2) + cold_batch,
                         [ref[0], ref[0], ref[1], ref[1]]):
        for new, old in zip(got, want):
            assert np.array_equal(new, old, equal_nan=True)


def test_cached_unit_columns_change_no_bit_on_5041_buses(grid71):
    # the shared grid71 model, with whatever unit columns earlier tests
    # left on it
    case, model, states = grid71
    assert_cache_changes_no_bit(case, drawn_contingencies(case, 100, 6),
                                model, states)


def test_cached_unit_columns_change_no_bit_on_fleet_loading_cases(fleet_case):
    loading = generate_loading_cases(fleet_case, 25, (15000.0, 75000.0),
                                     (10000.0, 30000.0))
    for lc in (loading[0], loading[24]):
        assert lc.id in ("lc000", "lc024")
        case = apply_loading_case(fleet_case, lc)
        assert_cache_changes_no_bit(case, drawn_contingencies(case, 60, 7))


def test_unit_columns_hold_the_union_of_live_outaged_buses(fleet_case):
    _, model, states = build_model(fleet_case)
    contingencies = drawn_contingencies(fleet_case, 12, 8)
    expected = set()
    for c in contingencies:
        solves = model.solve_count
        locational_rocof(model, states, c)
        buses = set(model.machine_bus[model.machine_positions(
            c.outaged_generator_ids)].tolist())
        assert model.solve_count - solves == (2 if buses - expected else 0)
        expected |= buses
        # the store keeps a row for each bus screened so far, and no other
        assert set(model._unit) == expected
    buses = sorted(expected)
    inverse = np.linalg.inv(model.y_dyn.toarray())
    stored = [model._unit[b] for b in buses]
    assert not any(row.flags.writeable for row in stored)
    np.testing.assert_allclose(stored, inverse[buses], rtol=0, atol=1e-10)
    solves = model.solve_count
    rows = model.unit_columns(np.array(buses))
    assert model.solve_count == solves and not rows.flags.writeable
    assert np.array_equal(rows, stored)
    # a loss that kills its island adds no bus
    _, model, states = build_model(two_island_case(True))
    for c in (["gB"], ["gA"]):
        locational_rocof(model, states, Contingency.of("c", c))
    assert model._unit == {}
