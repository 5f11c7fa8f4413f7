import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

from rocofscreen import (Contingency, SimOptions, SimulationBlowup,
                         augment_dynamic, build_ybus, bus_frequency,
                         check_ffr, check_ufls, init_machines, netdyn,
                         norton_currents, simulate, solve_powerflow,
                         swingsim, system_rocof)
from rocofscreen.case_model import InputError, Load
from rocofscreen.scenarios import finite_difference_rocof
from rocofscreen.swingsim import FREQUENCY_FILTER_TC_S, SimResult
from conftest import tiny_case


def make_trace_result(freq_rows, dt=1.0 / 240.0, bus_ids=(1, 2)):
    """SimResult carrying constructed frequency traces (no dynamics run)."""
    f = np.asarray(freq_rows, dtype=float)
    nt = f.shape[0]
    return SimResult(
        time_s=np.arange(nt) * dt,
        machine_ids=[], delta=np.zeros((nt, 0)), omega=np.zeros((nt, 0)),
        bus_ids=list(bus_ids),
        bus_angle_rad=np.zeros((nt, len(bus_ids))),
        bus_freq_hz=f, events=[])


def stage_loads():
    return [Load(id="a1", bus_id=1, p_mw=10, ufls_stage="stage1"),
            Load(id="a2", bus_id=1, p_mw=10, ufls_stage="stage2"),
            Load(id="a3", bus_id=1, p_mw=10, ufls_stage="stage3"),
            Load(id="b1", bus_id=2, p_mw=10, ufls_stage="stage1")]


def test_no_contingency_preserves_equilibrium(solved9):
    case, sol, model, states = solved9
    sim = simulate(model, states.copy(), Contingency.of("none", []),
                   SimOptions(t_end=2.0))
    assert np.nanmax(np.abs(sim.omega)) == 0.0
    assert np.all(sim.bus_freq_hz == 60.0)
    assert sim.events == []


def test_single_machine_closed_form_accel():
    # H = 3 s on the system base; dropping 0.1 pu of mechanical torque gives
    # wdot = -0.1/6 pu/s, i.e. -1 Hz/s. With a matched constant-impedance
    # load T_e is independent of the angle, so omega falls exactly linearly.
    case = tiny_case(load_mw=100.0, xdp_sys=0.2, h_sec=3.0)
    sol = solve_powerflow(case)
    model = augment_dynamic(build_ybus(case), case, sol)
    states = init_machines(model, case, sol)
    states.t_m = states.t_m - 0.1
    sim = simulate(model, states, Contingency.of("none", []),
                   SimOptions(t_end=0.5, shedding=False))
    k = 24  # 0.1 s at dt = 1/240
    slope = sim.omega[k, 0] / sim.time_s[k]
    assert slope == pytest.approx(-0.1 / 6.0, rel=1e-9)
    assert 60.0 * slope == pytest.approx(-1.0, rel=1e-9)


def test_nine_bus_average_slope_matches_system_rocof(solved9):
    case, sol, model, states = solved9
    opts = SimOptions(t_end=0.3, dt=1 / 240, shedding=False)
    sim = simulate(model, states.copy(), Contingency.of("c", ["gen3"]), opts)
    k1 = int(round(sim.t_event / opts.dt))
    k2 = int(round((sim.t_event + 0.1) / opts.dt))
    w = 2 * model.h_sec * model.s_mach
    act = ~np.isnan(sim.omega[k2])
    coi = (sim.omega[[k1, k2]][:, act] @ w[act]) / w[act].sum()
    slope = 60.0 * (coi[1] - coi[0]) / (sim.time_s[k2] - sim.time_s[k1])
    expected = system_rocof(case, 85.0, outaged_ids=["gen3"])
    assert abs(slope - expected) / abs(expected) < 0.05


@pytest.mark.parametrize("gid", ["gen1", "gen2", "gen3"])
def test_finite_difference_matches_locational(solved9, gid):
    from rocofscreen import locational_rocof
    case, sol, model, states = solved9
    opts = SimOptions(t_end=0.2, dt=1 / 200, shedding=False)
    sim = simulate(model, states.copy(), Contingency.of("c", [gid]), opts)
    fd = finite_difference_rocof(sim)
    res = locational_rocof(model, states, Contingency.of("c", [gid]))
    tol = np.maximum(0.1 * np.abs(res.bus_rocof_hz_s), 0.02)
    assert np.all(np.abs(fd - res.bus_rocof_hz_s) <= tol)


def test_halving_dt_converges(solved9):
    # integrator convergence: machine frequency is filter-free, so the
    # nadir difference isolates the RK4 step-size error
    case, sol, model, states = solved9
    nadirs = []
    for dt in (1 / 240, 1 / 480):
        sim = simulate(model, states.copy(), Contingency.of("c", ["gen3"]),
                       SimOptions(t_end=2.0, dt=dt, shedding=False))
        nadirs.append(60.0 * (1.0 + float(np.nanmin(sim.omega))))
    assert abs(nadirs[0] - nadirs[1]) < 1e-4


def test_blowup_aborts_with_diagnostic():
    case = tiny_case(load_mw=100.0, xdp_sys=0.2, h_sec=2.0)
    sol = solve_powerflow(case)
    model = augment_dynamic(build_ybus(case), case, sol)
    states = init_machines(model, case, sol)
    states.t_m = states.t_m + 5.0
    with pytest.raises(SimulationBlowup, match="g1"):
        simulate(model, states, Contingency.of("none", []),
                 SimOptions(t_end=2.0))


@pytest.mark.parametrize("field", ["t_end", "dt", "damping_d"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_options_must_be_finite(field, value):
    with pytest.raises(InputError, match=f"^{field} must be finite, got "):
        SimOptions(**{field: value})


def test_nan_speed_aborts_as_a_blowup(solved9):
    # every comparison with NaN is false, so a NaN speed used to pass the
    # abort test and fill the traces with NaN. The network couples the RK4
    # stages, so after one step every speed is NaN, and the first is named.
    case, sol, model, states = solved9
    poisoned = states.copy()
    poisoned.t_m[1] = math.nan
    with pytest.raises(SimulationBlowup, match=r"at t = 0\.0042 s: machine 'gen1' "
                                               r"reached a speed that is not a number;"):
        simulate(model, poisoned, Contingency.of("none", []),
                 SimOptions(t_end=0.5))


# --- frequency estimation -------------------------------------------------

def test_bus_frequency_constant_angle():
    opts = SimOptions(t_end=1.0)
    f = bus_frequency(np.zeros(240), opts)
    assert np.all(f == 60.0)
    assert f[0] == 60.0


def test_bus_frequency_needs_two_samples():
    with pytest.raises(ValueError):
        bus_frequency(np.zeros(1), SimOptions())


def test_bus_frequency_ramp_step_response():
    opts = SimOptions(dt=1 / 240)
    t = np.arange(0, 1.0, opts.dt)
    theta = -2 * np.pi * 0.5 * t           # steady -0.5 Hz offset
    f = bus_frequency(theta, opts)
    k5 = int(round(5 * FREQUENCY_FILTER_TC_S / opts.dt))
    assert f[0] == 60.0
    assert abs(f[k5] - 59.5) < 0.01         # within 5 time constants
    assert f[-1] == pytest.approx(59.5, abs=1e-6)


def test_bus_frequency_recovers_rocof():
    a = -2 * np.pi * 0.8                    # angle curvature, rad/s^2
    opts = SimOptions(dt=1 / 240)
    t = np.arange(0, 2.0, opts.dt)
    f = bus_frequency(0.5 * a * t**2, opts)
    tail = slice(len(t) // 2, None)
    slope = np.polyfit(t[tail], f[tail], 1)[0]
    assert slope == pytest.approx(a / (2 * np.pi), rel=1e-3)


def test_simulator_traces_match_bus_frequency(solved9):
    case, sol, model, states = solved9
    opts = SimOptions(t_end=0.5, shedding=False)
    sim = simulate(model, states.copy(), Contingency.of("c", ["gen3"]), opts)
    again = bus_frequency(sim.bus_angle_rad, opts, f_base=60.0)
    assert np.allclose(again, sim.bus_freq_hz, atol=1e-12)


# --- UFLS -------------------------------------------------------------------

def test_ufls_stage1_only_on_shallow_dip():
    dip = np.full((200, 2), 60.0)
    dip[100:, 0] = 59.25                       # below 59.3, above 58.9
    sim = make_trace_result(dip)
    events = check_ufls(sim, stage_loads())
    assert [e.load_id for e in events] == ["a1"]
    assert events[0].stage == "stage1"
    assert events[0].bus_id == 1
    assert events[0].time_s == pytest.approx(100 / 240)


def test_ufls_no_trip_above_threshold():
    dip = np.full((200, 2), 60.0)
    dip[100:, 0] = 59.35
    assert check_ufls(make_trace_result(dip), stage_loads()) == []


def test_ufls_locality():
    dip = np.full((200, 2), 60.0)
    dip[50:, 1] = 59.1                         # only bus 2 dips
    events = check_ufls(make_trace_result(dip), stage_loads())
    assert [e.load_id for e in events] == ["b1"]


def test_ufls_all_three_stages_in_order():
    f = np.full((400, 2), 60.0)
    f[100:, 0] = 59.2
    f[200:, 0] = 58.8
    f[300:, 0] = 58.4
    events = check_ufls(make_trace_result(f), stage_loads())
    assert [(e.load_id, e.stage) for e in events] == [
        ("a1", "stage1"), ("a2", "stage2"), ("a3", "stage3")]
    times = [e.time_s for e in events]
    assert times == sorted(times)


def test_ufls_trips_at_most_once():
    f = np.full((400, 1), 60.0)
    f[100:150, 0] = 59.2
    f[250:, 0] = 59.0                          # second, deeper dip
    loads = [Load(id="a1", bus_id=1, p_mw=10, ufls_stage="stage1")]
    events = check_ufls(make_trace_result(f, bus_ids=(1,)), loads)
    assert len(events) == 1
    assert events[0].time_s == pytest.approx(100 / 240)


# --- FFR --------------------------------------------------------------------

def ffr_load():
    return [Load(id="fr", bus_id=1, p_mw=20, ffr=True)]


def _ffr_trace(n_below, dt=1.0 / 240.0, total=400):
    f = np.full((total, 1), 60.0)
    f[100:100 + n_below, 0] = 59.65
    return make_trace_result(f, dt=dt, bus_ids=(1,))


def test_ffr_trips_after_25_cycles():
    # 30 cycles below 59.7: trip fires at the first sample strictly past
    # the 25-cycle boundary (101 steps of 1/240 s after entry)
    sim = _ffr_trace(n_below=121)              # 30 cycles = 120 steps
    events = check_ffr(sim, ffr_load())
    assert len(events) == 1
    assert events[0].kind == "ffr"
    assert events[0].time_s == pytest.approx((100 + 101) / 240)


def test_ffr_resets_on_recovery():
    # 20 cycles below, recovery, then 20 more: never continuous past 25
    f = np.full((400, 1), 60.0)
    f[100:180, 0] = 59.65                      # 20 cycles
    f[181:261, 0] = 59.65                      # reset, 20 cycles again
    events = check_ffr(make_trace_result(f, bus_ids=(1,)), ffr_load())
    assert events == []


def test_ffr_exactly_25_cycles_is_no_trip():
    # samples spanning exactly 25 cycles (101 samples, 100 steps): strict rule
    sim = _ffr_trace(n_below=101)
    assert check_ffr(sim, ffr_load()) == []
    sim = _ffr_trace(n_below=102)              # one step beyond: trips
    assert len(check_ffr(sim, ffr_load())) == 1


# --- in-run shedding ---------------------------------------------------------

def severe_case(case9):
    loads = [dataclasses.replace(l, ufls_stage="stage1") if l.id == "load5"
             else dataclasses.replace(l, ufls_stage="stage2") if l.id == "load6"
             else dataclasses.replace(l, ffr=True) for l in case9.loads]
    return case9.with_loads(loads)


def test_in_run_ufls_and_replay(case9):
    case = severe_case(case9)
    sol = solve_powerflow(case)
    model = augment_dynamic(build_ybus(case), case, sol)
    states = init_machines(model, case, sol)
    opts = SimOptions(t_end=6.0, damping_d=2.0)
    sim = simulate(model, states, Contingency.of("big", ["gen2", "gen3"]), opts)
    kinds = {e.kind for e in sim.events}
    assert "ufls" in kinds                      # the dip is deep enough
    times = [e.time_s for e in sim.events]
    assert times == sorted(times)
    # the post-hoc checker derives the same UFLS trips from the traces
    replay = check_ufls(sim, case.loads)
    assert [(e.load_id, e.time_s) for e in replay] == \
        [(e.load_id, e.time_s) for e in sim.events if e.kind == "ufls"]
    # tripping a load lifts the frequency: last pre-trip sample is the min
    # of the tripping bus up to that moment
    first = [e for e in sim.events if e.kind == "ufls"][0]
    assert first.frequency_hz < 59.3


def test_simulate_refactors_once_per_outage_and_trip(case9):
    case = severe_case(case9)
    sol = solve_powerflow(case)
    model = augment_dynamic(build_ybus(case), case, sol)
    states = init_machines(model, case, sol)
    before, solves = model.factor_count, model.solve_count
    sim = simulate(model, states.copy(), Contingency.of("none", []),
                   SimOptions(t_end=0.5))
    assert model.factor_count == before     # the cached base factorization
    # one full solve per step and the base factorization's machine-bus
    # block, solved on the model's first run and cached
    steps = len(sim.time_s)
    assert model.solve_count - solves == sim.n_solves == steps + 1
    assert sim.n_factorizations == 0
    solves = model.solve_count
    again = simulate(model, states.copy(), Contingency.of("none", []),
                     SimOptions(t_end=0.5))
    assert model.solve_count - solves == again.n_solves == steps
    assert np.array_equal(again.bus_freq_hz, sim.bus_freq_hz)
    solves = model.solve_count
    sim = simulate(model, states, Contingency.of("big", ["gen2", "gen3"]),
                   SimOptions(t_end=6.0, damping_d=2.0))
    trip_steps = {e.time_s for e in sim.events}
    assert trip_steps
    assert model.factor_count - before == sim.n_factorizations == 1 + len(trip_steps)
    # one block per refactor and, at a trip step, the first stage's
    # voltages re-solved on the network without the shed loads
    steps = len(sim.time_s)
    assert model.solve_count - solves == sim.n_solves == (
        steps + sim.n_factorizations + len(trip_steps))


# --- the machine-bus block against the four-solve step it replaced ----------

def four_solve_simulate(model, states, contingency, opts):
    """The simulator's loop with a full network solve at each of the four
    RK4 stages, as it was before the machine-bus block. Returns the
    (delta, omega, bus angle, bus frequency) traces and the trip log."""
    nm, nb = len(model.machine_ids), model.n_bus
    nt = int(round(opts.t_end / opts.dt)) + 1
    omega_s = 2.0 * np.pi * model.f_base
    active = np.ones(nm, dtype=bool)
    out_pos = model.machine_positions(contingency.outaged_generator_ids)
    k_event = int(round(swingsim.EVENT_TIME_S / opts.dt))
    diag_bus, diag_val = [], []

    def refactor():
        if diag_bus:
            return model.factorize(model.y_with_diag_update(
                np.array(diag_bus), np.array(diag_val, dtype=complex)))
        return model.factorize()

    lu = refactor()
    load_pos = {lid: i for i, lid in enumerate(model.load_ids)}
    monitors = swingsim._ShedMonitors(
        model.case.loads, {b: i for i, b in enumerate(model.bus_ids)}, opts.dt,
        ufls=opts.shedding, ffr=opts.shedding)
    delta, omega, t_m = states.delta.copy(), states.omega.copy(), states.t_m
    e_over_x = states.e_prime / model.xdp_sys
    inv_2h = 1.0 / (2.0 * model.h_sec)

    def derivs(dlt, omg):
        currents = norton_currents(e_over_x, dlt)
        v = lu.solve(model.to_buses(currents))
        te = netdyn.electrical_torque(model, currents, v[model.machine_bus])
        return (np.where(active, omega_s * omg, 0.0),
                np.where(active, (t_m - te - opts.damping_d * omg) * inv_2h, 0.0), v)

    tr_delta, tr_omega = np.full((nt, nm), np.nan), np.full((nt, nm), np.nan)
    tr_theta, tr_freq = np.zeros((nt, nb)), np.full((nt, nb), model.f_base)
    events, washout, dt = [], np.zeros(nb), opts.dt
    for k in range(nt):
        if k == k_event and out_pos.size:
            active[out_pos] = False
            e_over_x[out_pos] = 0.0
            diag_bus += [int(model.machine_bus[p]) for p in out_pos]
            diag_val += [-model.norton_y[p] for p in out_pos]
            lu = refactor()
        d1, o1, v_now = derivs(delta, omega)
        theta_raw = np.angle(v_now)
        if k == 0:
            tr_theta[k] = theta_raw
        else:
            tr_theta[k] = theta_raw + 2 * np.pi * np.round(
                (tr_theta[k - 1] - theta_raw) / (2 * np.pi))
            washout = swingsim._washout_step(washout, tr_theta[k] - tr_theta[k - 1], opts)
            tr_freq[k] = model.f_base + washout / (2 * np.pi)
        tr_delta[k, active] = delta[active]
        tr_omega[k, active] = omega[active]
        new_events = monitors.step(k, k * dt, tr_freq[k])
        if new_events:
            events += new_events
            for ev in new_events:
                p = load_pos[ev.load_id]
                if model.load_shunt[p] != 0:
                    diag_bus.append(int(model.load_bus[p]))
                    diag_val.append(-model.load_shunt[p])
            lu = refactor()
        if k == nt - 1:
            break
        d2, o2, _ = derivs(delta + 0.5 * dt * d1, omega + 0.5 * dt * o1)
        d3, o3, _ = derivs(delta + 0.5 * dt * d2, omega + 0.5 * dt * o2)
        d4, o4, _ = derivs(delta + dt * d3, omega + dt * o3)
        delta = delta + (dt / 6.0) * (d1 + 2 * d2 + 2 * d3 + d4)
        omega = omega + (dt / 6.0) * (o1 + 2 * o2 + 2 * o3 + o4)
    return (tr_delta, tr_omega, tr_theta, tr_freq), sorted(
        events, key=lambda e: (e.time_s, e.load_id))


def assert_matches_four_solve_step(model, states, contingency, opts):
    """simulate against four_solve_simulate: traces within 1e-12 and the
    same trip log. Every stage's terminal voltages must equal a full solve
    of its currents on the factorization in use, within 1e-12 pu. Returns
    the number of factorizations the run used."""
    handles, stages = [], []
    factorize = model.factorize

    def tracking_factorize(*args):
        handles.append(factorize(*args))
        return handles[-1]

    def recording_torque(model_, currents, vb, active=None):
        stages.append((currents.copy(), vb.copy(), handles[-1]))
        return netdyn.electrical_torque(model_, currents, vb, active)

    model.factorize = tracking_factorize
    try:
        with mock.patch.object(swingsim, "electrical_torque", recording_torque):
            sim = simulate(model, states.copy(), contingency, opts)
    finally:
        del model.factorize
    assert len(stages) == 4 * len(sim.time_s) - 3
    for currents, vb, lu in stages:
        full = lu.solve(model.to_buses(currents))[model.machine_bus]
        assert np.max(np.abs(vb - full)) <= 1e-12

    traces, events = four_solve_simulate(model, states, contingency, opts)
    for new, old in zip((sim.delta, sim.omega, sim.bus_angle_rad, sim.bus_freq_hz),
                        traces):
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-12)
    assert sim.events == events
    return len({id(lu) for lu in handles})


def test_machine_bus_block_matches_four_solve_step_with_shedding(case9):
    # factorizations before the event, after the outage and after each trip
    case = severe_case(case9)
    sol = solve_powerflow(case)
    model = augment_dynamic(build_ybus(case), case, sol)
    states = init_machines(model, case, sol)
    used = assert_matches_four_solve_step(
        model, states, Contingency.of("big", ["gen2", "gen3"]),
        SimOptions(t_end=6.0, damping_d=2.0))
    assert used >= 3


# --- the stacked-state step against the two-array loop it replaced -----------

def two_array_simulate(model, states, contingency, opts):
    """The simulator's loop before the stacked state: delta and omega as two
    arrays, rates masked by np.where, trace rows written through the active
    mask, and a refactor at every trip step. Returns a SimResult."""
    solves_before, factors_before = model.solve_count, model.factor_count
    nm, nb = len(model.machine_ids), model.n_bus
    nt = int(round(opts.t_end / opts.dt)) + 1
    time_s = np.arange(nt) * opts.dt
    omega_s = 2.0 * np.pi * model.f_base
    active = np.ones(nm, dtype=bool)
    out_pos = model.machine_positions(contingency.outaged_generator_ids)
    k_event = int(round(swingsim.EVENT_TIME_S / opts.dt))
    diag_bus, diag_val = [], []
    m_slot = model.machine_bus_slots[1]

    def refactor():
        if not diag_bus:
            return model.factorize(), model.machine_bus_block()
        lu = model.factorize(model.y_with_diag_update(
            np.array(diag_bus), np.array(diag_val, dtype=complex)))
        return lu, model.machine_bus_block(lu)

    lu, z_block = refactor()
    load_pos = {lid: i for i, lid in enumerate(model.load_ids)}
    monitors = swingsim._ShedMonitors(
        model.case.loads, {b: i for i, b in enumerate(model.bus_ids)}, opts.dt,
        ufls=opts.shedding, ffr=opts.shedding)
    delta, omega, t_m = states.delta.copy(), states.omega.copy(), states.t_m
    e_over_x = states.e_prime / model.xdp_sys
    inv_2h = 1.0 / (2.0 * model.h_sec)

    def derivs(omg, currents, vb):
        te = netdyn.electrical_torque(model, currents, vb)
        return (np.where(active, omega_s * omg, 0.0),
                np.where(active, (t_m - te - opts.damping_d * omg) * inv_2h, 0.0))

    def stage(dlt, omg):
        currents = norton_currents(e_over_x, dlt)
        return derivs(omg, currents, vb1 + (z_block @ (currents - c1))[m_slot])

    tr_delta, tr_omega = np.full((nt, nm), np.nan), np.full((nt, nm), np.nan)
    tr_theta, tr_freq = np.zeros((nt, nb)), np.full((nt, nb), model.f_base)
    events, washout, dt = [], np.zeros(nb), opts.dt
    for k in range(nt):
        t = float(time_s[k])
        if k == k_event and out_pos.size:
            active[out_pos] = False
            e_over_x[out_pos] = 0.0
            diag_bus += [int(model.machine_bus[p]) for p in out_pos]
            diag_val += [-model.norton_y[p] for p in out_pos]
            lu, z_block = refactor()
        c1 = norton_currents(e_over_x, delta)
        v_now = lu.solve(model.to_buses(c1))
        vb1 = v_now[model.machine_bus]
        d1, o1 = derivs(omega, c1, vb1)
        theta_raw = np.angle(v_now)
        if k == 0:
            tr_theta[k] = theta_raw
        else:
            tr_theta[k] = theta_raw + 2 * np.pi * np.round(
                (tr_theta[k - 1] - theta_raw) / (2 * np.pi))
            washout = swingsim._washout_step(washout, tr_theta[k] - tr_theta[k - 1], opts)
            tr_freq[k] = model.f_base + washout / (2 * np.pi)
        tr_delta[k, active] = delta[active]
        tr_omega[k, active] = omega[active]
        new_events = monitors.step(k, t, tr_freq[k])
        if new_events:
            events += new_events
            for ev in new_events:
                p = load_pos.get(ev.load_id)
                if p is not None and model.load_shunt[p] != 0:
                    diag_bus.append(int(model.load_bus[p]))
                    diag_val.append(-model.load_shunt[p])
            lu, z_block = refactor()
            vb1 = lu.solve(model.to_buses(c1))[model.machine_bus]
        if k == nt - 1:
            break
        d2, o2 = stage(delta + 0.5 * dt * d1, omega + 0.5 * dt * o1)
        d3, o3 = stage(delta + 0.5 * dt * d2, omega + 0.5 * dt * o2)
        d4, o4 = stage(delta + dt * d3, omega + dt * o3)
        delta = delta + (dt / 6.0) * (d1 + 2 * d2 + 2 * d3 + d4)
        omega = omega + (dt / 6.0) * (o1 + 2 * o2 + 2 * o3 + o4)
    return SimResult(
        time_s=time_s, machine_ids=list(model.machine_ids), delta=tr_delta,
        omega=tr_omega, bus_ids=list(model.bus_ids), bus_angle_rad=tr_theta,
        bus_freq_hz=tr_freq, events=sorted(events, key=lambda e: (e.time_s, e.load_id)),
        n_solves=model.solve_count - solves_before,
        n_factorizations=model.factor_count - factors_before)


def assert_matches_two_array_loop(model, states, contingency, opts, extra_refactors=0):
    """simulate against two_array_simulate: the four traces bit for bit (NaN
    where the other has NaN), the same trip log, and the same solve and
    factorization counts, less the extra refactors the old loop made at
    trips that shed no shunt (each one a factorization, its block solve and
    the re-solve of the first stage). Returns the new run."""
    model.machine_bus_block()               # both runs take the cached block
    sim = simulate(model, states.copy(), contingency, opts)
    old = two_array_simulate(model, states, contingency, opts)
    for name in ("delta", "omega", "bus_angle_rad", "bus_freq_hz"):
        assert np.array_equal(getattr(sim, name), getattr(old, name),
                              equal_nan=True), name
    assert sim.events == old.events
    assert sim.n_factorizations + extra_refactors == old.n_factorizations
    assert sim.n_solves + 2 * extra_refactors == old.n_solves
    return sim


@pytest.mark.parametrize("outage,t_end", [(["gen2"], 10.0), (["gen2", "gen3"], 6.0)])
def test_stacked_state_matches_two_array_loop_with_shedding(case9, outage, t_end):
    # gen2 alone for 10 s is the benchmark's shedding run
    case = severe_case(case9)
    sol = solve_powerflow(case)
    model = augment_dynamic(build_ybus(case), case, sol)
    sim = assert_matches_two_array_loop(
        model, init_machines(model, case, sol), Contingency.of("c", outage),
        SimOptions(t_end=t_end, damping_d=2.0))
    assert sim.events and np.isnan(sim.omega[-1]).sum() == len(outage)


def test_trip_without_a_shunt_does_not_refactor(case9):
    # a 0 MW stage-1 load at bus 7 trips at the outage step; its shunt is
    # zero, so the network and the factorization in use stay as they are
    case = severe_case(case9)
    case = case.with_loads(list(case.loads) + [
        Load(id="zero7", bus_id=7, p_mw=0.0, ufls_stage="stage1")])
    sol = solve_powerflow(case)
    model = augment_dynamic(build_ybus(case), case, sol)
    sim = assert_matches_two_array_loop(
        model, init_machines(model, case, sol), Contingency.of("c", ["gen2"]),
        SimOptions(t_end=1.0, damping_d=2.0), extra_refactors=1)
    assert [(e.load_id, e.time_s) for e in sim.events][0] == ("zero7", swingsim.EVENT_TIME_S)
    shunt_trips = {e.time_s for e in sim.events if e.load_id != "zero7"}
    assert len(shunt_trips) == 2
    assert sim.n_factorizations == 1 + len(shunt_trips)
