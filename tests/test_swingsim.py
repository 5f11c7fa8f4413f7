import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

import scipy.sparse.linalg as spla

from rocofscreen import (Contingency, SimOptions, SimulationBlowup,
                         SingularOutageError, build_model, bus_frequency,
                         check_ffr, check_ufls, locational_rocof,
                         locational_rocof_batch, netdyn, norton_currents,
                         simulate, swingsim, system_rocof)
from rocofscreen.case_model import InputError, Load
from rocofscreen.powerflow import SUPERLU_OPTIONS
from rocofscreen.scenarios import SIMULATE_MODE_OPTS, finite_difference_rocof
from rocofscreen.swingsim import FREQUENCY_FILTER_TC_S, SimResult
from conftest import tiny_case
from test_rocof import two_island_case


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
    _, model, states = build_model(case)
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
    _, model, states = build_model(case)
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
    _, model, states = build_model(case)
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


def test_simulate_compensates_once_per_outage_and_trip(case9):
    case = severe_case(case9)
    _, model, states = build_model(case)
    solves = model.solve_count
    sim = simulate(model, states.copy(), Contingency.of("none", []),
                   SimOptions(t_end=0.5))
    # one full solve per step and the machine-bus block, solved on the
    # model's first run and cached
    steps = len(sim.time_s)
    assert model.solve_count - solves == sim.n_solves == steps + 1
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
    # the outaged buses' columns are the block's, solved already; one solve
    # per trip step, each of which sheds a load at a bus not changed before
    # and not a machine bus; the one factorization is the model's own
    steps = len(sim.time_s)
    assert model.solve_count - solves == sim.n_solves == steps + len(trip_steps)
    assert model.factor_count == 1
    # a repeat reads the shed buses' columns from the model too
    solves = model.solve_count
    again = simulate(model, states, Contingency.of("big", ["gen2", "gen3"]),
                     SimOptions(t_end=6.0, damping_d=2.0))
    assert model.solve_count - solves == again.n_solves == steps
    assert np.array_equal(again.bus_freq_hz, sim.bus_freq_hz)


def test_screen_and_simulate_never_write_the_states(case9):
    # every states array read-only: the screen, the batch and a run with
    # shedding give the bits they give on writable states
    case = severe_case(case9)
    _, model, states = build_model(case)
    frozen = states.copy()
    for f in dataclasses.fields(frozen):
        getattr(frozen, f.name).flags.writeable = False
    names = ("bus_rocof_hz_s", "machine_accel", "post_disturbance_voltages")
    losses = [Contingency.of("c3", ["gen3"]), Contingency.of("big", ["gen2", "gen3"])]
    for c in losses:
        got, want = (locational_rocof(model, s, c) for s in (frozen, states))
        for name in names:
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True)
    got, want = (locational_rocof_batch(model, s, losses) for s in (frozen, states))
    for name in names:
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True)
    opts = SimOptions(t_end=6.0, damping_d=2.0)
    got, want = (simulate(model, s, losses[1], opts) for s in (frozen, states))
    assert got.events and got.events == want.events
    for name in ("delta", "omega", "bus_angle_rad", "bus_freq_hz"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True)


def assert_order_changes_no_bit(case, contingency, opts):
    """A screen and a run of the contingency on one model, in either order,
    against each on a fresh model, bit for bit, with the same trip log: the
    unit columns that one of them solves and the other reads are the ones
    it would have solved itself."""
    def screen(model, states):
        res = locational_rocof(model, states, contingency)
        return [res.bus_rocof_hz_s, res.machine_accel,
                res.post_disturbance_voltages], []

    def run(model, states):
        sim = simulate(model, states.copy(), contingency, opts)
        return [sim.delta, sim.omega, sim.bus_angle_rad, sim.bus_freq_hz], sim.events

    fresh = [screen(*build_model(case)[1:]), run(*build_model(case)[1:])]
    _, model, states = build_model(case)
    screen_first = [screen(model, states), run(model, states)]
    _, model, states = build_model(case)
    sim_first = run(model, states)
    for got in (screen_first, [screen(model, states), sim_first]):
        for (arrays, events), (old_arrays, old_events) in zip(got, fresh):
            assert events == old_events
            for new, old in zip(arrays, old_arrays):
                assert np.array_equal(new, old, equal_nan=True)
    return fresh[1][1]


def test_screen_and_simulate_in_either_order_on_nine_bus(case9):
    events = assert_order_changes_no_bit(
        severe_case(case9), Contingency.of("big", ["gen2", "gen3"]),
        SimOptions(t_end=6.0, damping_d=2.0))
    assert events


def test_screen_and_simulate_in_either_order_on_the_fleet(fleet_case):
    plant = [g.id for g in fleet_case.generators if g.id.startswith("g05")]
    assert_order_changes_no_bit(fleet_case, Contingency.of("c", plant[:2]),
                                SimOptions(t_end=1.0))


def test_outage_after_the_run_ends_is_an_input_error(solved9):
    # such a run never applied its outage and returned flat traces with
    # t_event = 0.1 s, as if nothing had been lost
    case, sol, model, states = solved9
    with pytest.raises(InputError, match=r"^t_end = 0\.05 s ends before the "
                                         r"contingency at 0\.1 s$"):
        simulate(model, states.copy(), Contingency.of("c", ["gen3"]),
                 SimOptions(t_end=0.05))
    sim = simulate(model, states.copy(), Contingency.of("none", []),
                   SimOptions(t_end=0.05))
    assert sim.t_event == 0.0 and len(sim.time_s) == 13


def test_singular_compensation_names_the_buses(solved9, monkeypatch):
    case, sol, model, states = solved9

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularOutageError, match=r"^contingency c: the outage and "
                       r"shed loads leave a singular network at buses \[2, 3\]$"):
        simulate(model, states.copy(), Contingency.of("c", ["gen2", "gen3"]),
                 SimOptions(t_end=0.5))


# --- compensation against the refactoring it replaced ------------------------

def refactor_simulate(model, states, contingency, opts):
    """The simulator's loop as it was before compensation: at the outage and
    at each trip step that sheds a nonzero load shunt, y_dyn with every
    diagonal change so far is factored and its machine-bus block solved.
    Returns the (delta, omega, bus angle, bus frequency) traces, the trip
    log and the number of factorizations, made outside the model."""
    nm, nb = len(model.machine_ids), model.n_bus
    nt = int(round(opts.t_end / opts.dt)) + 1
    omega_s = 2.0 * np.pi * model.f_base
    active = np.ones(nm, dtype=bool)
    out_pos = model.machine_positions(contingency.outaged_generator_ids)
    k_event = int(round(swingsim.EVENT_TIME_S / opts.dt))
    diag_bus, diag_val, factors = [], [], []
    m_bus, m_slot = model.machine_bus_slots

    def refactor():
        lu = spla.splu(model.y_with_diag_update(
            np.array(diag_bus, dtype=np.int64), np.array(diag_val, dtype=complex)),
            **SUPERLU_OPTIONS)
        factors.append(lu)
        unit_cols = np.zeros((nb, m_bus.size), dtype=complex)
        unit_cols[m_bus, np.arange(m_bus.size)] = 1.0
        return lu, lu.solve(unit_cols)[m_bus][:, m_slot]

    lu, z_block = refactor()
    load_pos = {lid: i for i, lid in enumerate(model.load_ids)}
    monitors = swingsim._ShedMonitors(
        model.loads, {b: i for i, b in enumerate(model.bus_ids)}, opts.dt,
        ufls=opts.shedding, ffr=opts.shedding)
    y = np.concatenate((states.delta, states.omega))
    e_over_x = states.e_prime / model.xdp_sys
    rate_delta, rate_omega = np.full(nm, omega_s), 1.0 / (2.0 * model.h_sec)

    def derivs(y_in, currents, vb):
        te = netdyn.electrical_torque(model, currents, vb)
        return np.concatenate((rate_delta * y_in[nm:], (
            states.t_m - te - opts.damping_d * y_in[nm:]) * rate_omega))

    def stage(y_in):
        currents = norton_currents(e_over_x, y_in[:nm])
        return derivs(y_in, currents, vb1 + (z_block @ (currents - c1))[m_slot])

    tr_y = np.empty((nt, 2 * nm))
    tr_theta, tr_freq = np.zeros((nt, nb)), np.full((nt, nb), model.f_base)
    events, washout, dt = [], np.zeros(nb), opts.dt
    for k in range(nt):
        if k == k_event and out_pos.size:
            active[out_pos] = False
            e_over_x[out_pos] = rate_delta[out_pos] = rate_omega[out_pos] = 0.0
            diag_bus += [int(model.machine_bus[p]) for p in out_pos]
            diag_val += [-model.norton_y[p] for p in out_pos]
            lu, z_block = refactor()
        c1 = norton_currents(e_over_x, y[:nm])
        v_now = lu.solve(model.to_buses(c1))
        vb1 = v_now[model.machine_bus]
        k1 = derivs(y, c1, vb1)
        theta_raw = np.angle(v_now)
        if k == 0:
            tr_theta[k] = theta_raw
        else:
            tr_theta[k] = theta_raw + 2 * np.pi * np.round(
                (tr_theta[k - 1] - theta_raw) / (2 * np.pi))
            washout = swingsim._washout_step(washout, tr_theta[k] - tr_theta[k - 1], opts)
            tr_freq[k] = model.f_base + washout / (2 * np.pi)
        tr_y[k] = y
        new_events = monitors.step(k, k * dt, tr_freq[k])
        events += new_events
        shed = [load_pos[ev.load_id] for ev in new_events
                if model.load_shunt[load_pos[ev.load_id]] != 0]
        if shed:
            diag_bus += [int(model.load_bus[p]) for p in shed]
            diag_val += [-model.load_shunt[p] for p in shed]
            lu, z_block = refactor()
            vb1 = lu.solve(model.to_buses(c1))[model.machine_bus]
        if k == nt - 1:
            break
        k2 = stage(y + 0.5 * dt * k1)
        k3 = stage(y + 0.5 * dt * k2)
        k4 = stage(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    tr_y[k_event:, np.concatenate((out_pos, nm + out_pos))] = np.nan
    return ((tr_y[:, :nm], tr_y[:, nm:], tr_theta, tr_freq),
            sorted(events, key=lambda e: (e.time_s, e.load_id)), len(factors))


def assert_matches_refactoring(model, states, contingency, opts):
    """simulate against refactor_simulate: delta, omega, bus angle and bus
    frequency within 1e-9 with the same NaN pattern, and the same trip
    log; simulate factors nothing. Returns the run and the number of
    factorizations the refactoring made."""
    factors = model.factor_count
    sim = simulate(model, states.copy(), contingency, opts)
    assert model.factor_count == factors
    traces, events, refactors = refactor_simulate(model, states, contingency, opts)
    for name, old in zip(("delta", "omega", "bus_angle_rad", "bus_freq_hz"), traces):
        new = getattr(sim, name)
        assert np.array_equal(np.isnan(new), np.isnan(old)), name
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-9, err_msg=name)
    assert sim.events == events
    return sim, refactors


@pytest.mark.parametrize("outage,t_end", [(["gen2"], 10.0), (["gen2", "gen3"], 6.0)])
def test_compensation_matches_refactoring_with_shedding(case9, outage, t_end):
    # gen2 alone for 10 s is the benchmark's shedding run
    case = severe_case(case9)
    sim, refactors = assert_matches_refactoring(
        *build_model(case)[1:], Contingency.of("c", outage),
        SimOptions(t_end=t_end, damping_d=2.0))
    assert len({e.time_s for e in sim.events}) == refactors - 2 >= 2


def test_compensation_matches_refactoring_on_the_fleet(fleet_case):
    # a two-unit plant lost on the 40-bus fleet, with its base dispatch
    _, model, states = build_model(fleet_case)
    plant = [g.id for g in fleet_case.generators if g.id.startswith("g05")]
    assert len(plant) >= 2
    assert_matches_refactoring(model, states, Contingency.of("c", plant[:2]),
                               SimOptions(t_end=1.0))


def test_compensation_matches_refactoring_on_two_islands():
    # losing gB leaves bus 3's island without a machine; the refactoring
    # keeps its load shunt and solves it to 0 V, and the compensation skips
    # the island's change and sets its voltage to zero: angle 0, 60 Hz
    _, model, states = build_model(two_island_case(True))
    sim, _ = assert_matches_refactoring(model, states, Contingency.of("c", ["gB"]),
                                        SimOptions(t_end=1.0))
    k_event = int(round(swingsim.EVENT_TIME_S / SimOptions().dt))
    k3 = model.bus_ids.index(3)
    assert np.all(sim.bus_angle_rad[k_event:, k3] == 0.0)
    assert sim.bus_freq_hz[-1, k3] == pytest.approx(60.0, abs=1e-9)


def test_island_left_with_no_shunt_reads_zero():
    # without its load, bus 3's diagonal is gB's Norton shunt alone, so the
    # refactored matrix was exactly singular (SuperLU raised RuntimeError).
    # The compensation skips that island: its voltage reads zero, as the
    # screen reports it undefined, and island A runs as with the load
    runs = []
    for with_load in (False, True):
        _, model, states = build_model(two_island_case(with_load))
        runs.append(simulate(model, states.copy(), Contingency.of("c", ["gB"]),
                             SimOptions(t_end=1.0)))
        assert model.factor_count == 1
    bare, loaded = runs
    k_event = int(round(swingsim.EVENT_TIME_S / SimOptions().dt))
    assert np.all(bare.bus_angle_rad[k_event:, 2] == 0.0)      # bus 3
    assert np.isnan(bare.omega[k_event:, 1]).all()             # gB
    island_a = {"delta": [0], "omega": [0], "bus_angle_rad": [0, 1],
                "bus_freq_hz": [0, 1]}
    for name, cols in island_a.items():
        np.testing.assert_allclose(getattr(bare, name)[:, cols],
                                   getattr(loaded, name)[:, cols],
                                   rtol=0, atol=1e-9, err_msg=name)


def grid_losses(case, n, seed):
    """n distinct two-unit losses among the dispatched units, drawn with a
    fixed seed."""
    rng = np.random.default_rng(seed)
    units = sorted(g.id for g in case.generators if g.p_mw > 0)
    return [Contingency.of(f"g{k}", [str(u) for u in rng.choice(units, 2, replace=False)])
            for k in range(n)]


def test_compensation_matches_refactoring_on_the_grid(grid71):
    case, model, states = grid71
    for ctg in grid_losses(case, 2, seed=11):
        assert_matches_refactoring(model, states, ctg, SIMULATE_MODE_OPTS)


def test_simulator_agrees_with_screen_on_the_grid(grid71):
    # criterion 2 on the 5041-bus grid: the bank's finite-difference ROCOF
    # within max(10%, 0.02 Hz/s) of the screen on every defined bus, and
    # the worst buses agree, or are within that bound of each other
    case, model, states = grid71
    for ctg in grid_losses(case, 5, seed=12):
        fd = finite_difference_rocof(simulate(model, states.copy(), ctg,
                                              SIMULATE_MODE_OPTS))
        screen = locational_rocof(model, states, ctg).bus_rocof_hz_s
        defined = ~np.isnan(screen)
        fd, screen = fd[defined], screen[defined]
        bound = np.maximum(0.1 * np.abs(screen), 0.02)
        assert np.all(np.abs(fd - screen) <= bound), ctg.id
        worst, fd_worst = np.argmin(screen), np.argmin(fd)
        assert (worst == fd_worst
                or screen[fd_worst] - screen[worst] <= bound[worst]), ctg.id


# --- the machine-bus block against the four-solve step it replaced ----------

def four_solve_simulate(model, states, contingency, opts):
    """The simulator's loop with a full network solve at each of the four
    RK4 stages, as it was before the machine-bus block, on the same
    compensated network. Returns the (delta, omega, bus angle, bus
    frequency) traces and the trip log."""
    nm, nb = len(model.machine_ids), model.n_bus
    nt = int(round(opts.t_end / opts.dt)) + 1
    omega_s = 2.0 * np.pi * model.f_base
    active = np.ones(nm, dtype=bool)
    out_pos = model.machine_positions(contingency.outaged_generator_ids)
    k_event = int(round(swingsim.EVENT_TIME_S / opts.dt))
    net = swingsim._CompensatedNetwork(model, contingency.id)
    load_pos = {lid: i for i, lid in enumerate(model.load_ids)}
    monitors = swingsim._ShedMonitors(
        model.loads, {b: i for i, b in enumerate(model.bus_ids)}, opts.dt,
        ufls=opts.shedding, ffr=opts.shedding)
    delta, omega, t_m = states.delta.copy(), states.omega.copy(), states.t_m
    e_over_x = states.e_prime / model.xdp_sys
    inv_2h = 1.0 / (2.0 * model.h_sec)

    def derivs(dlt, omg):
        currents = norton_currents(e_over_x, dlt)
        v = net.correct(net.lu.solve(model.to_buses(currents)))
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
            net.dead = model.dead_island_mask(active)
            net.add(model.machine_bus[out_pos], -model.norton_y[out_pos])
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
            shed = [load_pos[ev.load_id] for ev in new_events]
            net.add(model.load_bus[shed], -model.load_shunt[shed])
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
    of its currents on the network in use, y_dyn with the compensated
    diagonal changes so far, factored here, within 1e-12 pu. Returns the
    number of networks the run used."""
    handles, stages = [spla.splu(model.y_dyn, **SUPERLU_OPTIONS)], []
    add = swingsim._CompensatedNetwork.add

    def refactoring_add(net, bus, change):
        changed = add(net, bus, change)
        if changed:
            handles.append(spla.splu(model.y_with_diag_update(net.bus, net.d),
                                     **SUPERLU_OPTIONS))
        return changed

    def recording_torque(model_, currents, vb):
        stages.append((currents.copy(), vb.copy(), handles[-1]))
        return netdyn.electrical_torque(model_, currents, vb)

    with mock.patch.object(swingsim, "electrical_torque", recording_torque), \
            mock.patch.object(swingsim._CompensatedNetwork, "add", refactoring_add):
        sim = simulate(model, states.copy(), contingency, opts)
    assert len(stages) == 4 * len(sim.time_s) - 3
    for currents, vb, lu in stages:
        full = lu.solve(model.to_buses(currents))[model.machine_bus]
        assert np.max(np.abs(vb - full)) <= 1e-12

    traces, events = four_solve_simulate(model, states, contingency, opts)
    for new, old in zip((sim.delta, sim.omega, sim.bus_angle_rad, sim.bus_freq_hz),
                        traces):
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-12)
    assert sim.events == events
    return len(handles)


def test_machine_bus_block_matches_four_solve_step_with_shedding(case9):
    # networks before the event, after the outage and after each trip
    case = severe_case(case9)
    _, model, states = build_model(case)
    used = assert_matches_four_solve_step(
        model, states, Contingency.of("big", ["gen2", "gen3"]),
        SimOptions(t_end=6.0, damping_d=2.0))
    assert used >= 3


# --- the stacked-state step against the two-array loop it replaced -----------

def two_array_simulate(model, states, contingency, opts):
    """The simulator's loop before the stacked state: delta and omega as two
    arrays, rates masked by np.where, trace rows written through the active
    mask, and the first stage re-corrected at every trip step, on the same
    compensated network. Returns a SimResult."""
    solves_before = model.solve_count
    nm, nb = len(model.machine_ids), model.n_bus
    nt = int(round(opts.t_end / opts.dt)) + 1
    time_s = np.arange(nt) * opts.dt
    omega_s = 2.0 * np.pi * model.f_base
    active = np.ones(nm, dtype=bool)
    out_pos = model.machine_positions(contingency.outaged_generator_ids)
    k_event = int(round(swingsim.EVENT_TIME_S / opts.dt))
    net = swingsim._CompensatedNetwork(model, contingency.id)
    m_slot = model.machine_bus_slots[1]
    load_pos = {lid: i for i, lid in enumerate(model.load_ids)}
    monitors = swingsim._ShedMonitors(
        model.loads, {b: i for i, b in enumerate(model.bus_ids)}, opts.dt,
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
        return derivs(omg, currents, vb1 + (net.block @ (currents - c1))[m_slot])

    tr_delta, tr_omega = np.full((nt, nm), np.nan), np.full((nt, nm), np.nan)
    tr_theta, tr_freq = np.zeros((nt, nb)), np.full((nt, nb), model.f_base)
    events, washout, dt = [], np.zeros(nb), opts.dt
    for k in range(nt):
        t = float(time_s[k])
        if k == k_event and out_pos.size:
            active[out_pos] = False
            e_over_x[out_pos] = 0.0
            net.dead = model.dead_island_mask(active)
            net.add(model.machine_bus[out_pos], -model.norton_y[out_pos])
        c1 = norton_currents(e_over_x, delta)
        x = net.lu.solve(model.to_buses(c1))
        v_now = net.correct(x)
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
            shed = [load_pos[ev.load_id] for ev in new_events]
            net.add(model.load_bus[shed], -model.load_shunt[shed])
            vb1 = net.correct(x)[model.machine_bus]
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
        n_solves=model.solve_count - solves_before)


def assert_matches_two_array_loop(case, contingency, opts):
    """simulate against two_array_simulate, each on a fresh model of the
    case: the four traces bit for bit (NaN where the other has NaN), the
    same trip log and the same solve count, with no factorization in
    either. Returns the new run."""
    runs = []
    for run in (simulate, two_array_simulate):
        _, model, states = build_model(case)
        runs.append(run(model, states, contingency, opts))
        assert model.factor_count == 1
    sim, old = runs
    for name in ("delta", "omega", "bus_angle_rad", "bus_freq_hz"):
        assert np.array_equal(getattr(sim, name), getattr(old, name),
                              equal_nan=True), name
    assert sim.events == old.events
    assert sim.n_solves == old.n_solves
    return sim


@pytest.mark.parametrize("outage,t_end", [(["gen2"], 10.0), (["gen2", "gen3"], 6.0)])
def test_stacked_state_matches_two_array_loop_with_shedding(case9, outage, t_end):
    # gen2 alone for 10 s is the benchmark's shedding run
    sim = assert_matches_two_array_loop(
        severe_case(case9), Contingency.of("c", outage),
        SimOptions(t_end=t_end, damping_d=2.0))
    assert sim.events and np.isnan(sim.omega[-1]).sum() == len(outage)


def test_trip_without_a_shunt_does_not_refactor(case9):
    # a 0 MW stage-1 load at bus 7 trips at the outage step; its shunt is
    # zero, so the network stays as it is and the trip costs no solve
    case = severe_case(case9)
    case = case.with_loads(list(case.loads) + [
        Load(id="zero7", bus_id=7, p_mw=0.0, ufls_stage="stage1")])
    sim = assert_matches_two_array_loop(
        case, Contingency.of("c", ["gen2"]), SimOptions(t_end=1.0, damping_d=2.0))
    assert [(e.load_id, e.time_s) for e in sim.events][0] == ("zero7", swingsim.EVENT_TIME_S)
    shunt_trips = {e.time_s for e in sim.events if e.load_id != "zero7"}
    assert len(shunt_trips) == 2
    # one solve per step, the machine-bus block (which holds the outaged
    # bus's column) and one per trip that sheds a shunt at a new bus
    assert sim.n_solves == len(sim.time_s) + 1 + len(shunt_trips)
