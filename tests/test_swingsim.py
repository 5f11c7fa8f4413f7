import dataclasses

import numpy as np
import pytest

from rocofscreen import (Contingency, SimOptions, SimulationBlowup,
                         augment_dynamic, build_ybus, bus_frequency,
                         check_ffr, check_ufls, init_machines, simulate,
                         solve_powerflow, system_rocof)
from rocofscreen.case_model import Load
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
    before = model.factor_count
    simulate(model, states.copy(), Contingency.of("none", []),
             SimOptions(t_end=0.5))
    assert model.factor_count == before     # the cached base factorization
    sim = simulate(model, states, Contingency.of("big", ["gen2", "gen3"]),
                   SimOptions(t_end=6.0, damping_d=2.0))
    trip_steps = {e.time_s for e in sim.events}
    assert trip_steps
    assert model.factor_count - before == 1 + len(trip_steps)
