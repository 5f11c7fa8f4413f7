"""Classical-model time-domain simulator with UFLS/FFR monitoring.

Each machine integrates d(delta)/dt = Omega_s * omega and
d(omega)/dt = (T_m - T_e - D*omega) / (2H) with fixed-step fourth-order
Runge-Kutta; electrical torque comes from the algebraic network solve at
every stage. Governors and exciters are absent by design, isolating the
inertial response, so this serves as the validation oracle for the
theoretical ROCOF screen and as the engine for load-shedding studies.

Bus frequency is estimated from the voltage-angle derivative through a
first-order washout filter with a fixed 0.04 s time constant (raw
differentiation amplifies noise). A run aborts once any machine's speed
deviation passes 0.2 pu. Load shedding monitors act on the local bus
frequency: UFLS stages trip at first crossing of 59.3 / 58.9 / 58.5 Hz,
FFR loads trip after more than 25 cycles continuously below 59.7 Hz. A
tripped load's shunt leaves the network for the remainder of the run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .netdyn import MachineStates, NetworkModel, electrical_torque, norton_currents
from .rocof import Contingency

log = logging.getLogger(__name__)

UFLS_THRESHOLDS_HZ = {"stage1": 59.3, "stage2": 58.9, "stage3": 58.5}
FFR_THRESHOLD_HZ = 59.7
FFR_HOLD_CYCLES = 25.0
FREQUENCY_FILTER_TC_S = 0.04    # washout time constant of bus frequency
ABORT_OMEGA_PU = 0.2            # |speed deviation| that aborts a run
EVENT_TIME_S = 0.1              # contingency application time


class SimulationBlowup(RuntimeError):
    def __init__(self, t: float, machine_id: str, omega: float):
        super().__init__(
            f"numerical blow-up at t = {t:.4f} s: machine {machine_id!r} "
            f"reached |omega| = {abs(omega):.3f} pu (> {ABORT_OMEGA_PU:g}); "
            "check the case and step size")


@dataclass(frozen=True)
class SimOptions:
    t_end: float = 10.0
    dt: float = 1.0 / 240.0
    damping_d: float = 0.0              # pu torque per pu speed deviation
    shedding: bool = True               # UFLS and FFR monitors trip loads

    def __post_init__(self):
        if self.dt <= 0 or self.t_end < self.dt:
            raise ValueError("require dt > 0 and t_end >= dt")


@dataclass(frozen=True)
class TripEvent:
    time_s: float
    kind: str            # "ufls" or "ffr"
    stage: str | None
    load_id: str
    bus_id: int
    frequency_hz: float


@dataclass
class SimResult:
    """Uniform-grid traces plus the trip-event log (sorted by time).

    Machine columns follow ``machine_ids``; outaged machines hold NaN after
    the event. Bus angle traces are unwrapped radians.
    """

    time_s: np.ndarray
    machine_ids: list[str]
    delta: np.ndarray          # (nt, nm) radians
    omega: np.ndarray          # (nt, nm) pu speed deviation
    bus_ids: list[int]
    bus_angle_rad: np.ndarray  # (nt, nb)
    bus_freq_hz: np.ndarray    # (nt, nb)
    events: list[TripEvent]
    contingency_id: str = ""
    t_event: float = 0.0
    f_base: float = 60.0


def _washout_step(y_prev, d_theta, opts: SimOptions):
    """One backward-Euler step of the washout filter on an angle increment."""
    tc = FREQUENCY_FILTER_TC_S
    return (tc * y_prev + d_theta) / (tc + opts.dt)


def bus_frequency(angle_trace: np.ndarray, opts: SimOptions,
                  f_base: float = 60.0) -> np.ndarray:
    """Frequency estimate from a uniformly sampled angle trace, Hz.

    f = f_base + washout(d_theta/dt) / (2 pi), first-order filter with time
    constant FREQUENCY_FILTER_TC_S (backward-Euler discretization). The
    first sample is f_base by definition. Accepts (nt,) or (nt, nb).
    """
    theta = np.atleast_2d(np.asarray(angle_trace, dtype=float).T).T
    if theta.shape[0] < 2:
        raise ValueError("need at least 2 samples to estimate frequency")
    y = np.zeros_like(theta)
    for k in range(1, theta.shape[0]):
        y[k] = _washout_step(y[k - 1], theta[k] - theta[k - 1], opts)
    f = f_base + y / (2.0 * np.pi)
    return f[:, 0] if np.asarray(angle_trace).ndim == 1 else f


def _ffr_hold_steps(dt: float) -> float:
    """Step count equivalent to the 25-cycle hold, snapped when the grid
    aligns exactly so the strictly-greater-than rule is exact."""
    steps = (FFR_HOLD_CYCLES / 60.0) / dt
    return round(steps) if abs(steps - round(steps)) < 1e-6 else steps


class _ShedMonitors:
    """Incremental UFLS and FFR trip detection over per-bus frequency rows.

    One implementation serves both the simulator (online, so trips can
    modify the network) and the post-hoc checkers.
    """

    def __init__(self, loads, bus_pos: dict[int, int], dt: float,
                 ufls: bool = True, ffr: bool = True):
        self.dt = dt
        self.ufls = [l for l in loads if ufls and l.ufls_stage != "none"
                     and l.bus_id in bus_pos]
        self.ffr = [l for l in loads if ffr and l.ffr and l.bus_id in bus_pos]
        self.bus_pos = bus_pos
        self.tripped: set[str] = set()
        self._below_since: dict[str, int] = {}
        self._hold_steps = _ffr_hold_steps(dt)

    def step(self, k: int, t: float, freq_row: np.ndarray) -> list[TripEvent]:
        events = []
        for l in self.ufls:
            if l.id in self.tripped:
                continue
            f_here = freq_row[self.bus_pos[l.bus_id]]
            if f_here < UFLS_THRESHOLDS_HZ[l.ufls_stage]:
                self.tripped.add(l.id)
                events.append(TripEvent(t, "ufls", l.ufls_stage, l.id,
                                        l.bus_id, float(f_here)))
        for l in self.ffr:
            if l.id in self.tripped:
                continue
            f_here = freq_row[self.bus_pos[l.bus_id]]
            if f_here < FFR_THRESHOLD_HZ:
                start = self._below_since.setdefault(l.id, k)
                if (k - start) > self._hold_steps:
                    self.tripped.add(l.id)
                    events.append(TripEvent(t, "ffr", None, l.id,
                                            l.bus_id, float(f_here)))
            else:
                self._below_since.pop(l.id, None)
        return events


def check_ufls(sim: SimResult, loads) -> list[TripEvent]:
    """UFLS trips implied by the simulated frequency traces.

    A stage-s load trips at the first instant its own bus frequency drops
    below that stage's threshold; each load trips at most once.
    """
    return _replay(sim, loads, ufls=True, ffr=False)


def check_ffr(sim: SimResult, loads) -> list[TripEvent]:
    """FFR trips: a flagged load trips (by design) once its bus frequency
    has stayed below 59.7 Hz for strictly more than 25 cycles."""
    return _replay(sim, loads, ufls=False, ffr=True)


def _replay(sim: SimResult, loads, ufls: bool, ffr: bool) -> list[TripEvent]:
    dt = float(sim.time_s[1] - sim.time_s[0]) if len(sim.time_s) > 1 else 1.0
    bus_pos = {b: i for i, b in enumerate(sim.bus_ids)}
    mon = _ShedMonitors(loads, bus_pos, dt, ufls=ufls, ffr=ffr)
    events: list[TripEvent] = []
    for k, t in enumerate(sim.time_s):
        events.extend(mon.step(k, float(t), sim.bus_freq_hz[k]))
    return sorted(events, key=lambda e: (e.time_s, e.load_id))


def simulate(model: NetworkModel, states: MachineStates,
             contingency: Contingency, opts: SimOptions = SimOptions()) -> SimResult:
    """Integrate the swing equations with the contingency applied at
    EVENT_TIME_S. Returns full traces plus UFLS/FFR events; raises
    SimulationBlowup when any machine speed deviation passes
    ABORT_OMEGA_PU.
    """
    case = model.case
    nm = len(model.machine_ids)
    nb = model.n_bus
    nt = int(round(opts.t_end / opts.dt)) + 1
    time_s = np.arange(nt) * opts.dt
    omega_s = 2.0 * np.pi * model.f_base

    active = np.ones(nm, dtype=bool)
    out_pos = (model.machine_positions(contingency.outaged_generator_ids)
               if contingency.outaged_generator_ids else np.array([], dtype=np.int64))
    k_event = int(round(EVENT_TIME_S / opts.dt))

    # cumulative diagonal adjustment: machine removal at the event plus any
    # load shunts shed along the way; refactorized only when it changes
    diag_bus: list[int] = []
    diag_val: list[complex] = []

    def refactor():
        if diag_bus:
            return model.factorize(model.y_with_diag_update(
                np.array(diag_bus), np.array(diag_val, dtype=complex)))
        return model.factorize()

    lu = refactor()
    load_pos = {lid: i for i, lid in enumerate(model.load_ids)}
    bus_pos = {b: i for i, b in enumerate(model.bus_ids)}
    monitors = _ShedMonitors(case.loads, bus_pos, opts.dt,
                             ufls=opts.shedding, ffr=opts.shedding)

    delta = states.delta.copy()
    omega = states.omega.copy()
    e_over_x = states.e_prime / model.xdp_sys
    inv_2h = 1.0 / (2.0 * model.h_sec)
    t_m = states.t_m.copy()

    def derivs(dlt, omg):
        currents = norton_currents(e_over_x, dlt)      # zero once outaged
        v = lu.solve(model.to_buses(currents))
        te = electrical_torque(model, currents, v)      # inactive rows unused
        d_delta = np.where(active, omega_s * omg, 0.0)
        d_omega = np.where(
            active, (t_m - te - opts.damping_d * omg) * inv_2h, 0.0)
        return d_delta, d_omega, v

    tr_delta = np.full((nt, nm), np.nan)
    tr_omega = np.full((nt, nm), np.nan)
    tr_theta = np.zeros((nt, nb))
    tr_freq = np.full((nt, nb), model.f_base)
    events: list[TripEvent] = []
    dt = opts.dt
    washout = np.zeros(nb)

    for k in range(nt):
        t = float(time_s[k])
        if k == k_event and out_pos.size:
            active[out_pos] = False
            e_over_x[out_pos] = 0.0
            for p in out_pos:
                diag_bus.append(int(model.machine_bus[p]))
                diag_val.append(-model.norton_y[p])
            lu = refactor()

        d1, o1, v_now = derivs(delta, omega)
        theta_raw = np.angle(v_now)
        if k == 0:
            tr_theta[k] = theta_raw
        else:  # keep traces continuous across +-pi
            tr_theta[k] = theta_raw + 2 * np.pi * np.round(
                (tr_theta[k - 1] - theta_raw) / (2 * np.pi))
            washout = _washout_step(washout, tr_theta[k] - tr_theta[k - 1], opts)
            tr_freq[k] = model.f_base + washout / (2 * np.pi)
        tr_delta[k, active] = delta[active]
        tr_omega[k, active] = omega[active]

        worst = np.argmax(np.abs(np.where(active, omega, 0.0)))
        if abs(omega[worst]) > ABORT_OMEGA_PU:
            raise SimulationBlowup(t, model.machine_ids[int(worst)],
                                   float(omega[worst]))

        new_events = monitors.step(k, t, tr_freq[k])
        if new_events:
            events.extend(new_events)
            for ev in new_events:
                p = load_pos.get(ev.load_id)
                if p is not None and model.load_shunt[p] != 0:
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

    return SimResult(
        time_s=time_s,
        machine_ids=list(model.machine_ids),
        delta=tr_delta,
        omega=tr_omega,
        bus_ids=list(model.bus_ids),
        bus_angle_rad=tr_theta,
        bus_freq_hz=tr_freq,
        events=sorted(events, key=lambda e: (e.time_s, e.load_id)),
        contingency_id=contingency.id,
        t_event=EVENT_TIME_S if out_pos.size else 0.0,
        f_base=model.f_base,
    )
