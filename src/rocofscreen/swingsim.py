"""Classical-model time-domain simulator with UFLS/FFR monitoring.

Each machine integrates d(delta)/dt = Omega_s * omega and
d(omega)/dt = (T_m - T_e - D*omega) / (2H) with fixed-step fourth-order
Runge-Kutta; electrical torque comes from the machine terminal voltages of
the algebraic network. Only those voltages enter the derivatives, so a step
makes one sparse solve: the first stage solves the whole network (the bus
traces and the monitors need every bus), and the later stages add the
change in machine currents through the machine-bus block of Y^-1 (the
classical model reduced to its machine buses, in increment form). The
outage and each load trip change bus diagonals, applied by compensation of
the model's one factorization, as the screen applies an outage. Both read
the model's store of unit columns, their only copy (NetworkModel.unit_columns).
Governors and exciters are absent by design, isolating the inertial
response, so this serves as the validation oracle for the theoretical ROCOF
screen and as the engine for load-shedding studies.

The integrator advances one stacked state [delta; omega], whose two
right-hand sides are scaled by per-machine rates Omega_s and 1/(2H). At
the event an outaged machine's rates are zeroed, so its finite angle and
speed gain only +-0 and stay as they were (its trace columns read NaN from
the event on); the run matches a masked integration bit for bit.

Bus frequency is estimated from the voltage-angle derivative through a
first-order washout filter with a fixed 0.04 s time constant (raw
differentiation amplifies noise). A run aborts once any machine's speed
deviation passes 0.2 pu. Load shedding monitors act on the local bus
frequency: UFLS stages trip at first crossing of 59.3 / 58.9 / 58.5 Hz,
FFR loads trip after more than 25 cycles continuously below 59.7 Hz. A
tripped load's shunt leaves the network for the remainder of the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .case_model import InputError
from .netdyn import MachineStates, NetworkModel, electrical_torque, norton_currents
from .rocof import Contingency, SingularOutageError, ZeroInertiaError

UFLS_THRESHOLDS_HZ = {"stage1": 59.3, "stage2": 58.9, "stage3": 58.5}
FFR_THRESHOLD_HZ = 59.7
FFR_HOLD_CYCLES = 25.0
FREQUENCY_FILTER_TC_S = 0.04    # washout time constant of bus frequency
ABORT_OMEGA_PU = 0.2            # |speed deviation| that aborts a run
EVENT_TIME_S = 0.1              # contingency application time


class SimulationBlowup(RuntimeError):
    def __init__(self, t: float, machine_id: str, omega: float):
        speed = ("a speed that is not a number" if math.isnan(omega) else
                 f"|omega| = {abs(omega):.3f} pu (> {ABORT_OMEGA_PU:g})")
        super().__init__(
            f"numerical blow-up at t = {t:.4f} s: machine {machine_id!r} "
            f"reached {speed}; check the case and step size")


@dataclass(frozen=True)
class SimOptions:
    t_end: float = 10.0
    dt: float = 1.0 / 240.0
    damping_d: float = 0.0              # pu torque per pu speed deviation
    shedding: bool = True               # UFLS and FFR monitors trip loads

    def __post_init__(self):
        for name in ("t_end", "dt", "damping_d"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0 or self.t_end < self.dt:
            raise InputError("require dt > 0 and t_end >= dt")


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
    n_solves: int = 0           # linear solves made by the run


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


class _CompensatedNetwork:
    """The network after diagonal changes D at distinct buses U, solved on
    the model's factorization by compensation (Alsac, Stott & Tinney, IEEE
    Trans. PAS, 1983): with Z = Y^-1 E_U, C = I + D Z[U] and G = Z C^-1 D,
    it solves r as x - G x[U], x = Y^-1 r, and (Y being complex symmetric)
    its machine-bus block is the run's base block less G Z^T there. Z is
    read from the model's store at each change, not kept. Changes in
    ``dead`` islands, left without an active machine, are skipped: such an
    island carries no current, and its buses read exactly zero."""

    def __init__(self, model: NetworkModel, contingency_id: str):
        self.model, self.id = model, contingency_id
        self.lu, self.base = model.factorize(), model.machine_bus_block()
        self.block, self.dead = self.base, model.dead_island_mask()
        self.bus, self.d = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex)
        self.g = np.zeros((model.n_bus, 0), dtype=complex)

    def add(self, bus: np.ndarray, change: np.ndarray) -> bool:
        """Add changes at bus positions; says whether the network changed."""
        keep = (change != 0) & ~self.dead[bus]
        if not keep.any():
            return False
        bus, change = bus[keep], change[keep]
        new = np.setdiff1d(bus, self.bus)
        self.bus, self.d = np.r_[self.bus, new], np.r_[self.d, np.zeros(new.size)]
        np.add.at(self.d, np.argmax(bus[:, None] == self.bus, axis=1), change)
        # Z row-major, n x |U|: its products round by its layout
        z = np.ascontiguousarray(self.model.unit_columns(self.bus).T)
        cap = np.eye(self.bus.size) + self.d[:, None] * z[self.bus]
        try:
            self.g = z @ np.linalg.solve(cap, np.diag(self.d))
        except np.linalg.LinAlgError as exc:
            raise SingularOutageError(
                f"contingency {self.id}: the outage and shed loads leave a singular "
                f"network at buses {[self.model.bus_ids[b] for b in self.bus]}") from exc
        m_bus, m_slot = self.model.machine_bus_slots
        self.block = self.base - (self.g[m_bus] @ z[m_bus].T)[:, m_slot]
        return True

    def correct(self, x: np.ndarray) -> np.ndarray:
        """The changed network's bus voltages, from the base solution x."""
        v = x - self.g @ x[self.bus]
        v[self.dead] = 0.0
        return v


def simulate(model: NetworkModel, states: MachineStates,
             contingency: Contingency, opts: SimOptions = SimOptions()) -> SimResult:
    """Integrate the swing equations with the contingency applied at
    EVENT_TIME_S. Returns full traces plus UFLS/FFR events. Raises, as the
    screen does, ZeroInertiaError for a loss that leaves no inertia and
    SingularOutageError for a singular network; SimulationBlowup when a
    speed deviation passes ABORT_OMEGA_PU or is not a number; InputError
    when a run with an outage ends before EVENT_TIME_S.

    Each step makes one solve on the model's factorization, which is never
    refactored: the outage and each trip that sheds a load shunt are
    compensations (_CompensatedNetwork). Their columns are the model's unit
    columns, solved once per model: the outaged buses' with the machine-bus
    block, and a shed load's bus at its first trip. The states are read,
    never written.
    """
    solves_before = model.solve_count
    nm, nb = len(model.machine_ids), model.n_bus
    nt = int(round(opts.t_end / opts.dt)) + 1
    time_s = np.arange(nt) * opts.dt
    omega_s = 2.0 * np.pi * model.f_base

    active = np.ones(nm, dtype=bool)
    out_pos = model.machine_positions(contingency.outaged_generator_ids)
    k_event = int(round(EVENT_TIME_S / opts.dt))
    if out_pos.size and k_event > nt - 1:
        raise InputError(f"t_end = {opts.t_end:g} s ends before the contingency "
                         f"at {EVENT_TIME_S:g} s")
    # the screen's rule: a loss that leaves no inertia has no frequency trace
    kept = np.ones(nm, dtype=bool)
    kept[out_pos] = False
    if (np.sum(states.t_m * model.s_mach, where=~kept) != 0.0
            and not np.sum(model.h_sec * model.s_mach, where=kept) > 0):
        raise ZeroInertiaError(
            f"contingency {contingency.id} removes all synchronous inertia")

    # the network less the outaged machines and the shed loads, and each
    # machine's slot among the distinct machine buses
    net, m_slot = _CompensatedNetwork(model, contingency.id), model.machine_bus_slots[1]
    load_pos = {lid: i for i, lid in enumerate(model.load_ids)}
    bus_pos = {b: i for i, b in enumerate(model.bus_ids)}
    monitors = _ShedMonitors(model.loads, bus_pos, opts.dt,
                             ufls=opts.shedding, ffr=opts.shedding)

    # the stacked state [delta; omega]; an outaged machine's rates are zeroed
    y = np.concatenate((states.delta, states.omega))
    e_over_x = states.e_prime / model.xdp_sys
    rate_delta = np.full(nm, omega_s)
    rate_omega = 1.0 / (2.0 * model.h_sec)

    def derivs(y_in, currents, vb):
        te = electrical_torque(model, currents, vb)     # outaged rows meet a zero rate
        omg = y_in[nm:]
        dy = np.empty(2 * nm)
        np.multiply(rate_delta, omg, out=dy[:nm])
        np.multiply(states.t_m - te - opts.damping_d * omg, rate_omega, out=dy[nm:])
        return dy

    def stage(y_in):
        # the first stage's terminal voltages plus the response to the
        # change in current: exact when the currents have not changed
        currents = norton_currents(e_over_x, y_in[:nm])     # zero once outaged
        vb = vb1 + (net.block @ (currents - c1))[m_slot]
        return derivs(y_in, currents, vb)

    tr_y = np.empty((nt, 2 * nm))
    tr_theta, tr_freq = np.zeros((nt, nb)), np.full((nt, nb), model.f_base)
    events: list[TripEvent] = []
    washout, dt = np.zeros(nb), opts.dt

    for k in range(nt):
        t = float(time_s[k])
        if k == k_event and out_pos.size:
            active[out_pos] = False
            e_over_x[out_pos] = 0.0
            rate_delta[out_pos] = 0.0
            rate_omega[out_pos] = 0.0
            net.dead = model.dead_island_mask(active)
            net.add(model.machine_bus[out_pos], -model.norton_y[out_pos])

        c1 = norton_currents(e_over_x, y[:nm])
        x = net.lu.solve(model.to_buses(c1))
        v_now = net.correct(x)
        vb1 = v_now[model.machine_bus]
        k1 = derivs(y, c1, vb1)
        theta_raw = np.angle(v_now)
        if k == 0:
            tr_theta[k] = theta_raw
        else:  # keep traces continuous across +-pi
            tr_theta[k] = theta_raw + 2 * np.pi * np.round(
                (tr_theta[k - 1] - theta_raw) / (2 * np.pi))
            washout = _washout_step(washout, tr_theta[k] - tr_theta[k - 1], opts)
            tr_freq[k] = model.f_base + washout / (2 * np.pi)
        tr_y[k] = y      # outaged columns become NaN after the loop

        # a NaN speed fails the test; the worst machine is named only then
        omega = y[nm:]
        if not np.abs(omega).max(initial=0.0, where=active) <= ABORT_OMEGA_PU:
            worst = np.argmax(np.abs(np.where(active, omega, 0.0)))
            raise SimulationBlowup(t, model.machine_ids[int(worst)],
                                   float(omega[worst]))

        new_events = monitors.step(k, t, tr_freq[k])
        if new_events:
            events.extend(new_events)
            shed = [load_pos[ev.load_id] for ev in new_events]
            if net.add(model.load_bus[shed], -model.load_shunt[shed]):
                # the later stages see the network without the shed loads
                vb1 = net.correct(x)[model.machine_bus]

        if k == nt - 1:
            break
        k2 = stage(y + 0.5 * dt * k1)
        k3 = stage(y + 0.5 * dt * k2)
        k4 = stage(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    tr_y[k_event:, np.concatenate((out_pos, nm + out_pos))] = np.nan
    return SimResult(
        time_s=time_s, machine_ids=list(model.machine_ids),
        delta=tr_y[:, :nm].copy(), omega=tr_y[:, nm:].copy(),
        bus_ids=list(model.bus_ids), bus_angle_rad=tr_theta, bus_freq_hz=tr_freq,
        events=sorted(events, key=lambda e: (e.time_s, e.load_id)),
        contingency_id=contingency.id, t_event=EVENT_TIME_S if out_pos.size else 0.0,
        f_base=model.f_base, n_solves=model.solve_count - solves_before)
