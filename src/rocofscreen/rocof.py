"""System-wide and per-bus theoretical ROCOF after generation-loss events.

The per-bus screen runs in exactly two sparse linear solves per contingency
against the base factorization of the network model; solve 1 carries k
extra right-hand sides, k = distinct outaged buses:

1. remove the outaged machines' injections and solve for the
   post-disturbance voltages V. Removing their Norton shunts is a rank-k
   change to the diagonal, applied by compensation (Alsac, Stott & Tinney,
   IEEE Trans. PAS, 1983) from the columns Z = Y^-1 E at the outaged buses
   rather than by refactoring;
2. recompute each remaining machine's electrical torque and acceleration
   wdot = (T_m - T_e) / (2 H), with mechanical torque frozen (no governors);
3. form the injection second derivative Idd = (E'/x'd) /_ delta * wdot
   (speed deviation is zero in the instant after the disturbance);
4. solve Y Vdd = Idd, with the same compensation, and convert each bus's
   voltage-angle second derivative to Hz/s via the system frequency base.

Angles here follow the per-unit speed convention (delta-dot equals the
per-unit speed deviation), so the angle second derivative emerges in
per-unit-speed/s and a single f_base factor yields Hz/s.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .case_model import GridCase
from .netdyn import MachineStates, NetworkModel, electrical_torque, norton_injections

log = logging.getLogger(__name__)


class ZeroInertiaError(ValueError):
    """No synchronous inertia remains after the disturbance."""


class SingularOutageError(RuntimeError):
    """The network matrix with the outaged Norton shunts removed is singular."""


@dataclass(frozen=True)
class Contingency:
    """A sudden loss of one or more synchronous generating units.

    ``total_mw_lost`` is informational (filled by scenario generation from
    the dispatch); evaluation always re-derives the loss from the machines
    actually online.
    """

    id: str
    outaged_generator_ids: frozenset[str]
    total_mw_lost: float | None = None

    @staticmethod
    def of(id: str, gen_ids, mw_lost: float | None = None) -> "Contingency":
        return Contingency(id, frozenset(gen_ids), mw_lost)


@dataclass
class RocofResult:
    """Per-bus and system-wide ROCOF for one contingency.

    ``bus_rocof_hz_s`` is NaN on buses whose island retains no synchronous
    machine (listed in ``undefined_islands``); ``machine_accel`` is the
    per-machine speed derivative in per-unit/s, NaN for outaged machines.
    ``n_solves`` counts the linear solves the screen made on its model.
    """

    contingency_id: str
    mw_lost: float
    system_rocof_hz_s: float
    bus_ids: list[int]
    bus_rocof_hz_s: np.ndarray
    machine_ids: list[str]
    machine_accel: np.ndarray
    post_disturbance_voltages: np.ndarray
    undefined_islands: list[list[int]] = field(default_factory=list)
    n_solves: int = 0


def system_rocof(case: GridCase, p_loss_mw: float, outaged_ids=()) -> float:
    """Zero-order system ROCOF: -f_base * P_loss / (2 sum H_g S_g), Hz/s.

    The sum runs over in-service synchronous machines excluding
    ``outaged_ids`` (a machine that has tripped no longer contributes
    kinetic energy). Raises ZeroInertiaError when nothing remains.
    """
    outaged = set(outaged_ids)
    h_mws = 0.0
    for g in case.generators:
        if g.status and g.synchronous and g.id not in outaged:
            if g.h_sec is None:
                raise ValueError(f"generator {g.id!r} has no h_sec")
            h_mws += g.h_sec * g.s_base_mva
    if p_loss_mw == 0:
        return 0.0
    if h_mws <= 0:
        raise ZeroInertiaError(
            "no synchronous inertia remains after the disturbance")
    return -case.f_base_hz * p_loss_mw / (2.0 * h_mws)


def angle_second_derivative(v, v_ddot):
    """Second time derivative of the voltage angle for V-dot = 0:
    (Vr * Vdd_i - Vi * Vdd_r) / (Vr^2 + Vi^2). Accepts scalars or arrays."""
    v = np.asarray(v, dtype=complex)
    v_ddot = np.asarray(v_ddot, dtype=complex)
    mag2 = v.real**2 + v.imag**2
    if np.any(mag2 == 0):
        raise ZeroDivisionError("voltage magnitude is zero")
    out = (v.real * v_ddot.imag - v.imag * v_ddot.real) / mag2
    return float(out) if out.ndim == 0 else out


def injection_derivatives(states: MachineStates, omega_dot: np.ndarray,
                          omega: float | np.ndarray = 0.0) -> np.ndarray:
    """Second time derivative of each machine's Norton injection.

    Idd = (dI/d delta) wdot + omega^2 (d2I/d delta2), with
    dI/d delta = (E'/x'd) /_ delta and d2I/d delta2 = (E'/x'd) /_ (delta + pi/2).
    The instant after a disturbance has omega = 0 (the default), leaving
    only the first term. E'/x'd is the Norton injection magnitude.
    """
    e_over_x = np.abs(states.i_inj)
    d1 = e_over_x * np.exp(1j * states.delta)
    d2 = e_over_x * np.exp(1j * (states.delta + np.pi / 2))
    omega = np.asarray(omega)
    return d1 * np.asarray(omega_dot) + omega**2 * d2


def locational_rocof(model: NetworkModel, states: MachineStates,
                     contingency: Contingency) -> RocofResult:
    """Theoretical per-bus ROCOF for one machine-loss contingency.

    Costs exactly two sparse linear solves against the base factorization
    (one for the voltages, one for the voltage second derivative); solve 1
    carries k extra right-hand sides, k = distinct outaged buses, for the
    compensation of the removed Norton shunts. Islands that lose their last
    machine are reported as undefined rather than diverging; see
    RocofResult. Raises SingularOutageError when the outage leaves a
    singular network.
    """
    solves_before = model.solve_count
    nm = len(model.machine_ids)
    active = np.ones(nm, dtype=bool)
    if contingency.outaged_generator_ids:
        out_pos = model.machine_positions(contingency.outaged_generator_ids)
        active[out_pos] = False
    else:
        out_pos = np.array([], dtype=np.int64)

    dead = model.dead_island_mask(active)
    undefined_islands = []
    if dead.any():
        for isl in sorted(set(model.islands[dead].tolist())):
            undefined_islands.append(
                [model.bus_ids[i] for i in np.flatnonzero(model.islands == isl)])
        log.warning("contingency %s leaves %d island(s) without a machine; "
                    "ROCOF reported as undefined there",
                    contingency.id, len(undefined_islands))

    # the outage adds d to the diagonal at buses b, the rank-k update E D E^T
    # with E the unit columns at b (live islands only: a dead island carries
    # no injection and is decoupled, so it solves to zero). By Woodbury,
    # (Y + E D E^T)^-1 r = x - Z C^-1 D x[b] with x = Y^-1 r, Z = Y^-1 E and
    # C = I + D Z[b].
    live_out = out_pos[~dead[model.machine_bus[out_pos]]]
    bus, col = np.unique(model.machine_bus[live_out], return_inverse=True)
    d = np.zeros(bus.size, dtype=complex)
    np.add.at(d, col, -model.norton_y[live_out])
    rhs = np.zeros((model.n_bus, 1 + bus.size), dtype=complex)
    rhs[:, 0] = norton_injections(model, states, active)
    rhs[bus, 1 + np.arange(bus.size)] = 1.0
    lu = model.factorize()
    x = lu.solve(rhs)                                        # solve 1
    z = x[:, 1:]
    try:
        c_inv_d = np.linalg.solve(np.eye(bus.size) + d[:, None] * z[bus],
                                  np.diag(d))
    except np.linalg.LinAlgError as exc:
        raise SingularOutageError(
            f"contingency {contingency.id}: removing the outaged machines "
            f"leaves a singular network at buses "
            f"{[model.bus_ids[b] for b in bus]}") from exc

    def outage_solution(y: np.ndarray) -> np.ndarray:
        y = y - z @ (c_inv_d @ y[bus])
        y[dead] = 0.0
        return y

    v_post = outage_solution(x[:, 0])

    te = electrical_torque(model, states, v_post, active)
    wdot = np.where(active, (states.t_m - te) / (2.0 * model.h_sec), np.nan)

    idd_mach = injection_derivatives(states, np.where(active, wdot, 0.0))
    idd = np.zeros(model.n_bus, dtype=complex)
    np.add.at(idd, model.machine_bus, np.where(active, idd_mach, 0.0))
    v_ddot = outage_solution(lu.solve(idd))                  # solve 2

    ok = ~dead & (np.abs(v_post) > 1e-9)
    rocof_pu = np.full(model.n_bus, np.nan)
    rocof_pu[ok] = angle_second_derivative(v_post[ok], v_ddot[ok])
    bus_rocof = model.f_base * rocof_pu

    mw_lost = float(np.sum(states.t_m[~active] * model.s_mach[~active]))
    remaining_mws = float(np.sum(model.h_sec[active] * model.s_mach[active]))
    if mw_lost == 0.0:
        sys_rocof = 0.0
    elif remaining_mws <= 0:
        raise ZeroInertiaError(
            f"contingency {contingency.id} removes all synchronous inertia")
    else:
        sys_rocof = -model.f_base * mw_lost / (2.0 * remaining_mws)

    return RocofResult(
        contingency_id=contingency.id,
        mw_lost=mw_lost,
        system_rocof_hz_s=sys_rocof,
        bus_ids=list(model.bus_ids),
        bus_rocof_hz_s=bus_rocof,
        machine_ids=list(model.machine_ids),
        machine_accel=wdot,
        post_disturbance_voltages=v_post,
        undefined_islands=undefined_islands,
        n_solves=model.solve_count - solves_before,
    )
