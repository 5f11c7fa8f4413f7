"""System-wide and per-bus theoretical ROCOF after generation-loss events.

The per-bus screen takes a batch of contingencies (a single screen is a
batch of one) and runs in exactly two multi-right-hand-side sparse solves
per batch against the base factorization of the network model, whatever
the batch size; solve 1 carries one extra right-hand side per distinct
outaged bus of the batch:

1. remove the outaged machines' injections and solve for the
   post-disturbance voltages V. Removing their Norton shunts is a rank-k
   change to the diagonal, applied by compensation (Alsac, Stott & Tinney,
   IEEE Trans. PAS, 1983) from the columns Z = Y^-1 E at the outaged buses
   rather than by refactoring; each contingency's k x k capacitance
   matrix is solved in one stacked dense solve for the batch;
2. recompute each remaining machine's electrical torque and acceleration
   wdot = (T_m - T_e) / (2 H), with mechanical torque frozen (no governors);
3. form the injection second derivative Idd = (E'/x'd) /_ delta * wdot
   (speed deviation is zero in the instant after the disturbance);
4. solve Y Vdd = Idd, with the same compensation, and convert each bus's
   voltage-angle second derivative to Hz/s via the system frequency base.

Angles here follow the per-unit speed convention (delta-dot equals the
per-unit speed deviation), so the angle second derivative emerges in
per-unit-speed/s and a single f_base factor yields Hz/s.

The screen has no settings: zero speed deviation and frozen mechanical
torque are the study's definition of the theoretical ROCOF, not options.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .case_model import GridCase
from .netdyn import MachineStates, NetworkModel, electrical_torque, norton_currents

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
    ``n_solves`` counts the linear solves of the call that produced the
    result.
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


@dataclass
class RocofBatch:
    """Per-bus and system-wide ROCOF for m contingencies screened together.

    Column j of the bus x m blocks (``bus_rocof_hz_s``,
    ``post_disturbance_voltages``), of the machine x m block
    ``machine_accel`` and entry j of ``mw_lost`` and ``system_rocof_hz_s``
    belong to ``contingency_ids[j]``, as in RocofResult. ``errors[j]`` holds
    the exception of a contingency that could not be screened, whose
    columns are NaN. ``n_solves`` counts the linear solves of the batch.
    """

    contingency_ids: list[str]
    bus_ids: list[int]
    machine_ids: list[str]
    mw_lost: np.ndarray
    system_rocof_hz_s: np.ndarray
    bus_rocof_hz_s: np.ndarray
    machine_accel: np.ndarray
    post_disturbance_voltages: np.ndarray
    undefined_islands: list[list[list[int]]]
    errors: list[Exception | None]
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


def injection_derivatives(currents: np.ndarray, delta: np.ndarray,
                          omega_dot: np.ndarray) -> np.ndarray:
    """Second time derivative of each machine's Norton current in the
    instant after a disturbance, from the currents (netdyn.norton_currents)
    at the rotor angles delta.

    In general Idd = (dI/d delta) wdot + omega^2 (d2I/d delta2), with
    dI/d delta = (E'/x'd) /_ delta. The screen is taken at zero speed
    deviation, omega = 0, which leaves only the first term. E'/x'd is the
    Norton current's magnitude.
    """
    return np.abs(currents) * np.exp(1j * delta) * np.asarray(omega_dot)


def locational_rocof(model: NetworkModel, states: MachineStates,
                     contingency: Contingency) -> RocofResult:
    """Theoretical per-bus ROCOF for one machine-loss contingency.

    Costs exactly two sparse linear solves against the base factorization
    (one for the voltages, one for the voltage second derivative); solve 1
    carries k extra right-hand sides, k = distinct outaged buses, for the
    compensation of the removed Norton shunts. Islands that lose their last
    machine are reported as undefined rather than diverging; see
    RocofResult. Raises SingularOutageError when the outage leaves a
    singular network. This is the batch screen with one contingency.
    """
    (mw_lost, sys_rocof, bus_rocof, wdot, v_post, islands, errors,
     n_solves) = _screen(model, states, [contingency], single=True)
    if errors[0] is not None:
        raise errors[0]
    return RocofResult(
        contingency_id=contingency.id,
        mw_lost=float(mw_lost),
        system_rocof_hz_s=float(sys_rocof),
        bus_ids=list(model.bus_ids),
        bus_rocof_hz_s=bus_rocof,
        machine_ids=list(model.machine_ids),
        machine_accel=wdot,
        post_disturbance_voltages=v_post,
        undefined_islands=islands[0],
        n_solves=n_solves,
    )


def locational_rocof_batch(model: NetworkModel, states: MachineStates,
                           contingencies: list[Contingency]) -> RocofBatch:
    """Theoretical per-bus ROCOF for m contingencies screened together.

    Two multi-right-hand-side solves against the base factorization for the
    whole batch. Solve 1 is [I_1 ... I_m | e_U], U the union of the outaged
    buses in live islands; each contingency's capacitance matrix, padded to
    the largest one, is solved in one stacked dense solve; solve 2 has the
    m injection second derivatives. A contingency that cannot be screened
    (an unknown machine, a singular network, no inertia left) gets its
    exception in RocofBatch.errors and NaN columns; the other columns are
    unaffected.
    """
    (mw_lost, sys_rocof, bus_rocof, wdot, v_post, islands, errors,
     n_solves) = _screen(model, states, contingencies)
    return RocofBatch(
        contingency_ids=[c.id for c in contingencies],
        bus_ids=list(model.bus_ids),
        machine_ids=list(model.machine_ids),
        mw_lost=mw_lost,
        system_rocof_hz_s=sys_rocof,
        bus_rocof_hz_s=bus_rocof.T,
        machine_accel=wdot.T,
        post_disturbance_voltages=v_post.T,
        undefined_islands=islands,
        errors=errors,
        n_solves=n_solves,
    )


def _screen(model: NetworkModel, states: MachineStates,
            contingencies: list[Contingency], single: bool = False) -> tuple:
    """The batch screen: (MW lost, system ROCOF, bus ROCOF, machine
    accelerations, post-disturbance voltages, undefined islands, errors,
    solves). Arrays hold one row per contingency, machines or buses on the
    last axis; with single=True (one contingency) the row axis is left out
    of the per-machine and per-bus arithmetic, which is then done on
    vectors, and the stacked parts see one row."""
    solves_before = model.solve_count
    n, m, nm = model.n_bus, len(contingencies), len(model.machine_ids)
    ids = [c.id for c in contingencies]
    errors: list[Exception | None] = [None] * m
    active = np.ones((nm,) if single else (m, nm), dtype=bool)
    active_rows = active.reshape(m, nm)
    for j, ctg in enumerate(contingencies):
        try:
            active_rows[j, model.machine_positions(ctg.outaged_generator_ids)] = False
        except KeyError as exc:
            errors[j] = exc

    dead = model.dead_island_mask(active)
    dead_rows = dead.reshape(m, n)
    any_dead = dead.any()
    undefined_islands: list[list[list[int]]] = [[] for _ in range(m)]
    for j in np.flatnonzero(dead_rows.any(axis=1)) if any_dead else ():
        undefined_islands[j] = [
            [model.bus_ids[i] for i in np.flatnonzero(model.islands == isl)]
            for isl in sorted(set(model.islands[dead_rows[j]].tolist()))]
        log.warning("contingency %s leaves %d island(s) without a machine; "
                    "ROCOF reported as undefined there",
                    ids[j], len(undefined_islands[j]))

    # contingency j adds d to the diagonal at its buses b, the sum of the
    # -y_norton of its outaged machines there (live islands only: a dead
    # island carries no injection and is decoupled, so it solves to zero).
    # That is the rank-k update E D E^T with E the unit columns at b. By
    # Woodbury, (Y + E D E^T)^-1 r = x - Z C^-1 D x[b] with x = Y^-1 r,
    # Z = Y^-1 E and C = I + D Z[b]. Z has one column per bus of U, the
    # union of all b. Pairs (j, b) run by contingency, then bus; slot is b's
    # place among the k_j buses of j, and blocks are padded to the largest k.
    lost = ~active
    if any_dead:
        lost &= ~dead.T[model.machine_bus].T
    d_bus = model.to_buses(np.where(lost, -model.norton_y, 0.0)).reshape(m, n)
    row, bus = np.nonzero(d_bus)
    k = np.bincount(row, minlength=m)
    k_max = max(k.tolist(), default=0)
    slot = np.arange(row.size) - np.searchsorted(row, row)
    union = np.flatnonzero(np.bincount(bus, minlength=n))
    bus_of = np.zeros((m, k_max), dtype=np.int64)        # padded with bus 0
    bus_of[row, slot] = bus
    d_of = np.zeros((m, k_max), dtype=complex)            # padded with 0
    d_of[row, slot] = d_bus[row, bus]
    z_of = np.searchsorted(union, bus_of)

    # rows of rhs are the right-hand sides [I_1 ... I_m | e_U]; the currents
    # at the initial angles also give the torque and their derivatives
    currents = norton_currents(states.e_prime / model.xdp_sys, states.delta)
    rhs = np.zeros((m + union.size, n), dtype=complex)
    rhs[:m] = model.to_buses(np.where(active, currents, 0.0))
    rhs[m + np.arange(union.size), union] = 1.0
    lu = model.factorize()
    x = lu.solve(rhs.T).T                                    # solve 1
    z = x[m:]
    # a padded row of C is a unit row (d = 0), so the padding solves to
    # zero: C^-1 D vanishes outside j's k_j x k_j block, and C is singular
    # only if that block is. one_hot[j] picks the row of Z for each slot, so
    # z_coef[j] maps j's x[b] to the coefficients of the rows of Z.
    cap = np.eye(k_max) + d_of[:, :, None] * z[z_of[:, None, :], bus_of[:, :, None]]
    d_diag = d_of[:, :, None] * np.eye(k_max)
    try:
        c_inv_d = np.linalg.solve(cap, d_diag)
    except np.linalg.LinAlgError:
        # find the singular ones; the others solve exactly as in the stack
        c_inv_d = np.zeros_like(cap)
        for j in range(m):
            try:
                c_inv_d[j] = np.linalg.solve(cap[j], d_diag[j])
            except np.linalg.LinAlgError as exc:
                if errors[j] is None:
                    errors[j] = SingularOutageError(
                        f"contingency {ids[j]}: removing the outaged machines "
                        f"leaves a singular network at buses "
                        f"{[model.bus_ids[b] for b in bus_of[j, :k[j]]]}")
                    errors[j].__cause__ = exc
    if m == 1:          # one contingency: its slots are U, in order
        z_coef = c_inv_d
    else:
        one_hot = np.zeros((m, union.size, k_max))
        one_hot[row, z_of[row, slot], slot] = 1.0
        z_coef = one_hot @ c_inv_d
    at_bus = np.arange(m)[:, None] * n + bus_of             # flat, in m x n

    def outage_solution(y: np.ndarray) -> np.ndarray:
        y = y - (z_coef @ np.take(y, at_bus)[:, :, None])[:, :, 0] @ z
        if any_dead:
            y[dead_rows] = 0.0
        return y.reshape(dead.shape)

    v_post = outage_solution(x[:m])

    accel = (states.t_m - electrical_torque(model, currents, v_post, active)) / (
        2.0 * model.h_sec)
    wdot = np.where(active, accel, np.nan)
    # an outaged machine has zero acceleration here, so no injection
    idd = model.to_buses(injection_derivatives(currents, states.delta,
                                               np.where(active, accel, 0.0)))
    v_ddot = outage_solution(lu.solve(idd.reshape(m, n).T).T)   # solve 2

    ok = np.abs(v_post) > 1e-9
    if any_dead:
        ok &= ~dead
    rocof_pu = np.full(dead.shape, np.nan)
    rocof_pu[ok] = angle_second_derivative(v_post[ok], v_ddot[ok])
    bus_rocof = model.f_base * rocof_pu

    # a running sum adds the outaged machines in machine order
    mw_lost = np.where(active, 0.0, states.t_m * model.s_mach).cumsum(axis=-1)[..., -1]
    remaining_mws = np.where(active, model.h_sec * model.s_mach, 0.0).sum(axis=-1)
    lossy, inertia_left = mw_lost != 0.0, remaining_mws > 0
    for j in () if inertia_left.all() else np.flatnonzero(lossy & ~inertia_left):
        errors[j] = errors[j] or ZeroInertiaError(
            f"contingency {ids[j]} removes all synchronous inertia")
    sys_rocof = np.divide(-model.f_base * mw_lost, 2.0 * remaining_mws,
                          out=np.zeros(mw_lost.shape), where=lossy & inertia_left)

    failed = [j for j, e in enumerate(errors) if e is not None]
    for block in (mw_lost, sys_rocof, bus_rocof, wdot, v_post) if failed else ():
        block.reshape(m, -1)[failed] = np.nan
    return (mw_lost, sys_rocof, bus_rocof, wdot, v_post, undefined_islands,
            errors, model.solve_count - solves_before)
