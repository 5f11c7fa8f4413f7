"""System-wide and per-bus theoretical ROCOF after generation-loss events.

Two functions screen per bus, over shared stages: locational_rocof one
contingency, on vectors, and locational_rocof_batch a batch, listing the
units each contingency loses as (contingency, unit) pairs for the batch
core, _screen_lost (a bank calls the core directly for each loading case,
with the pairs of the incidence it builds once, scenarios.run_bank). A
batch runs in at most two multi-right-hand-side sparse solves against the
base factorization of the network model, whatever its size; solve 1 has
one right-hand side per distinct outaged bus of the batch that the model
has not solved before, and solve 2 one per contingency. A single screen
makes no solve 2 and, once its buses are screened on the model, no solve
at all (below):

1. solve 1 gives the columns Z = Y^-1 E at the outaged buses. They depend
   on the buses alone, not on the contingency, so the model keeps them
   (NetworkModel.unit_columns): a bus's column is solved once per model,
   and a batch whose outaged buses were all screened before makes no
   solve 1. The post-disturbance voltages V follow from the
   pre-disturbance ones, v_bus = Y^-1 I, which the machine states carry
   (netdyn.init_machines): the outaged machines' currents enter only at
   their own buses, so removing them subtracts Z times those currents,
   and removing their Norton shunts is a rank-k change to the diagonal,
   applied by compensation (Alsac, Stott & Tinney, IEEE Trans. PAS, 1983)
   rather than by refactoring. The outaged buses of the update and their
   sums come from the lost machines themselves, so finding the k outaged
   buses costs work in k, not in the number of buses. A batch solves each
   contingency's k x k capacitance matrix in one stacked dense solve, and
   its correction reads only its own k columns of Z; a single screen
   solves its one matrix and reads Z in place;
2. recompute each remaining machine's electrical torque and acceleration
   wdot = (T_m - T_e) / (2 H), with mechanical torque frozen (no governors);
3. form the injection second derivative Idd = (E'/x'd) /_ delta * wdot
   (speed deviation is zero in the instant after the disturbance); the
   Norton currents and (E'/x'd) /_ delta come from the machine states,
   which keep them from initialization;
4. solve Y Vdd = Idd, with the same compensation, and convert each bus's
   voltage-angle second derivative to Hz/s via the system frequency base.

A single screen replaces solve 2 by a sum. The Norton admittances are
purely imaginary, so T_e is real-linear in the terminal voltages, and V is
v_bus less Z times the currents w drawn at the k buses: each acceleration,
and so Y^-1 Idd, is linear in the real and imaginary parts of w. The model
keeps, beside each bus's unit column, its two responses P and Q, Y^-1 of
the injections that a unit real and a unit imaginary current drawn there
drive (NetworkModel.responses, solved in one solve after solve 1 for buses
new to it), so Y^-1 Idd is a sum of 3k stored rows, which the compensation
then corrects. The single screen reads those rows in place, as the model's
own blocks, and forms V and Vdd slot by slot in elementwise multiply-adds:
no stacked copy of the rows, and no matrix product, whose BLAS threads
would cost more than the n-long work. A batch, of any size, keeps solve 2:
it would need 2|U| response columns instead of m, and a bank's loading
case is a fresh model that screens each bus once. It gathers each
contingency's columns of Z and contracts them with einsum.

Angles here follow the per-unit speed convention (delta-dot equals the
per-unit speed deviation), so the angle second derivative emerges in
per-unit-speed/s and a single f_base factor yields Hz/s.

The screen has no settings: zero speed deviation and frozen mechanical
torque are the study's definition of the theoretical ROCOF, not options.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .case_model import GridCase, InputError, total_inertia_gws
from .netdyn import MachineStates, NetworkModel, electrical_torque

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
    result. ``bus_ids`` and ``machine_ids`` are the model's own lists,
    read-only by convention as the model is.
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
    ``bus_ids`` and ``machine_ids`` are the model's own lists, as in
    RocofResult.
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

    The sum is case_model.total_inertia_gws over the case without
    ``outaged_ids`` (a machine that has tripped no longer contributes
    kinetic energy). A zero loss gives 0.0, whatever inertia remains;
    ZeroInertiaError is raised only when a nonzero loss leaves no inertia,
    the rule the per-bus screen and the simulator follow too. Raises
    InputError for a loss that is not finite.
    """
    if not math.isfinite(p_loss_mw):
        raise InputError(f"p_loss_mw must be finite, got {p_loss_mw}")
    outaged = set(outaged_ids)
    inertia_gws = total_inertia_gws(case.with_generators(
        g for g in case.generators if g.id not in outaged))
    if p_loss_mw == 0:
        return 0.0
    if inertia_gws <= 0:
        raise ZeroInertiaError(
            "no synchronous inertia remains after the disturbance")
    return -case.f_base_hz * p_loss_mw / (2000.0 * inertia_gws)


def angle_second_derivative(v, v_ddot):
    """Second time derivative of the voltage angle for V-dot = 0:
    (Vr * Vdd_i - Vi * Vdd_r) / (Vr^2 + Vi^2). Accepts scalars or arrays."""
    v = np.asarray(v, dtype=complex)
    v_ddot = np.asarray(v_ddot, dtype=complex)
    mag2 = v.real**2 + v.imag**2
    if not mag2.all():      # np.any(mag2 == 0) costs the screen ~4 us more
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
    """Theoretical per-bus ROCOF for one machine-loss contingency, on vectors.

    Costs at most two sparse linear solves against the base factorization,
    both for outaged buses new to the model: solve 1 for their unit columns
    and one for their acceleration responses (NetworkModel.responses), two
    right-hand sides per bus. A repeat solves nothing: the voltages start
    from the states' own (MachineStates.v_bus), and the voltage second
    derivatives are a sum of the stored responses. Islands that lose their
    last machine are reported as undefined rather than diverging; see
    RocofResult. Raises what locational_rocof_batch records as an error:
    UnknownIdError (NetworkModel.machine_positions), SingularOutageError
    or ZeroInertiaError.
    """
    solves_before, n = model.solve_count, model.n_bus
    mach = model.machine_positions(contingency.outaged_generator_ids)
    active = np.ones(len(model.machine_ids), dtype=bool)
    active[mach] = False
    dead, dead_mach, undefined_islands = _dead_islands(model, [contingency.id], active)
    if dead is not None:
        mach = mach[~dead_mach[mach]]
    # the k buses of the lost machines in live islands, ascending, with d
    # and i at each, as in _screen_lost; then the blocks [Z; P; Q] of their
    # unit columns and responses, the model's own rows, read in place
    bus, d, i_lost, at = _pair_sums(model, states.currents, mach, model.machine_bus[mach])
    blocks, r0 = model.responses(states, bus)
    k = bus.size
    # Z's values at the k buses, for C, and at the machine buses, for the
    # compensation sum below, read from each block
    at_index = np.concatenate((bus, model.machine_bus))
    z_at = np.empty((k, at_index.size), dtype=complex)
    for s, block in enumerate(blocks):
        block[0].take(at_index, out=z_at[s])
    cap = np.eye(k) + d[:, None] * z_at[:, :k].T
    d_rhs = np.column_stack((np.diag(d), i_lost + d * states.v_bus[bus]))
    try:
        c_inv = np.linalg.solve(cap, d_rhs)
    except np.linalg.LinAlgError as exc:
        raise _singular_outage(model, contingency.id, bus, exc) from exc
    c_inv_d, w = c_inv[:, :k], c_inv[:, k]

    # v_bus less w_s Z_s, slot by slot, in elementwise operations through a
    # scratch row of the terms below
    terms = np.empty((3, n), dtype=complex)
    v_post = states.v_bus.copy()
    for s, block in enumerate(blocks):
        v_post -= np.multiply(block[0], w[s], out=terms[0])
    if dead is not None:
        v_post[dead] = 0.0

    accel = (states.t_m - electrical_torque(
        model, states.currents, v_post[model.machine_bus])) / (2.0 * model.h_sec)
    # an outaged machine has zero acceleration here, so no injection; the
    # states keep |I| /_ delta, the first factor of injection_derivatives
    injection = states.di_ddelta * accel
    # the accelerations are R0's plus each slot's responses to the real and
    # imaginary parts of the current w_s drawn at its bus
    # (NetworkModel.responses), so Y^-1 of the injections is R0 + sum_s
    # (Re w_s P_s + Im w_s Q_s), less Z_s times the lost machines' own
    # injections at b_s: c holds each slot's coefficients of Z, P and Q.
    # The compensation needs that sum at the k buses; it takes it as Z's
    # values at the machine buses times the injections instead, since the
    # sum's terms cancel where the lost units carried no load, and a
    # near-singular C would amplify their rounding. The sum runs slot by
    # slot: one elementwise product of the block and its coefficients,
    # whose three rows are then added.
    c = np.zeros((k, 3), dtype=complex)
    c[:, 1], c[:, 2] = w.real, w.imag
    np.subtract.at(c[:, 0], at, injection[mach])
    c[:, 0] -= np.einsum("st,t->s", c_inv_d, np.einsum(
        "sp,p->s", z_at[:, k:], np.where(active, injection, 0.0)))
    v_ddot = np.zeros(n, dtype=complex) if r0 is None else r0.copy()
    for block, c_s in zip(blocks, c[:, :, None]):
        for term in np.multiply(block, c_s, out=terms):
            v_ddot += term
    if dead is not None:
        v_ddot[dead] = 0.0

    errors: list[Exception | None] = [None]
    mw_lost, sys_rocof = _loss_tail(model, states, active, [contingency.id], errors)
    if errors[0] is not None:
        raise errors[0]
    return RocofResult(
        contingency_id=contingency.id, mw_lost=float(mw_lost),
        system_rocof_hz_s=float(sys_rocof), bus_ids=model.bus_ids,
        bus_rocof_hz_s=_bus_rocof(model.f_base, v_post, v_ddot),
        machine_ids=model.machine_ids, machine_accel=np.where(active, accel, np.nan),
        post_disturbance_voltages=v_post, undefined_islands=undefined_islands[0],
        n_solves=model.solve_count - solves_before)


def locational_rocof_batch(model: NetworkModel, states: MachineStates,
                           contingencies: list[Contingency]) -> RocofBatch:
    """Theoretical per-bus ROCOF for m contingencies screened together.

    At most two multi-right-hand-side solves against the base factorization
    for the whole batch. Solve 1 is [e_U], U the union of the outaged buses
    in live islands, less the buses whose columns the model keeps from
    earlier screens and runs (no solve when that leaves none); each
    contingency's capacitance matrix, padded to the largest one, is solved
    in one stacked dense solve; solve 2 has the m injection second
    derivatives, for a batch of one too. A contingency that cannot be
    screened (an unknown machine, a singular network, no inertia left) gets
    its exception in RocofBatch.errors and NaN columns; the other columns
    are unaffected.
    An unknown machine's error names the contingency's first unknown id in
    sorted order (NetworkModel.machine_positions).

    This front end lists the units each contingency loses as (contingency,
    unit) pairs and hands them to the screen core, _screen_lost, which the
    bank runner calls with the pairs of its incidence (scenarios.run_bank).
    """
    rows = [j for j, c in enumerate(contingencies) for _ in c.outaged_generator_ids]
    units = [u for c in contingencies for u in c.outaged_generator_ids]
    return _screen_lost(model, states, [c.id for c in contingencies], rows, units)


def _lost_machines(model: NetworkModel, m: int, rows: list[int],
                   units: list[str]) -> tuple[np.ndarray, list]:
    """The m x machines mask of the model's machines that m contingencies
    lose, given as pairs (contingency rows[i] loses unit units[i]), and each
    contingency's error or None. A contingency with a unit the model has no
    machine for loses none, and its error is NetworkModel.machine_positions'
    UnknownIdError for its units, naming the first such unit in sorted
    order; the mask does not depend on the order of the pairs."""
    pos = model._machine_pos
    machine = [pos.get(u, -1) for u in units]
    lost = np.zeros((m, len(model.machine_ids)), dtype=bool)
    errors: list[Exception | None] = [None] * m
    if -1 in machine:
        for j in sorted({r for r, p in zip(rows, machine) if p < 0}):
            try:
                model.machine_positions([u for r, u in zip(rows, units) if r == j])
            except KeyError as exc:
                errors[j] = exc
        known = [i for i, r in enumerate(rows) if errors[r] is None]
        rows, machine = [rows[i] for i in known], [machine[i] for i in known]
    lost[rows, machine] = True
    return lost, errors


def _screen_lost(model: NetworkModel, states: MachineStates, ids: list[str],
                 rows: list[int], units: list[str]) -> RocofBatch:
    """The screen core of locational_rocof_batch, for m contingencies given
    as their ids and the (contingency, unit) pairs of the units each loses:
    contingency rows[i] loses unit units[i]. The pairs become the machines
    each loses (_lost_machines); a contingency with a unit the model lacks
    loses no machine and gets the unknown-unit error, and the columns of
    every contingency with an error are NaN. The arithmetic holds one row
    per contingency, machines or buses on the last axis, whatever m is."""
    solves_before, n, m = model.solve_count, model.n_bus, len(ids)
    lost, errors = _lost_machines(model, m, rows, units)
    active = ~lost
    dead, dead_mach, undefined_islands = _dead_islands(model, ids, active)
    if dead is not None:
        lost &= ~dead_mach

    # contingency j adds d to the diagonal at its buses b, the sum of the
    # -y_norton of its outaged machines there (live islands only: a dead
    # island carries no injection and is decoupled, so it solves to zero).
    # That is the rank-k update E D E^T with E the unit columns at b. By
    # Woodbury, (Y + E D E^T)^-1 r = x - Z C^-1 D x[b] with x = Y^-1 r,
    # Z = Y^-1 E and C = I + D Z[b]. Z has one column per bus of U, the
    # union of all b, kept as a row of z. The pairs (j, b) come from the
    # lost machines themselves, by contingency, then bus; slot is b's place
    # among the k_j buses of j, and blocks are padded to the largest k.
    # Solve 1's right-hand side would be I_all - E i, with i the outaged
    # machines' Norton currents at b (summed in the same pass as d). Its x
    # is v_bus - Z i, v_bus = Y^-1 I_all being kept on the states, so
    # V = v_bus - Z w with w = i + C^-1 D x[b] = C^-1 (i + D v_bus[b]), and
    # solve 1 is [e_U] alone.
    row, mach = np.nonzero(lost)
    pairs, d, i_lost, _ = _pair_sums(model, states.currents, mach,
                                     row * n + model.machine_bus[mach])
    row, bus = np.divmod(pairs, n)
    k = np.bincount(row, minlength=m)
    k_max = max(k.tolist(), default=0)
    slot = np.arange(row.size) - np.searchsorted(row, row)
    bus_of = np.zeros((m, k_max), dtype=np.int64)        # padded with bus 0
    bus_of[row, slot] = bus
    # the right-hand sides [D | i + D v_bus[b]] of the capacitance solve
    d_rhs = np.zeros((m, k_max, k_max + 1), dtype=complex)
    d_rhs[row, slot, slot] = d
    d_rhs[row, slot, k_max] = i_lost + d * states.v_bus[bus]
    # C[j, s, t] is delta_st + d_js times the column of Z at j's slot
    # t, read at b_js. A padded row of C is a unit row (d = 0), so the
    # padding solves to zero: C^-1 D vanishes outside j's k_j x k_j
    # block, and C is singular only if that block is. z_j[j, s] is the
    # row of z at j's slot s (a padded slot reads U's first, with a
    # zero coefficient).
    union = np.unique(bus)
    z = model.unit_columns(union)       # solve 1, for buses not yet cached
    d_of = np.zeros((m, k_max), dtype=complex)        # padded with 0
    d_of[row, slot] = d
    z_of = np.searchsorted(union, bus_of)
    cap = np.eye(k_max) + d_of[:, :, None] * z[z_of[:, None, :], bus_of[:, :, None]]
    z_j = z[z_of]
    try:
        c_inv = np.linalg.solve(cap, d_rhs)
    except np.linalg.LinAlgError:
        # find the singular ones; the others solve exactly as in the stack
        c_inv = np.zeros_like(d_rhs)
        for j in range(m):
            try:
                c_inv[j] = np.linalg.solve(cap[j], d_rhs[j])
            except np.linalg.LinAlgError as exc:
                errors[j] = errors[j] or _singular_outage(model, ids[j],
                                                          bus_of[j, :k[j]], exc)
    c_inv_d, w = c_inv[:, :, :k_max], c_inv[:, :, k_max]

    # einsum, not a matrix product: BLAS threads its n-long products,
    # which costs more than the k_j x n work itself
    v_post = states.v_bus - np.einsum("js,jsn->jn", w, z_j)
    if dead is not None:
        v_post[dead] = 0.0

    accel = (states.t_m - electrical_torque(
        model, states.currents, v_post[:, model.machine_bus])) / (2.0 * model.h_sec)
    # as in locational_rocof: no injection from an outaged machine
    idd = model.to_buses(np.where(active, states.di_ddelta * accel, 0.0))
    v_ddot = model.factorize().solve(idd.T).T                   # solve 2
    coef = np.einsum("jst,jt->js", c_inv_d, v_ddot[np.arange(m)[:, None], bus_of])
    v_ddot = v_ddot - np.einsum("js,jsn->jn", coef, z_j)
    if dead is not None:
        v_ddot[dead] = 0.0

    bus_rocof = _bus_rocof(model.f_base, v_post, v_ddot)
    wdot = np.where(active, accel, np.nan)
    mw_lost, sys_rocof = _loss_tail(model, states, active, ids, errors)
    failed = [j for j, e in enumerate(errors) if e is not None]
    for block in (mw_lost, sys_rocof, bus_rocof, wdot, v_post) if failed else ():
        block[failed] = np.nan
    return RocofBatch(
        contingency_ids=ids, bus_ids=model.bus_ids, machine_ids=model.machine_ids,
        mw_lost=mw_lost, system_rocof_hz_s=sys_rocof, bus_rocof_hz_s=bus_rocof.T,
        machine_accel=wdot.T, post_disturbance_voltages=v_post.T,
        undefined_islands=undefined_islands, errors=errors,
        n_solves=model.solve_count - solves_before)


def _dead_islands(model: NetworkModel, ids: list[str], active: np.ndarray) -> tuple:
    """The bus and machine masks of the islands that contingencies ids
    leave without a machine (NetworkModel.dead_islands of their active
    machines, a row each or a vector for one), or None, None if none does;
    and each one's dead islands' buses, logged as a warning."""
    dead_isl = model.dead_islands(active)
    undefined_islands: list[list[list[int]]] = [[] for _ in ids]
    # islands die only through their machines: the screens build the
    # bus-wide masks only where some island does
    if not dead_isl.any():
        return None, None, undefined_islands
    dead_isl_rows = dead_isl.reshape(len(ids), -1)
    for j in np.flatnonzero(dead_isl_rows.any(axis=1)):
        undefined_islands[j] = [
            [model.bus_ids[i] for i in np.flatnonzero(model.islands == isl)]
            for isl in np.flatnonzero(dead_isl_rows[j])]
        log.warning("contingency %s leaves %d island(s) without a machine; "
                    "ROCOF reported as undefined there",
                    ids[j], len(undefined_islands[j]))
    return (dead_isl[..., model.islands], dead_isl[..., model.machine_islands],
            undefined_islands)


def _pair_sums(model: NetworkModel, currents: np.ndarray, mach: np.ndarray,
               key: np.ndarray) -> tuple:
    """The distinct keys of the lost machines mach (a key each), ascending;
    at each key d and i, its machines' -y_norton and Norton currents summed
    in machine order, as NetworkModel.to_buses sums; and each machine's
    key place. A key whose reactances cancel (d = 0) stays: currents leave."""
    keys = np.unique(key)
    # np.unique's inverse, at about a third of return_inverse's cost
    at = np.searchsorted(keys, key)
    d = np.zeros(keys.size, dtype=complex)
    np.add.at(d, at, -model.norton_y[mach])
    i_lost = np.zeros(keys.size, dtype=complex)
    np.add.at(i_lost, at, currents[mach])
    return keys, d, i_lost, at


def _singular_outage(model: NetworkModel, contingency_id: str, buses, cause) -> Exception:
    """The error of a contingency singular at the bus positions buses."""
    error = SingularOutageError(
        f"contingency {contingency_id}: removing the outaged machines leaves "
        f"a singular network at buses {[model.bus_ids[b] for b in buses]}")
    error.__cause__ = cause
    return error


def _bus_rocof(f_base: float, v: np.ndarray, v_ddot: np.ndarray) -> np.ndarray:
    """f_base times each bus's angle second derivative (as
    angle_second_derivative computes it), NaN where |V|^2 is 1e-18 or less:
    a dead island's buses read 0 V, so they fail the test too."""
    mag2 = v.real * v.real
    mag2 += v.imag * v.imag
    rocof = v.real * v_ddot.imag
    rocof -= v.imag * v_ddot.real
    ok = mag2 > 1e-18
    if ok.all():
        rocof /= mag2
    else:
        rocof = np.divide(rocof, mag2, out=np.full(v.shape, np.nan), where=ok)
    rocof *= f_base
    return rocof


def _loss_tail(model: NetworkModel, states: MachineStates, active: np.ndarray,
               ids: list[str], errors: list) -> tuple[np.ndarray, np.ndarray]:
    """The MW lost and system ROCOF of contingencies ids, from their active
    machines; one with a loss and no inertia left gets system ROCOF 0 and,
    if it has no error yet, ZeroInertiaError in errors."""
    # a running sum adds the outaged machines in machine order
    mw_lost = np.where(active, 0.0, states.t_m * model.s_mach).cumsum(axis=-1)[..., -1]
    remaining_mws = np.where(active, model.h_sec * model.s_mach, 0.0).sum(axis=-1)
    lossy, inertia_left = mw_lost != 0.0, remaining_mws > 0
    for j in () if inertia_left.all() else np.flatnonzero(lossy & ~inertia_left):
        errors[j] = errors[j] or ZeroInertiaError(
            f"contingency {ids[j]} removes all synchronous inertia")
    sys_rocof = np.divide(-model.f_base * mw_lost, 2.0 * remaining_mws,
                          out=np.zeros(mw_lost.shape), where=lossy & inertia_left)
    return mw_lost, sys_rocof
