"""Dynamic network model: admittance matrix, Norton machine equivalents,
and classical machine initialization, joined by ``build_model``, the one
entry point from a case to its power flow, model and machine states. It
reads the case's unit, load and bus fields once into arrays
(case_model.GridCase.arrays) and builds from them alone
(``_build_model``), the one model build: a bank's loading case enters it
with its case's arrays re-dispatched (scenarios.run_bank), so neither
path copies or reads a unit or load record per loading case.

The dynamic admittance matrix extends the branch network with constant
impedance shunts for loads and non-synchronous generation, plus one Norton
shunt 1/(j x'd) per in-service synchronous machine (system base). With
machine current injections I on the right-hand side, Y V = I recovers the
terminal voltages; the factorization is reused for every algebraic solve,
and solves are counted so screening cost claims can be asserted. Its
pattern is structurally symmetric, so SuperLU orders it by minimum degree on
A^T + A and keeps diagonal pivots, with panel size 1: on the 5041-bus grid
that factors y_dyn in 7.4 ms instead of 9.8 at SuperLU's default panel of
10, with the same fill of 164,392 entries (powerflow.SUPERLU_OPTIONS). The
unit columns Y^-1 e_b that the screen's and the simulator's compensations
need are solved once per model and kept in one store, their only copy
(NetworkModel.unit_columns); beside a single screen's columns the model
keeps their acceleration responses for one machine states object, so a
repeat single screen makes no solve (NetworkModel.responses).

Machine-base to system-base conversion happens exactly once, here:
    x_sys = x_mach * s_base_sys / s_base_mach      (impedance)
    t_mach = p_sys * s_base_sys / s_base_mach      (torque/power)

The machine-network interface is defined once, here: ``norton_currents``
(E'/x'd) /_ (delta - pi/2), the machine-to-bus sum ``NetworkModel.to_buses``
and ``electrical_torque``. Their users are ``init_machines``, the screen
(``rocof.locational_rocof_batch``) and the simulator (``swingsim.simulate``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .case_model import (CaseArrays, GridCase, Load, UnknownIdError,
                         island_labels, record_array)
from .powerflow import SUPERLU_OPTIONS, PowerFlowSolution, _newton


class ModelBuildError(ValueError):
    """Case cannot be turned into a dynamic model (missing data, bad values)."""


class SingularNetworkError(RuntimeError):
    """The dynamic admittance matrix is singular, as an island with no
    machine and no shunt to ground makes it."""


def build_ybus(case: GridCase) -> sp.csc_matrix:
    """Branch-network bus admittance matrix (pi model with off-nominal taps).

    Convention: series admittance ys = 1/(r + jx) appears as +ys (plus half
    charging) on the diagonals and -ys off-diagonal; a from-side tap t scales
    the from diagonal by 1/t**2 and both off-diagonals by 1/t. Loads and
    machines are not included; see augment_dynamic.
    """
    live = [br for br in case.branches if br.status]
    z = np.empty(len(live), dtype=complex)
    z.real, z.imag = record_array(live, "r_pu"), record_array(live, "x_pu")
    if (z == 0).any():
        br = live[int(np.argmax(z == 0))]
        raise ModelBuildError(
            f"branch {br.from_bus}-{br.to_bus} has zero impedance")
    i, j = case.bus_positions(np.concatenate(
        [record_array(live, end, np.int64) for end in ("from_bus", "to_bus")])
    ).reshape(2, -1)
    tap = record_array(live, "tap_ratio")
    tap = np.where(tap == 0, 1.0, tap)
    ys = _quotient(1.0, z)
    shunt = ys + 0.5j * record_array(live, "b_pu")
    tapped, off = _quotient(np.concatenate((shunt, -ys)),
                            np.concatenate((_square(tap), tap))).reshape(2, -1)
    # four entries per branch, branch by branch: the order in which
    # tocsc() sums a bus's entries
    rows, cols, data = (np.array(e).T.reshape(-1) for e in (
        (i, j, i, j), (i, j, j, i), (tapped, shunt, off, off)))
    n = len(case.buses)
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n), dtype=complex).tocsc()


def _quotient(a, b) -> np.ndarray:
    """Elementwise a / b, rounded as Python divides complex numbers: Smith's
    method, both parts divided by a denominator scaled by the divisor's
    larger part. numpy's complex division multiplies by that denominator's
    reciprocal instead, which rounds differently. Real arguments are the
    complex numbers with zero imaginary part, as in Python."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_real = np.abs(br) >= np.abs(bi)
    big, small = np.where(by_real, br, bi), np.where(by_real, bi, br)
    ratio = small / big
    denom = big + small * ratio
    re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return out


def _square(x: np.ndarray) -> np.ndarray:
    """x ** 2 elementwise through the C library's pow, as Python and numpy
    scalars square a float; x * x, which numpy's array power computes,
    rounds differently in about one draw in a thousand."""
    return np.array([xi ** 2 for xi in x.tolist()], dtype=float)


def _group_sums(values: np.ndarray, group: np.ndarray, n: int) -> np.ndarray:
    """Sum of the values in each of n groups, rounded as ``ndarray.sum()``
    rounds the group's values in record order: numpy adds fewer than eight
    values one after another, as ``np.add.at`` does, and more pairwise."""
    out = np.zeros(n)
    np.add.at(out, group, values)
    for g in np.flatnonzero(np.bincount(group, minlength=n) >= 8):
        out[g] = values[group == g].sum()
    return out


class CountingLU:
    """splu handle that counts linear-system solutions on its owner model."""

    def __init__(self, lu, owner: "NetworkModel"):
        self._lu = lu
        self._owner = owner

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        self._owner.solve_count += 1
        return self._lu.solve(rhs)


@dataclass(eq=False)
class NetworkModel:
    """Factorized dynamic network plus the static machine table.

    Arrays are aligned with ``machine_ids`` (in-service synchronous machines,
    case order). The model keeps no case: a bank's loading case builds
    from arrays, and no dispatched case exists. It keeps what its readers
    need: ``loads``, the load records of the case it was built from (for a
    loading case, the bank's case), whose ids, buses, UFLS stages and FFR
    flags the simulator's shedding monitors read and a loading case does
    not change (their MW are the case's, before a loading case's scale;
    the model's load admittances are ``load_shunt``), and the bus, machine
    and load ids that init_machines checks a case against. The model is
    read-only by convention after build, and equal only to itself. It has
    one factorization, of y_dyn, made at build: the screen and the
    simulator apply outages and load trips to it by compensation, never by
    refactoring, with the unit columns of Y^-1 in the model's store
    (``unit_columns``), their only copy, and a single screen's acceleration
    responses beside them (``responses``).
    ``solve_count`` counts linear solves and ``factor_count`` sparse LU
    factorizations made on this model; the cached factorization counts
    once, when made, and a stored unit column or response once, when
    solved.
    """

    loads: tuple[Load, ...]
    bus_ids: list[int]
    y_dyn: sp.csc_matrix
    machine_ids: list[str]
    machine_bus: np.ndarray        # bus position per machine
    xdp_sys: np.ndarray            # transient reactance, system base
    norton_y: np.ndarray           # 1/(j xdp_sys)
    h_sec: np.ndarray              # machine base, seconds
    s_mach: np.ndarray             # machine MVA bases
    s_solved: np.ndarray           # solved complex output, system-base pu
    load_ids: list[str]
    load_bus: np.ndarray
    load_shunt: np.ndarray         # constant-impedance load admittances
    islands: np.ndarray            # island label per bus
    f_base: float
    s_base: float
    solve_count: int = 0
    factor_count: int = 0
    _lu: CountingLU | None = field(default=None, repr=False)
    # the store of unit columns: each bus position requested so far and its
    # solved row, the only copy of those rows
    _unit: dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    # the store of acceleration responses (``responses``), valid for the
    # one states object _response_states: each bus position's [Z; P; Q]
    # block, whose row Z is the bus's row in _unit, and R0 (None for zero)
    _response: dict[int, np.ndarray] = field(default_factory=dict, init=False,
                                             repr=False)
    _response_states: MachineStates | None = field(default=None, init=False,
                                                   repr=False)
    _r0: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def n_bus(self) -> int:
        return len(self.bus_ids)

    @cached_property
    def _machine_pos(self) -> dict[str, int]:
        return {gid: k for k, gid in enumerate(self.machine_ids)}

    @cached_property
    def _n_islands(self) -> int:
        return int(self.islands.max()) + 1 if self.n_bus else 0

    def machine_positions(self, gen_ids) -> np.ndarray:
        """The positions of the machines gen_ids names, ascending. An id
        with no machine here raises UnknownIdError naming the first such id
        in sorted order, so a set of ids gives the same error in any
        iteration order (and under any PYTHONHASHSEED)."""
        pos, ids = self._machine_pos, tuple(gen_ids)
        unknown = [gid for gid in ids if gid not in pos]
        if unknown:
            raise UnknownIdError(
                f"generator {min(unknown)!r} is not an in-service synchronous "
                "machine of this model")
        return np.array(sorted(pos[gid] for gid in ids), dtype=np.int64)

    def factorize(self) -> CountingLU:
        """The factorization of y_dyn, made once and cached."""
        if self._lu is None:
            self.factor_count += 1
            self._lu = CountingLU(spla.splu(self.y_dyn, **SUPERLU_OPTIONS), self)
        return self._lu

    @cached_property
    def machine_bus_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct machine buses (ascending), and each machine's slot
        among them."""
        return np.unique(self.machine_bus, return_inverse=True)

    def _unit_rows(self, buses: np.ndarray) -> list[np.ndarray]:
        """The stored rows of the given bus positions; those not stored yet
        are solved together, in one solve on the factorization."""
        keys, store = np.asarray(buses).tolist(), self._unit
        new = [b for b in keys if b not in store]
        if new:
            rhs = np.zeros((len(new), self.n_bus), dtype=complex)
            rhs[np.arange(len(new)), new] = 1.0
            solved = self.factorize().solve(rhs.T)
            solved.flags.writeable = False
            store.update(zip(new, solved.T))
        return [store[b] for b in keys]

    def unit_columns(self, buses: np.ndarray) -> np.ndarray:
        """Y^-1 e_b for each of the distinct bus positions b, one row per b:
        the voltages per unit current injected at b (Y is complex symmetric,
        so this column of Y^-1 is also its row). The buses not requested
        before are solved together, in one solve on the factorization, and
        their rows stored for the model's life, so repeated screens of the
        same units solve nothing here. Returns a read-only copy of the rows.
        """
        out = np.array(self._unit_rows(buses), dtype=complex).reshape(
            len(buses), self.n_bus)
        out.flags.writeable = False
        return out

    def machine_bus_block(self) -> np.ndarray:
        """The machine-bus block of Y^-1: row i, column p is the voltage at
        the i-th distinct machine bus per unit current of machine p.
        Gathered from the stored unit columns (``unit_columns``) at each
        call, so the store stays their only copy (read-only)."""
        m_bus, m_slot = self.machine_bus_slots
        rows = np.array([row[m_bus] for row in self._unit_rows(m_bus)])
        # column-major, as SuperLU returns solved columns: a product with
        # the block rounds by its layout
        block = np.asfortranarray(rows[m_slot].T)
        block.flags.writeable = False
        return block

    def responses(self, states: MachineStates, buses: np.ndarray
                  ) -> tuple[list[np.ndarray], np.ndarray | None]:
        """The acceleration responses of the k distinct bus positions given,
        at these machine states: the stored block [Z_b; P_b; Q_b] of each
        bus b, a read-only 3 x n array, and R0, or None where R0 is zero.

        Z_b is the unit column Y^-1 e_b (``unit_columns``). The Norton
        admittances are purely imaginary, so electrical_torque is
        real-linear in the terminal voltages: a current w drawn at b moves
        the machines' accelerations by Re(w g_b), with g_b = Z_b[machine_bus]
        conj(I) s_base / (s_mach 2H). P_b and Q_b are Y^-1 of the injection
        second derivatives, |I| /_ delta times those accelerations, of a
        unit real and a unit imaginary current (w = 1 and w = j); R0 is Y^-1
        of those the states' own torque residual r = t_m - T_e(v_bus)
        drives, which is 0 for states from init_machines (the same function
        of the same inputs). The buses not requested before for these states
        get their P and Q (and R0 its column, on the first request) in one
        solve, after the solve of any unit column not stored yet, and are
        kept for the model's life with their unit column as the block's
        first row, its only copy: two n-vectors per bus beyond that column.
        Another states object starts the store afresh. Each column solves to
        the same bits alone or stacked, so the rows do not depend on the
        order of requests. Returns the store's own blocks, not copies: a
        repeat request gives the same objects, and a write to one raises.
        """
        keys = np.asarray(buses).tolist()
        store = self._response
        if self._response_states is not states or not all(b in store for b in keys):
            self._solve_responses(states, keys)
            store = self._response
        return [store[b] for b in keys], self._r0

    def _solve_responses(self, states: MachineStates, keys: list[int]) -> None:
        """Solve and store the responses of the bus positions in keys that
        the store lacks (``responses``)."""
        n, residual = self.n_bus, None
        if self._response_states is not states:
            self._response, self._response_states, self._r0 = {}, states, None
            r = states.t_m - electrical_torque(self, states.currents,
                                               states.v_bus[self.machine_bus])
            residual = r / (2.0 * self.h_sec) if r.any() else None
        new = [b for b in keys if b not in self._response]
        z = np.array(self._unit_rows(new), dtype=complex).reshape(len(new), n)
        g = z.T[self.machine_bus] * (np.conj(states.currents) * self.s_base
                                     / (self.s_mach * 2.0 * self.h_sec))[:, None]
        # the machines' accelerations, one column each: Re(w g) at w = 1
        # and w = j for each new bus, the parts of conj(g) side by side,
        # after the residual's
        accel = np.conj(g).view(float)
        if residual is not None:
            accel = np.column_stack((residual, accel))
        if not accel.size:
            return
        rhs = np.zeros((n, accel.shape[1]), dtype=complex)
        np.add.at(rhs, self.machine_bus, states.di_ddelta[:, None] * accel)
        solved = self.factorize().solve(rhs).T
        if residual is not None:
            self._r0 = solved[0].copy()
            self._r0.flags.writeable = False
        for b, zb, pq in zip(new, z, solved[len(solved) - 2 * len(new):].reshape(
                len(new), 2, n)):
            block = np.empty((3, n), dtype=complex)
            block[0], block[1:] = zb, pq
            block.flags.writeable = False
            self._response[b] = block
            self._unit[b] = block[0]

    def y_with_diag_update(self, bus_pos: np.ndarray,
                           delta_y: np.ndarray) -> sp.csc_matrix:
        """Copy of y_dyn with delta_y added at the given bus diagonals.

        The deltas are added one at a time in the given order, so a bus that
        repeats (two lost units, or a unit and a shed load) gets them in
        that order, and the result does not depend on how y_dyn stores its
        diagonal. The library never factors it: this is the refactoring
        reference that the tests compare the compensations with, and
        perfbench/spans.py wraps it by name.
        """
        y = self.y_dyn.copy()
        diag = y.diagonal()
        np.add.at(diag, np.asarray(bus_pos, dtype=np.int64), delta_y)
        y.setdiag(diag)
        return y

    def to_buses(self, per_machine: np.ndarray) -> np.ndarray:
        """Complex sums of per-machine values (machines on the last axis)
        at each machine's bus (buses on the last axis), in machine order."""
        out = np.zeros(per_machine.shape[:-1] + (self.n_bus,), dtype=complex)
        if per_machine.ndim == 1:
            np.add.at(out, self.machine_bus, per_machine)
        else:                                   # flat positions, row by row
            at = self.machine_bus + self.n_bus * np.arange(len(out))[:, None]
            np.add.at(out.reshape(-1), at.reshape(-1), per_machine.reshape(-1))
        return out

    @cached_property
    def machine_islands(self) -> np.ndarray:
        """The island label of each machine's bus."""
        return self.islands[self.machine_bus]

    def dead_islands(self, active_machines: np.ndarray | None = None) -> np.ndarray:
        """Flags, by island label (islands on the last axis), of the islands
        left without any active synchronous machine.

        Flags for m outages, one row each (machines on the last axis), give
        m rows."""
        if active_machines is None:
            active_machines = np.ones(len(self.machine_ids), dtype=bool)
        if self._n_islands == 1:
            return ~active_machines.any(axis=-1)[..., None]
        return ~(active_machines @ (self.machine_islands[:, None]
                                    == np.arange(self._n_islands)))

    def dead_island_mask(self, active_machines: np.ndarray | None = None) -> np.ndarray:
        """Bus mask of islands left without any active synchronous machine
        (``dead_islands`` at each bus's island)."""
        return self.dead_islands(active_machines)[..., self.islands]


@dataclass(eq=False)
class MachineStates:
    """Classical-model machine states, aligned with NetworkModel.machine_ids.

    e_prime and delta define the internal EMF E' /_ delta; t_m is mechanical
    torque on the machine base; omega is per-unit speed deviation (zero at
    initialization). v_bus holds the bus voltages Y^-1 I that the machines'
    Norton currents at these angles drive through the model's base
    factorization (zero in islands without a machine); the screen starts
    from them, as from the machines' Norton currents at these angles
    (``currents``, norton_currents) and their derivative by the angle,
    |I| /_ delta (``di_ddelta``), both computed once, at initialization.
    The states are a read-only snapshot by convention, as the model is: the
    screen and the simulator never write them, so a run needs no copy. Two
    states compare equal only when they are the same object.
    """

    e_prime: np.ndarray
    delta: np.ndarray
    t_m: np.ndarray
    omega: np.ndarray
    v_bus: np.ndarray
    currents: np.ndarray
    di_ddelta: np.ndarray

    def copy(self) -> "MachineStates":
        return MachineStates(self.e_prime.copy(), self.delta.copy(),
                             self.t_m.copy(), self.omega.copy(),
                             self.v_bus.copy(), self.currents.copy(),
                             self.di_ddelta.copy())


def build_model(case: GridCase, network: tuple | None = None
                ) -> tuple[PowerFlowSolution, NetworkModel, MachineStates]:
    """solve_powerflow (at its defaults), augment_dynamic and init_machines
    of the case. network is the (build_ybus, island_labels) pair of a case
    with the same buses and branches, as a bank's loading cases share one;
    None builds the case's own. A third item, a dict, keeps the power
    flow's Jacobian patterns for the cases that share the network (a bank
    keeps one, scenarios.run_bank): a case whose pv and pq buses a case
    before it had reuses that case's pattern, to the same bits."""
    return _build_model(case.arrays, network)


def _build_model(arrays: CaseArrays, network: tuple | None = None
                 ) -> tuple[PowerFlowSolution, NetworkModel, MachineStates]:
    """build_model of the case whose arrays are given: GridCase.arrays of a
    case, or a bank's re-dispatch of its case's arrays for a loading case
    (scenarios.run_bank). The one model build, from arrays alone."""
    case = arrays.case
    ybus, islands, *patterns = network or (build_ybus(case), island_labels(case))
    solution = _newton(arrays, ybus, patterns=patterns[0] if patterns else None)
    model = _augment_dynamic(ybus, arrays, solution, islands)
    return solution, model, _init_machines(model, solution)


def augment_dynamic(ybus: sp.csc_matrix, case: GridCase,
                    solution: PowerFlowSolution) -> NetworkModel:
    """Attach load/non-synchronous shunts and machine Norton shunts to ybus.

    Each in-service generator's solved output S (system-base pu) is its
    share of what the units at its bus produce together, the power-flow bus
    injection plus local load. Active power follows the dispatch records,
    with any surplus (slack losses) shared by the bus's synchronous units in
    proportion to machine base. Reactive power is a power-flow outcome, not
    a record, so it is shared by all units at the bus in proportion to
    machine base. The machines' S is kept on the model (s_solved).

    Each load contributes y = conj(S_pu) / |V|^2 at its bus; each in-service
    non-synchronous generator contributes the negative-load equivalent
    y = -conj(S) / |V|^2; each in-service synchronous machine contributes
    1/(j xdp) on the system base. A bus adds its loads' shunts, then its
    generators', in record order. The result is factorized once for reuse;
    when SuperLU finds it exactly singular, which an island with no machine
    and no shunt to ground makes it, SingularNetworkError names that
    island's buses.
    """
    return _augment_dynamic(ybus, case.arrays, solution, island_labels(case))


def _augment_dynamic(ybus: sp.csc_matrix, arrays: CaseArrays,
                     solution: PowerFlowSolution,
                     islands: np.ndarray) -> NetworkModel:
    """augment_dynamic of the case whose arrays are given, with its island
    labels (island_labels) given: they depend on the buses and branches
    alone, as ybus does, so a bank's loading cases share them."""
    case = arrays.case
    n = len(arrays.bus_ids)
    v = solution.v
    v_abs = np.hypot(v.real, v.imag)     # |v| as abs() rounds one number
    v_sq = _square(v_abs)
    on = arrays.status
    gen_bus, load_bus = arrays.buses_of(on)
    s_load = np.empty(len(load_bus), dtype=complex)
    s_load.real, s_load.imag = arrays.load_p, arrays.load_q
    s_load = _quotient(s_load, case.s_base_mva)
    sync = arrays.synchronous[on]
    base = arrays.s_base[on]

    s_bus = v * np.conj(ybus @ v)
    np.add.at(s_bus, load_bus, s_load)
    disp = arrays.p_mw[on] / case.s_base_mva
    w_all = base / _group_sums(base, gen_bus, n)[gen_bus]
    w_sync = np.where(sync, base, 0.0)
    sync_sum = _group_sums(w_sync, gen_bus, n)[gen_bus]
    w_sync = np.divide(w_sync, sync_sum, out=w_all.copy(), where=sync_sum > 0)
    surplus = s_bus.real[gen_bus] - _group_sums(disp, gen_bus, n)[gen_bus]
    s_gen = np.empty(len(gen_bus), dtype=complex)
    s_gen.real = disp + surplus * w_sync
    s_gen.imag = s_bus.imag[gen_bus] * w_all

    dead = v_abs[load_bus] == 0
    if dead.any():
        l = case.loads[int(np.argmax(dead))]
        raise ModelBuildError(f"load {l.id!r} at bus {l.bus_id} with |V| = 0")
    diag = np.zeros(n, dtype=complex)
    load_shunt = np.conj(s_load) / v_sq[load_bus]
    np.add.at(diag, load_bus, load_shunt)

    units = np.flatnonzero(on)
    undefined = sync & ~(arrays.has_h & arrays.has_xdp)[on]
    bad = (v_abs[gen_bus] == 0) | undefined
    if bad.any():
        k = int(np.argmax(bad))
        g = case.generators[units[k]]
        if v_abs[gen_bus[k]] == 0:
            raise ModelBuildError(f"generator {g.id!r} at bus {g.bus_id} with |V| = 0")
        raise ModelBuildError(
            f"generator {g.id!r} lacks dynamic parameters (h_sec/xdp_pu); "
            "apply a sidecar or synthesize them first")
    machines = units[sync]
    if not machines.size:
        raise ModelBuildError(
            f"case {case.name!r} has no in-service synchronous machine")
    h_sec, s_mach = arrays.h_sec[machines], base[sync]
    xdp_sys = arrays.xdp_pu[machines] * case.s_base_mva / s_mach
    norton_y = 1.0 / (1j * xdp_sys)
    gen_shunt = -np.conj(s_gen) / v_sq[gen_bus]
    gen_shunt[sync] = norton_y
    np.add.at(diag, gen_bus, gen_shunt)

    y_dyn = _add_diagonal(ybus, diag)

    model = NetworkModel(
        loads=case.loads,
        bus_ids=arrays.bus_ids,
        y_dyn=y_dyn,
        machine_ids=[arrays.gen_ids[k] for k in machines.tolist()],
        machine_bus=gen_bus[sync],
        xdp_sys=xdp_sys,
        norton_y=norton_y,
        h_sec=h_sec,
        s_mach=s_mach,
        s_solved=s_gen[sync],
        load_ids=arrays.load_ids,
        load_bus=load_bus,
        load_shunt=load_shunt,
        islands=islands,
        f_base=case.f_base_hz,
        s_base=case.s_base_mva,
    )
    try:
        model.factorize()
    except RuntimeError as exc:     # SuperLU: "Factor is exactly singular"
        islands = "; ".join(f"buses {ids} form an island with no machine and "
                            "no shunt" for ids in _groundless_islands(model, case, diag))
        raise SingularNetworkError(
            f"dynamic admittance matrix is singular: {islands or exc}") from exc
    return model


def _add_diagonal(ybus: sp.csc_matrix, diag: np.ndarray) -> sp.csc_matrix:
    """ybus plus the diagonal matrix of diag, with the bits and the entries
    that SciPy's sparse add gives, at less cost: the values go into a copy
    of ybus's own at its diagonal entries, and an entry that sums to
    exactly zero is dropped, as the add drops it. Where ybus lacks a
    diagonal entry (a bus without a branch) or is not in canonical form,
    the add itself runs."""
    n = len(diag)
    columns = np.repeat(np.arange(n, dtype=ybus.indices.dtype), np.diff(ybus.indptr))
    at = np.flatnonzero(ybus.indices == columns)
    if at.size < n or not ybus.has_canonical_format:
        y = (ybus + sp.csc_matrix((diag, np.arange(n), np.arange(n + 1)),
                                  shape=(n, n))).tocsc()
        y.sort_indices()
        return y
    # the add's a + 0 off the diagonal, which turns a -0.0 part into 0.0
    data = ybus.data + 0.0
    data[at] = ybus.data.take(at) + diag
    y = sp.csc_matrix((data, ybus.indices.copy(), ybus.indptr.copy()), shape=(n, n))
    y.eliminate_zeros()
    return y


def _groundless_islands(model: NetworkModel, case: GridCase,
                        shunts: np.ndarray) -> list[list[int]]:
    """Bus ids of each island of the model of the case that has no active
    machine and no path to ground: no load, converter or line-charging
    shunt at any of its buses."""
    grounded = shunts != 0
    charged = [br for br in case.branches if br.status and br.b_pu != 0]
    grounded[case.bus_positions(np.concatenate(
        [record_array(charged, end, np.int64) for end in ("from_bus", "to_bus")]))] = True
    dead = model.dead_island_mask()
    return [[model.bus_ids[i] for i in np.flatnonzero(model.islands == isl)]
            for isl in np.unique(model.islands[dead])
            if not grounded[model.islands == isl].any()]


def init_machines(model: NetworkModel, case: GridCase,
                  solution: PowerFlowSolution) -> MachineStates:
    """Initialize E', delta and steady-state torques.

    For each machine, with S its solved output stored on the model by
    augment_dynamic: stator current I_t = conj(S)/conj(V); internal EMF
    E' /_ delta = V + j x'd I_t. Mechanical torque is set equal to
    electrical torque at the network voltages re-solved from the Norton
    currents, so the initial state is an exact equilibrium of the algebraic
    model. A reconstruction check asserts the network solve reproduces the
    power-flow voltages (islands without any machine excluded; they carry no
    dynamic source and solve to zero). The re-solved voltages are kept on
    the states as v_bus, and the Norton currents and |I| /_ delta as
    currents and di_ddelta.

    The case serves only a check, since the solved outputs are the
    model's own: its buses, loads and in-service synchronous machines must
    be the model's, by id and in order, or ModelBuildError says the model
    was built from a different case. build_model, which has no case to
    check on a bank's loading case, initializes without the check.
    """
    arrays = case.arrays
    machines = np.flatnonzero(arrays.status & arrays.synchronous).tolist()
    if (arrays.bus_ids != model.bus_ids or arrays.load_ids != model.load_ids
            or [arrays.gen_ids[k] for k in machines] != model.machine_ids):
        raise ModelBuildError("model was built from a different case")
    return _init_machines(model, solution)


def _init_machines(model: NetworkModel, solution: PowerFlowSolution
                   ) -> MachineStates:
    """init_machines, without the check of its case."""
    vb = solution.v[model.machine_bus]
    i_t = np.conj(model.s_solved) / np.conj(vb)
    e_cplx = vb + 1j * model.xdp_sys * i_t
    e_prime = np.abs(e_cplx)
    delta = np.angle(e_cplx)
    if (e_prime <= 0).any():
        bad = [model.machine_ids[k] for k in np.flatnonzero(e_prime <= 0)]
        raise ModelBuildError(f"zero internal EMF for machines {bad}")
    currents = norton_currents(e_prime / model.xdp_sys, delta)

    v_chk = model.factorize().solve(model.to_buses(currents))
    live = ~model.dead_island_mask()
    resid = float(np.max(np.abs(v_chk - solution.v)[live])) if live.any() else 0.0
    if resid > 1e-8:
        raise ModelBuildError(
            f"machine initialization is inconsistent with the power flow "
            f"(max |dV| = {resid:.3e} > 1e-8)")

    # equilibrium torque from the same solve path used during analysis
    return MachineStates(e_prime=e_prime, delta=delta,
                         t_m=electrical_torque(model, currents,
                                               v_chk[model.machine_bus]),
                         omega=np.zeros_like(e_prime), v_bus=v_chk,
                         currents=currents,
                         di_ddelta=np.abs(currents) * np.exp(1j * delta))


def norton_currents(e_over_x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Per-machine Norton currents (E'/x'd) /_ (delta - pi/2), system base,
    from the magnitudes E'/x'd and the rotor angles."""
    return e_over_x * np.exp(1j * (delta - np.pi / 2))


def electrical_torque(model: NetworkModel, currents: np.ndarray,
                      vb: np.ndarray) -> np.ndarray:
    """Per-machine electrical torque, machine base, classical assumption.

    T_e equals the active power delivered at the terminal: Re[V conj(I_s)]
    with stator current I_s = I_norton - y_norton V, where ``currents`` are
    the machines' Norton currents (norton_currents) and ``vb`` their
    terminal voltages (bus voltages taken at ``model.machine_bus``). In the
    lossless classical model this coincides with air-gap power. m rows of
    terminal voltages give m rows of torques; callers mask outaged machines.
    """
    return (vb * np.conj(currents - model.norton_y * vb)).real * model.s_base / model.s_mach
