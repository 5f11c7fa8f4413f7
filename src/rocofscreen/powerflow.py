"""Newton-Raphson AC power flow.

Planning-style solve: flat start, PV buses hold their voltage setpoint with
reactive limits ignored, one slack per island absorbs that island's
imbalance. The Jacobian's sparsity is fixed once per solve (the Y-bus
pattern plus the diagonal); each iteration writes the complex
power-injection derivatives into its values in place and factorizes it with
SuperLU. The pattern is structurally symmetric, so SuperLU orders it by
minimum degree on A^T + A, keeps diagonal pivots and updates one column at
a time (panel size 1, which factors the 5041-bus grid's Jacobian about a
fifth faster than the default panel of 10; SUPERLU_OPTIONS, which netdyn
uses for the dynamic admittance matrix too). An ordering depends only
on the pattern, so it is computed once per solve: the first iteration's
factorization orders the Jacobian, the pattern is relabelled by that
ordering, and the later iterations factor the relabelled matrix in its
natural order. The Newton iteration reads the case's fields as arrays
(case_model.CaseArrays: unit status, buses, MW and MVAr, load MW and MVAr,
bus kinds and setpoints), never its records, and takes the branch Y-bus
as an input, so a bank's loading cases, which share their buses and
branches, solve against one through netdyn's one model build, each from
its case's arrays re-dispatched (scenarios.run_bank). The Jacobian's pattern
depends only on that Y-bus and on which buses are pv and pq, so the bank
also keeps one store of patterns (_JacobianPattern: the index maps and the
plain and relabelled CSC patterns), keyed by the pv and pq bus positions:
a loading case whose pv and pq buses an earlier one had reuses its
pattern instead of building it. Its first iteration still orders the
Jacobian by minimum degree, which gives the same ordering on the same
pattern, so a reused pattern solves to the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .case_model import CaseArrays, GridCase, InputError

# SuperLU settings for the power-flow Jacobian and the dynamic admittance
# matrix (netdyn), whose patterns are both structurally symmetric. Columns
# are ordered by minimum degree on A^T + A: COLAMD, SuperLU's default, orders
# for A^T A and nearly doubles the fill. A diagonal entry stays the pivot
# while it is at least 0.1 of its column's largest. Threshold 1.0 (partial
# pivoting) factors the 5041-bus grid's y_dyn about half as fast; threshold
# 0 pivots on a diagonal that cancels to nearly zero (a bus whose charging
# offsets its ties) and loses digits. Panel size 1 (SuperLU's default is 10)
# updates one column at a time: on a 2-core VM the 5041-bus grid's
# relabelled Jacobian factors in 22 ms instead of 27 and its y_dyn in 7.4 ms
# instead of 9.8 (medians of 7 alternating rounds), with the same fill
# (611,566 and 164,392 entries); the 9-bus and 40-bus factorizations are
# about 10% faster too. The panel width only groups columns for the updates
# (Demmel et al., SIAM J. Matrix Anal. Appl. 20(3), 1999), so the factors
# agree to rounding. No relax (supernode relaxation) from 1 to 60 factored
# faster than its default, so it is left unset.
SUPERLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                       panel_size=1, options=dict(SymmetricMode=True))
# the same, for a matrix already relabelled by an ordering of its pattern
PREORDERED_OPTIONS = dict(SUPERLU_OPTIONS, permc_spec="NATURAL")
# Newton stops as diverged once the mismatch is not finite or exceeds
# DIVERGENCE_GROWTH times the flat start's; converging solves in the tests
# overshoot it by at most 34 times (a bus whose charging cancels its ties).
DIVERGENCE_GROWTH = 1e4


class PowerFlowError(RuntimeError):
    pass


class PowerFlowDivergence(PowerFlowError):
    def __init__(self, iterations: int, mismatch: float):
        self.iterations = iterations
        self.mismatch = mismatch
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(max mismatch {mismatch:.3e} pu)")


class SingularJacobian(PowerFlowError):
    def __init__(self, bus_id=None):
        self.bus_id = bus_id
        where = f" (suspect bus {bus_id})" if bus_id is not None else ""
        super().__init__(f"singular power-flow Jacobian{where}")


@dataclass
class PowerFlowSolution:
    """Solved bus voltages. ``max_mismatch_pu`` is the worst remaining
    PQ/PV complex-power mismatch component; ``ybus`` is the branch
    admittance matrix the voltages were solved against."""

    bus_ids: list[int]
    v_mag: np.ndarray
    v_ang: np.ndarray  # radians
    iterations: int
    max_mismatch_pu: float
    ybus: sp.csc_matrix = field(repr=False)

    @property
    def v(self) -> np.ndarray:
        return self.v_mag * np.exp(1j * self.v_ang)


def bus_injections(case: GridCase) -> np.ndarray:
    """Specified complex injections per bus, system-base pu (gen - load).
    Each bus adds its in-service generators, then subtracts its loads, in
    record order."""
    return _injections(case.arrays)


def _injections(arrays: CaseArrays) -> np.ndarray:
    """bus_injections of the case whose arrays are given."""
    on = arrays.status
    s = np.zeros(len(arrays.bus_ids), dtype=complex)
    units = np.empty(np.count_nonzero(on) + len(arrays.load_p), dtype=complex)
    units.real = np.concatenate((arrays.p_mw[on], -arrays.load_p))
    units.imag = np.concatenate((arrays.q_mvar[on], -arrays.load_q))
    np.add.at(s, np.concatenate(arrays.buses_of(on)), units)
    return s / arrays.case.s_base_mva


def effective_kinds(case: GridCase) -> np.ndarray:
    """Bus kinds with sourceless pv buses demoted to pq: voltage can only be
    regulated where an in-service generator remains."""
    return _kinds(case.arrays)


def _kinds(arrays: CaseArrays) -> np.ndarray:
    """effective_kinds of the case whose arrays are given. A unit counts at
    its bus's position, which for a bus id that repeats (an invalid case)
    is the last bus with that id (GridCase.bus_positions)."""
    alive = np.zeros(len(arrays.bus_ids), dtype=bool)
    at = arrays.gen_bus[arrays.status]
    alive[at[at >= 0]] = True
    return np.where((arrays.kinds == "pv") & ~alive, "pq", arrays.kinds)


def mismatch_vector(case: GridCase, ybus: sp.csc_matrix, v: np.ndarray) -> np.ndarray:
    """Stacked [P at pv+pq; Q at pq] mismatch, pu, for the given voltages."""
    arrays = case.arrays
    kinds = _kinds(arrays)
    pvpq = np.flatnonzero(kinds != "slack")
    pq = np.flatnonzero(kinds == "pq")
    mis = v * np.conj(ybus @ v) - _injections(arrays)
    return np.concatenate((mis[pvpq].real, mis[pq].imag))


def solve_powerflow(case: GridCase, tol: float = 1e-8,
                    max_iter: int = 20) -> PowerFlowSolution:
    """Full Newton power flow from a flat start; a case with no pv or pq
    bus has no unknowns, so it returns at iteration 0 with mismatch 0.0.

    Raises PowerFlowDivergence after max_iter or once the mismatch diverges
    (see DIVERGENCE_GROWTH), and SingularJacobian when the factorization
    fails (the reported bus is the first with a vanishing Jacobian diagonal,
    the usual culprit). Raises InputError for a negative max_iter or a tol
    that is not positive and finite.
    """
    from .netdyn import build_ybus  # deferred: netdyn also imports this module

    if max_iter < 0:
        raise InputError(f"max_iter must be >= 0, got {max_iter}")
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tol must be positive and finite, got {tol}")
    return _newton(case.arrays, build_ybus(case), tol, max_iter)


def _newton(arrays: CaseArrays, ybus: sp.csc_matrix, tol: float = 1e-8,
            max_iter: int = 20, patterns: dict | None = None) -> PowerFlowSolution:
    """solve_powerflow of the case whose arrays are given (GridCase.arrays, or
    a bank's re-dispatch of them) against a given branch Y-bus
    (netdyn.build_ybus of the case, or of any case with the same buses and
    branches, as a bank's loading cases share), with tol and max_iter
    already checked.

    patterns, when given, keeps the Jacobian patterns (_JacobianPattern) of
    solves against this ybus, keyed by their pv and pq bus positions; a
    solve with the same ones reuses its pattern, and a new one is added."""
    sbus = _injections(arrays)
    kinds = _kinds(arrays)
    pv = np.flatnonzero(kinds == "pv")
    pq = np.flatnonzero(kinds == "pq")
    pvpq = np.concatenate((pv, pq))

    # flat start: setpoint magnitude at PV/slack, 1.0 at PQ, zero angles
    vm = np.where((kinds == "pv") | (kinds == "slack"), arrays.v_mag, 1.0)
    va = np.where(kinds == "slack", arrays.v_ang, 0.0)

    npvpq = len(pvpq)
    m = npvpq + len(pq)
    key = (pv.tobytes(), pq.tobytes())
    pattern = patterns.get(key) if patterns is not None else None
    if pattern is None:
        pattern = _JacobianPattern(ybus, pvpq, pq)
        if patterns is not None:
            patterns[key] = pattern
    row, col, y, diag = pattern.row, pattern.col, pattern.y, pattern.diag
    jac, take = pattern.jac, pattern.take
    for it in range(max_iter + 1):
        v = vm * np.exp(1j * va)
        ibus = ybus @ v
        mis = v * np.conj(ibus) - sbus
        f = np.concatenate((mis[pvpq].real, mis[pq].imag))
        norm = float(np.max(np.abs(f), initial=0.0))
        if norm <= tol:
            return PowerFlowSolution(arrays.bus_ids, vm, va, it, norm, ybus)
        if it == 0:
            limit = DIVERGENCE_GROWTH * norm
        if it == max_iter or not np.isfinite(norm) or norm > limit:
            raise PowerFlowDivergence(it, norm)

        # dSbus_dV (MATPOWER) on the pattern entries (i, k):
        #   dS_i/dθ_k  = j V_i conj(δ_ik I_i - Y_ik V_k)
        #   dS_i/d|V_k| = V_i conj(Y_ik V_k/|V_k|) + δ_ik conj(I_i) V_i/|V_i|
        vn = v / np.abs(v)
        t = -(y * v[col])
        t[diag] += ibus
        ds_dva = (1j * v)[row] * np.conj(t)
        ds_dvm = v[row] * np.conj(y * vn[col])
        ds_dvm[diag] += np.conj(ibus) * vn
        values = np.concatenate((ds_dva.real, ds_dvm.real,
                                 ds_dva.imag, ds_dvm.imag))
        try:
            if it == 0:
                jac.data = values[take]
                lu = spla.splu(jac, **SUPERLU_OPTIONS)
                # the ordering relabels unknown k (and equation k) perm[k]
                perm = lu.perm_c
                dx = lu.solve(-f)
            else:
                if it == 1:
                    pjac, ptake = pattern.relabelled(perm)
                pjac.data = values[ptake]
                rhs = np.empty(m)
                rhs[perm] = -f
                dx = spla.splu(pjac, **PREORDERED_OPTIONS).solve(rhs)[perm]
        except RuntimeError as exc:
            if "singular" in str(exc).lower():
                jac.data = values[take]
                raise SingularJacobian(_suspect_bus(arrays, jac, pvpq, pq)) from exc
            raise
        va[pvpq] += dx[:npvpq]
        vm[pq] += dx[npvpq:]


class _JacobianPattern:
    """What a Newton Jacobian's sparsity fixes, for one ybus and one set of
    pv and pq buses: the index maps of _jacobian_pattern (row, col, y,
    diag), the [pvpq|pq] Jacobian's CSC pattern and the value each of its
    entries takes (jac, take), and the pattern relabelled by an ordering of
    it (relabelled). Each solve writes its values into the one jac and
    relabelled matrix, so a pattern serves one solve at a time."""

    def __init__(self, ybus: sp.csc_matrix, pvpq: np.ndarray, pq: np.ndarray):
        (self.row, self.col, self.y, self.diag, self._rows, self._cols,
         self._take) = _jacobian_pattern(ybus, pvpq, pq)
        self._m = len(pvpq) + len(pq)
        self.jac, self.take = _csc_pattern(self._rows, self._cols, self._take,
                                           self._m)
        self._perm = None

    def relabelled(self, perm: np.ndarray):
        """The CSC pattern with unknown and equation k relabelled perm[k],
        and the value each entry takes; made again only for an ordering
        other than the last one's. An ordering depends on the pattern
        alone, so every solve on it asks for the same one."""
        if self._perm is None or not np.array_equal(perm, self._perm):
            self._relabelled = _csc_pattern(perm[self._rows], perm[self._cols],
                                            self._take, self._m)
            self._perm = perm.copy()    # not a view that keeps the LU alive
        return self._relabelled


def _jacobian_pattern(ybus: sp.csc_matrix, pvpq: np.ndarray, pq: np.ndarray):
    """Index maps of a Newton Jacobian whose sparsity is fixed for one solve.

    The pattern is the Y-bus pattern plus every diagonal entry, in column
    order. Returns its rows, columns and Y values, each bus's diagonal
    position in it, and the [pvpq|pq] Jacobian's entries as three arrays:
    row, column and the value each reads, ``block * nnz + entry``: the
    block (0 dP/dθ, 1 dP/d|V|, 2 dQ/dθ, 3 dQ/d|V|) and the pattern entry.
    """
    n = ybus.shape[0]
    ycol = np.repeat(np.arange(n, dtype=np.int64), np.diff(ybus.indptr))
    ykey = ycol * n + ybus.indices
    key = np.concatenate((ykey, np.arange(n, dtype=np.int64) * (n + 1)))
    key.sort(kind="stable")
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    y = np.zeros(len(key), dtype=complex)
    np.add.at(y, np.searchsorted(key, ykey), ybus.data)
    row, col = key % n, key // n
    diag = np.searchsorted(key, np.arange(n) * (n + 1))

    # a bus's P equation is the row of its θ unknown, its Q equation the
    # row of its |V| unknown; -1 where the bus has none
    npvpq = len(pvpq)
    theta = np.full(n, -1)
    theta[pvpq] = np.arange(npvpq)
    vmag = np.full(n, -1)
    vmag[pq] = npvpq + np.arange(len(pq))
    rows, cols, take = [], [], []
    for block, (eq, unknown) in enumerate(((theta, theta), (theta, vmag),
                                           (vmag, theta), (vmag, vmag))):
        r, c = eq[row], unknown[col]
        entry = np.flatnonzero((r >= 0) & (c >= 0))
        rows.append(r[entry])
        cols.append(c[entry])
        take.append(block * len(key) + entry)
    return (row, col, y, diag) + tuple(np.concatenate(a) for a in (rows, cols, take))


def _csc_pattern(rows: np.ndarray, cols: np.ndarray, take: np.ndarray, m: int):
    """An m x m CSC matrix with zero values on the entries (rows, cols),
    which must be distinct, with sorted row indices, and ``take`` in its
    storage order."""
    order = np.argsort(cols.astype(np.int64) * m + rows)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=m))))
    jac = sp.csc_matrix((np.zeros(len(order)), rows[order], indptr),
                        shape=(m, m))
    return jac, take[order]


def _suspect_bus(arrays: CaseArrays, jac: sp.csc_matrix, pvpq, pq):
    diag = np.abs(jac.diagonal())
    weak = np.flatnonzero(diag < 1e-12)
    if weak.size == 0:
        return None
    row = int(weak[0])
    bus_pos = pvpq[row] if row < len(pvpq) else pq[row - len(pvpq)]
    return arrays.bus_ids[bus_pos]


def accept_solved_voltages(case: GridCase, tol: float = 1e-4) -> PowerFlowSolution:
    """Wrap the voltages stored on the case, verifying they actually satisfy
    the power balance to within tol (inclusive). For pre-solved imports."""
    from .netdyn import build_ybus

    ybus = build_ybus(case)
    vm = np.array([b.v_mag for b in case.buses])
    va = np.array([b.v_ang for b in case.buses])
    v = vm * np.exp(1j * va)
    f = mismatch_vector(case, ybus, v)
    norm = float(np.max(np.abs(f), initial=0.0))
    if norm > tol:
        raise PowerFlowError(
            f"stored voltages are inconsistent with the specified injections "
            f"(max mismatch {norm:.3e} pu > {tol:g} pu)")
    return PowerFlowSolution([b.id for b in case.buses], vm, va, 0, norm, ybus)
