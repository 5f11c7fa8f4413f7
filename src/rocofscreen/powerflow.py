"""Newton-Raphson AC power flow.

Planning-style solve: flat start, PV buses hold their voltage setpoint with
reactive limits ignored, one slack per island absorbs that island's
imbalance. The Jacobian's sparsity is fixed once per solve (the Y-bus
pattern plus the diagonal); each iteration writes the complex
power-injection derivatives into its values in place and factorizes it with
SuperLU. The pattern is structurally symmetric, so SuperLU orders it by
minimum degree on A^T + A and keeps diagonal pivots (SUPERLU_OPTIONS, which
netdyn uses for the dynamic admittance matrix too).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .case_model import GridCase

# SuperLU settings for the power-flow Jacobian and the dynamic admittance
# matrix (netdyn), whose patterns are both structurally symmetric. Columns
# are ordered by minimum degree on A^T + A: COLAMD, SuperLU's default, orders
# for A^T A and nearly doubles the fill. A diagonal entry stays the pivot
# while it is at least 0.1 of its column's largest. Threshold 1.0 (partial
# pivoting) factors the 5041-bus grid's y_dyn about half as fast; threshold
# 0 pivots on a diagonal that cancels to nearly zero (a bus whose charging
# offsets its ties) and loses digits.
SUPERLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                       options=dict(SymmetricMode=True))
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
    """Specified complex injections per bus, system-base pu (gen - load)."""
    idx = case.bus_index()
    s = np.zeros(len(case.buses), dtype=complex)
    for g in case.generators:
        if g.status:
            s[idx[g.bus_id]] += complex(g.p_mw, g.q_mvar)
    for l in case.loads:
        s[idx[l.bus_id]] -= complex(l.p_mw, l.q_mvar)
    return s / case.s_base_mva


def effective_kinds(case: GridCase) -> np.ndarray:
    """Bus kinds with sourceless pv buses demoted to pq: voltage can only be
    regulated where an in-service generator remains."""
    alive = {g.bus_id for g in case.generators if g.status}
    return np.array(["pq" if b.kind == "pv" and b.id not in alive else b.kind
                     for b in case.buses])


def mismatch_vector(case: GridCase, ybus: sp.csc_matrix, v: np.ndarray) -> np.ndarray:
    """Stacked [P at pv+pq; Q at pq] mismatch, pu, for the given voltages."""
    kinds = effective_kinds(case)
    pvpq = np.flatnonzero(kinds != "slack")
    pq = np.flatnonzero(kinds == "pq")
    mis = v * np.conj(ybus @ v) - bus_injections(case)
    return np.r_[mis[pvpq].real, mis[pq].imag]


def solve_powerflow(case: GridCase, tol: float = 1e-8,
                    max_iter: int = 20) -> PowerFlowSolution:
    """Full Newton power flow from a flat start.

    Raises PowerFlowDivergence after max_iter or once the mismatch diverges
    (see DIVERGENCE_GROWTH), and SingularJacobian when the factorization
    fails (the reported bus is the first with a vanishing Jacobian diagonal,
    the usual culprit).
    """
    from .netdyn import build_ybus  # deferred: netdyn also imports this module

    ybus = build_ybus(case)
    n = len(case.buses)
    kinds = effective_kinds(case)
    pv = np.flatnonzero(kinds == "pv")
    pq = np.flatnonzero(kinds == "pq")
    pvpq = np.r_[pv, pq]
    sbus = bus_injections(case)

    # flat start: setpoint magnitude at PV/slack, 1.0 at PQ, zero angles
    vm = np.array([b.v_mag if k in ("pv", "slack") else 1.0
                   for b, k in zip(case.buses, kinds)])
    va = np.array([b.v_ang if k == "slack" else 0.0
                   for b, k in zip(case.buses, kinds)])

    npvpq, npq = len(pvpq), len(pq)
    if npvpq == 0:
        v = vm * np.exp(1j * va)
        f = mismatch_vector(case, ybus, v)
        return PowerFlowSolution([b.id for b in case.buses], vm, va, 0,
                                 float(np.max(np.abs(f))) if f.size else 0.0,
                                 ybus)

    row, col, y, diag, jac, take = _jacobian_pattern(ybus, pvpq, pq)
    for it in range(max_iter + 1):
        v = vm * np.exp(1j * va)
        ibus = ybus @ v
        mis = v * np.conj(ibus) - sbus
        f = np.r_[mis[pvpq].real, mis[pq].imag]
        norm = float(np.max(np.abs(f)))
        if norm <= tol:
            return PowerFlowSolution([b.id for b in case.buses], vm, va, it,
                                     norm, ybus)
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
        jac.data = np.concatenate((ds_dva.real, ds_dvm.real,
                                   ds_dva.imag, ds_dvm.imag))[take]
        try:
            dx = spla.splu(jac, **SUPERLU_OPTIONS).solve(-f)
        except RuntimeError as exc:
            if "singular" in str(exc).lower():
                raise SingularJacobian(_suspect_bus(case, jac, pvpq, pq)) from exc
            raise
        va[pvpq] += dx[:npvpq]
        vm[pq] += dx[npvpq:]

    raise PowerFlowDivergence(max_iter, norm)  # pragma: no cover


def _jacobian_pattern(ybus: sp.csc_matrix, pvpq: np.ndarray, pq: np.ndarray):
    """Index maps of a Newton Jacobian whose sparsity is fixed for one solve.

    The pattern is the Y-bus pattern plus every diagonal entry, in column
    order. Returns its rows, columns and Y values, each bus's diagonal
    position in it, the [pvpq|pq] Jacobian as a CSC matrix, and for each
    stored Jacobian entry the value it reads, ``block * nnz + entry``: the
    block (0 dP/dθ, 1 dP/d|V|, 2 dQ/dθ, 3 dQ/d|V|) and the pattern entry.
    """
    n = ybus.shape[0]
    yc = ybus.tocoo()
    ykey = yc.col.astype(np.int64) * n + yc.row
    key = np.union1d(ykey, np.arange(n, dtype=np.int64) * (n + 1))
    y = np.zeros(len(key), dtype=complex)
    np.add.at(y, np.searchsorted(key, ykey), yc.data)
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
    rows, cols, take = (np.concatenate(a) for a in (rows, cols, take))
    order = np.lexsort((rows, cols))
    m = npvpq + len(pq)
    indptr = np.r_[0, np.cumsum(np.bincount(cols, minlength=m))]
    jac = sp.csc_matrix((np.zeros(len(order)), rows[order], indptr),
                        shape=(m, m))
    return row, col, y, diag, jac, take[order]


def _suspect_bus(case: GridCase, jac: sp.csc_matrix, pvpq, pq):
    diag = np.abs(jac.diagonal())
    weak = np.flatnonzero(diag < 1e-12)
    if weak.size == 0:
        return None
    row = int(weak[0])
    bus_pos = pvpq[row] if row < len(pvpq) else pq[row - len(pvpq)]
    return case.buses[bus_pos].id


def accept_solved_voltages(case: GridCase, tol: float = 1e-4) -> PowerFlowSolution:
    """Wrap the voltages stored on the case, verifying they actually satisfy
    the power balance to within tol (inclusive). For pre-solved imports."""
    from .netdyn import build_ybus

    ybus = build_ybus(case)
    vm = np.array([b.v_mag for b in case.buses])
    va = np.array([b.v_ang for b in case.buses])
    v = vm * np.exp(1j * va)
    f = mismatch_vector(case, ybus, v)
    norm = float(np.max(np.abs(f))) if f.size else 0.0
    if norm > tol:
        raise PowerFlowError(
            f"stored voltages are inconsistent with the specified injections "
            f"(max mismatch {norm:.3e} pu > {tol:g} pu)")
    return PowerFlowSolution([b.id for b in case.buses], vm, va, 0, norm, ybus)
