"""Dynamic network model: admittance matrix, Norton machine equivalents,
and classical machine initialization.

The dynamic admittance matrix extends the branch network with constant
impedance shunts for loads and non-synchronous generation, plus one Norton
shunt 1/(j x'd) per in-service synchronous machine (system base). With
machine current injections I on the right-hand side, Y V = I recovers the
terminal voltages; the factorization is reused for every algebraic solve,
and solves are counted so screening cost claims can be asserted. Its
pattern is structurally symmetric, so SuperLU orders it by minimum degree on
A^T + A and keeps diagonal pivots (powerflow.SUPERLU_OPTIONS).

Machine-base to system-base conversion happens exactly once, here:
    x_sys = x_mach * s_base_sys / s_base_mach      (impedance)
    t_mach = p_sys * s_base_sys / s_base_mach      (torque/power)

The machine-network interface is defined once, here: ``norton_currents``
(E'/x'd) /_ (delta - pi/2), the machine-to-bus sum ``NetworkModel.to_buses``
and ``electrical_torque``. Their users are ``init_machines``, the screen
(``rocof._screen``) and the simulator (``swingsim.simulate``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .case_model import GridCase, UnknownIdError, island_labels
from .powerflow import SUPERLU_OPTIONS, PowerFlowSolution

log = logging.getLogger(__name__)


class ModelBuildError(ValueError):
    """Case cannot be turned into a dynamic model (missing data, bad values)."""


def build_ybus(case: GridCase) -> sp.csc_matrix:
    """Branch-network bus admittance matrix (pi model with off-nominal taps).

    Convention: series admittance ys = 1/(r + jx) appears as +ys (plus half
    charging) on the diagonals and -ys off-diagonal; a from-side tap t scales
    the from diagonal by 1/t**2 and both off-diagonals by 1/t. Loads and
    machines are not included; see augment_dynamic.
    """
    idx = case.bus_index()
    n = len(case.buses)
    rows, cols, data = [], [], []
    for br in case.branches:
        if not br.status:
            continue
        z = complex(br.r_pu, br.x_pu)
        if z == 0:
            raise ModelBuildError(
                f"branch {br.from_bus}-{br.to_bus} has zero impedance")
        ys = 1.0 / z
        bc = 0.5j * br.b_pu
        t = br.tap_ratio if br.tap_ratio else 1.0
        i, j = idx[br.from_bus], idx[br.to_bus]
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        data += [(ys + bc) / t**2, ys + bc, -ys / t, -ys / t]
    y = sp.coo_matrix((data, (rows, cols)), shape=(n, n), dtype=complex)
    return y.tocsc()


class CountingLU:
    """splu handle that counts linear-system solutions on its owner model."""

    def __init__(self, lu, owner: "NetworkModel"):
        self._lu = lu
        self._owner = owner

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        self._owner.solve_count += 1
        return self._lu.solve(rhs)


@dataclass
class NetworkModel:
    """Factorized dynamic network plus the static machine table.

    Arrays are aligned with ``machine_ids`` (in-service synchronous machines,
    case order). The model is read-only by convention after build. The
    screen solves against the base factorization; only the simulator derives
    diagonal-updated copies of ``y_dyn`` (``y_with_diag_update``), to
    refactor at its events.
    ``solve_count`` counts linear solves and ``factor_count`` sparse LU
    factorizations made on this model.
    """

    case: GridCase
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
        pos = self._machine_pos
        out = []
        for gid in gen_ids:
            if gid not in pos:
                raise UnknownIdError(
                    f"generator {gid!r} is not an in-service synchronous "
                    "machine of this model")
            out.append(pos[gid])
        return np.array(sorted(out), dtype=np.int64)

    def factorize(self, matrix: sp.csc_matrix | None = None) -> CountingLU:
        """Factor a matrix into a counting solve handle. The default, y_dyn,
        is factored once and cached."""
        if matrix is None and self._lu is not None:
            return self._lu
        self.factor_count += 1
        lu = CountingLU(spla.splu(self.y_dyn if matrix is None else matrix,
                                  **SUPERLU_OPTIONS), self)
        if matrix is None:
            self._lu = lu
        return lu

    def y_with_diag_update(self, bus_pos: np.ndarray,
                           delta_y: np.ndarray) -> sp.csc_matrix:
        """Copy of y_dyn with delta_y added at the given bus diagonals.

        The deltas are added one at a time in the given order, so a bus that
        repeats (two lost units, or a unit and a shed load) gets them in
        that order, and the result does not depend on how y_dyn stores its
        diagonal.
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

    def dead_island_mask(self, active_machines: np.ndarray | None = None) -> np.ndarray:
        """Bus mask of islands left without any active synchronous machine.

        Flags for m outages, one row each (machines on the last axis), give
        m rows of masks."""
        if active_machines is None:
            active_machines = np.ones(len(self.machine_ids), dtype=bool)
        if self._n_islands == 1:
            return np.repeat(~active_machines.any(axis=-1)[..., None], self.n_bus, axis=-1)
        alive = active_machines @ (self.islands[self.machine_bus][:, None]
                                   == np.arange(self._n_islands))
        return ~alive.T[self.islands].T


@dataclass
class MachineStates:
    """Classical-model machine states, aligned with NetworkModel.machine_ids.

    e_prime and delta define the internal EMF E' /_ delta; t_m is mechanical
    torque on the machine base; omega is per-unit speed deviation (zero at
    initialization).
    """

    e_prime: np.ndarray
    delta: np.ndarray
    t_m: np.ndarray
    omega: np.ndarray

    def copy(self) -> "MachineStates":
        return MachineStates(self.e_prime.copy(), self.delta.copy(),
                             self.t_m.copy(), self.omega.copy())


def solved_generator_powers(case: GridCase, ybus: sp.csc_matrix,
                            solution: PowerFlowSolution) -> dict[str, complex]:
    """Complex power produced by each in-service generator at the solved
    operating point, system-base pu.

    The power-flow bus injection plus local load is what the units at a bus
    produce together. Active power follows the dispatch records, with any
    surplus (slack losses) shared by the bus's synchronous units in
    proportion to machine base. Reactive power is a power-flow outcome, not
    a record, so it is shared by all units at the bus in proportion to
    machine base.
    """
    idx = case.bus_index()
    v = solution.v
    s_bus = v * np.conj(ybus @ v)
    for l in case.loads:
        s_bus[idx[l.bus_id]] += complex(l.p_mw, l.q_mvar) / case.s_base_mva

    by_bus: dict[int, list] = {}
    for g in case.generators:
        if g.status:
            by_bus.setdefault(idx[g.bus_id], []).append(g)

    out: dict[str, complex] = {}
    for b, members in by_bus.items():
        base = np.array([g.s_base_mva for g in members])
        w_all = base / base.sum()
        sync = np.array([g.synchronous for g in members])
        w_sync = np.where(sync, base, 0.0)
        w_sync = w_sync / w_sync.sum() if w_sync.sum() > 0 else w_all
        disp = np.array([g.p_mw for g in members]) / case.s_base_mva
        surplus = s_bus[b].real - disp.sum()
        p = disp + surplus * w_sync
        q = s_bus[b].imag * w_all
        for j, g in enumerate(members):
            out[g.id] = complex(p[j], q[j])
    return out


def augment_dynamic(ybus: sp.csc_matrix, case: GridCase,
                    solution: PowerFlowSolution) -> NetworkModel:
    """Attach load/non-synchronous shunts and machine Norton shunts to ybus.

    Each load contributes y = conj(S_pu) / |V|^2 at its bus; each in-service
    non-synchronous generator contributes the negative-load equivalent
    y = -conj(S_pu) / |V|^2 at its solved output (its reactive share at a
    regulated bus is a power-flow result); each in-service synchronous
    machine contributes 1/(j xdp) on the system base. The result is
    factorized once for reuse.
    """
    idx = case.bus_index()
    n = len(case.buses)
    v = solution.v
    diag = np.zeros(n, dtype=complex)
    solved_s = solved_generator_powers(case, ybus, solution)

    load_ids, load_bus, load_shunt = [], [], []
    for l in case.loads:
        b = idx[l.bus_id]
        if abs(v[b]) == 0:
            raise ModelBuildError(f"load {l.id!r} at bus {l.bus_id} with |V| = 0")
        s_pu = complex(l.p_mw, l.q_mvar) / case.s_base_mva
        y = np.conj(s_pu) / abs(v[b]) ** 2
        diag[b] += y
        load_ids.append(l.id)
        load_bus.append(b)
        load_shunt.append(y)

    mach_ids, mach_bus, xdp_sys, h_sec, s_mach = [], [], [], [], []
    for g in case.generators:
        if not g.status:
            continue
        b = idx[g.bus_id]
        if abs(v[b]) == 0:
            raise ModelBuildError(f"generator {g.id!r} at bus {g.bus_id} with |V| = 0")
        if not g.synchronous:
            diag[b] += -np.conj(solved_s[g.id]) / abs(v[b]) ** 2
            continue
        if g.h_sec is None or g.xdp_pu is None:
            raise ModelBuildError(
                f"generator {g.id!r} lacks dynamic parameters (h_sec/xdp_pu); "
                "apply a sidecar or synthesize them first")
        x_sys = g.xdp_pu * case.s_base_mva / g.s_base_mva
        mach_ids.append(g.id)
        mach_bus.append(b)
        xdp_sys.append(x_sys)
        h_sec.append(g.h_sec)
        s_mach.append(g.s_base_mva)
        diag[b] += 1.0 / (1j * x_sys)
    if not mach_ids:
        raise ModelBuildError(
            f"case {case.name!r} has no in-service synchronous machine")

    y_dyn = (ybus + sp.diags(diag, format="csc", dtype=complex)).tocsc()
    y_dyn.sort_indices()

    model = NetworkModel(
        case=case,
        bus_ids=[b.id for b in case.buses],
        y_dyn=y_dyn,
        machine_ids=mach_ids,
        machine_bus=np.array(mach_bus, dtype=np.int64),
        xdp_sys=np.array(xdp_sys),
        norton_y=1.0 / (1j * np.array(xdp_sys)),
        h_sec=np.array(h_sec),
        s_mach=np.array(s_mach),
        s_solved=np.array([solved_s[gid] for gid in mach_ids], dtype=complex),
        load_ids=load_ids,
        load_bus=np.array(load_bus, dtype=np.int64),
        load_shunt=np.array(load_shunt, dtype=complex),
        islands=island_labels(case),
        f_base=case.f_base_hz,
        s_base=case.s_base_mva,
    )
    model.factorize()
    return model


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
    dynamic source and solve to zero).
    """
    if case != model.case:
        raise ModelBuildError("model was built from a different case")
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
                         omega=np.zeros_like(e_prime))


def norton_currents(e_over_x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Per-machine Norton currents (E'/x'd) /_ (delta - pi/2), system base,
    from the magnitudes E'/x'd and the rotor angles."""
    return e_over_x * np.exp(1j * (delta - np.pi / 2))


def electrical_torque(model: NetworkModel, currents: np.ndarray,
                      vb: np.ndarray,
                      active: np.ndarray | None = None) -> np.ndarray:
    """Per-machine electrical torque, machine base, classical assumption.

    T_e equals the active power delivered at the terminal: Re[V conj(I_s)]
    with stator current I_s = I_norton - y_norton V, where ``currents`` are
    the machines' Norton currents (norton_currents) and ``vb`` their
    terminal voltages (bus voltages taken at ``model.machine_bus``). In the
    lossless classical model this coincides with air-gap power. Inactive
    machines get zero. m rows of terminal voltages (and of active flags)
    give m rows of torques.
    """
    te = (vb * np.conj(currents - model.norton_y * vb)).real * model.s_base / model.s_mach
    if active is not None:
        te = np.where(active, te, 0.0)
    return te


def passive_network_power(model: NetworkModel, voltages: np.ndarray) -> float:
    """Active power absorbed by branches plus load/non-synchronous shunts,
    system-base pu. Machine Norton shunts (lossless) are netted out, so this
    equals total machine electrical output at any consistent (I, V) pair."""
    i_all = model.y_dyn @ voltages
    p_total = float(np.sum(voltages * np.conj(i_all)).real)
    vb = voltages[model.machine_bus]
    p_norton = float(np.sum((vb * np.conj(model.norton_y * vb)).real))
    return p_total - p_norton
