"""Output checks: committed references and an independent screen.

Outputs that do not depend on the workload seed (every first map, the
9-bus screens and trip log, one anchor contingency per fleet loading case)
are compared with the references in ``refs/``, which ``make_refs.py`` wrote
from the library. Seeded outputs (the grid screens, the fleet screens and
bank tables) are compared with ``screen()`` below: the two-solve ROCOF
written out again from the equations, on a matrix built with
``y_dyn + diag(update)`` and solved densely on small networks, so it shares
no code with ``rocof.py`` or ``NetworkModel.y_with_diag_update``.

Bus ROCOF and the bank table's ROCOF columns must agree within TOL_HZ_S;
the MW and GW·s columns within TOL_HZ_S relative; status strings and trip
logs exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rocofscreen import netdyn, powerflow, scenarios

TOL_HZ_S = 1e-9
DENSE_MAX_BUSES = 500
REF_DIR = Path(__file__).resolve().parent / "refs"


def load_ref(name: str) -> dict:
    return json.loads((REF_DIR / f"{name}.json").read_text())


def same(a, b, tol: float = TOL_HZ_S) -> bool:
    """Arrays agree within tol, with NaN in exactly the same places."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    ok = ~np.isnan(a)
    return bool(np.all(np.abs(a[ok] - b[ok]) <= tol))


def _solver(y: sp.csc_matrix):
    if y.shape[0] <= DENSE_MAX_BUSES:
        lu = la.lu_factor(y.toarray())
        return lambda rhs: la.lu_solve(lu, rhs)
    return spla.splu(y).solve


def screen(model, states, gen_ids) -> tuple[np.ndarray, float, int]:
    """Per-bus ROCOF (Hz/s), MW lost and the number of islands left without
    a machine, for the loss of ``gen_ids``.

    Outaged Norton shunts leave the diagonal and their injections go to
    zero; dead-island buses are pinned with a unit diagonal. Solve for V,
    take each surviving machine's acceleration (T_m - T_e) / 2H, solve for
    V'' from the injection second derivatives, and convert the angle second
    derivative Im(V'' / V) to Hz/s.
    """
    pos = {g: k for k, g in enumerate(model.machine_ids)}
    active = np.ones(len(pos), dtype=bool)
    active[[pos[g] for g in gen_ids]] = False
    alive = set(model.islands[model.machine_bus[active]].tolist())
    dead = ~np.isin(model.islands, list(alive) or [-1])

    diag = np.zeros(model.n_bus, dtype=complex)
    np.add.at(diag, model.machine_bus[~active], -model.norton_y[~active])
    diag[dead] += 1.0
    solve = _solver((model.y_dyn + sp.diags(diag)).tocsc())

    def at_buses(per_machine):
        out = np.zeros(model.n_bus, dtype=complex)
        np.add.at(out, model.machine_bus, per_machine)
        return out

    e_over_x = states.e_prime / model.xdp_sys
    i_norton = e_over_x * np.exp(1j * (states.delta - np.pi / 2))
    v = solve(at_buses(np.where(active, i_norton, 0.0)))
    vb = v[model.machine_bus]
    t_e = (vb * np.conj(i_norton - model.norton_y * vb)).real * model.s_base / model.s_mach
    wdot = np.where(active, (states.t_m - t_e) / (2.0 * model.h_sec), 0.0)
    v_dd = solve(at_buses(e_over_x * np.exp(1j * states.delta) * wdot))

    ok = ~dead & (np.abs(v) > 1e-9)
    rocof = np.full(model.n_bus, np.nan)
    rocof[ok] = model.f_base * (v_dd[ok] / v[ok]).imag
    mw_lost = float(np.sum(states.t_m[~active] * model.s_mach[~active]))
    return rocof, mw_lost, len(set(model.islands[dead].tolist()))


def loading_case_model(case, lc):
    """The bank's per-loading-case set-up, by the library's public calls."""
    dispatched = scenarios.apply_loading_case(case, lc)
    sol = powerflow.solve_powerflow(dispatched)
    model = netdyn.augment_dynamic(netdyn.build_ybus(dispatched), dispatched, sol)
    return model, netdyn.init_machines(model, dispatched, sol)


def expected_bank(case, loading_cases, contingencies, anchors: dict,
                  anchor_ids) -> tuple[list[dict], set[str]]:
    """Expected bank rows in table order, plus the ids of loading cases whose
    set-up no longer reproduces the committed anchor screen."""
    rows = []
    bad_setup = set()
    f_base = case.f_base_hz
    for lc in sorted(loading_cases, key=lambda x: x.id):
        model, states = loading_case_model(case, lc)
        if not same(screen(model, states, anchor_ids)[0], anchors[lc.id]):
            bad_setup.add(lc.id)
        inertia_mws = lc.online_inertia_gws * 1000.0
        for ctg in sorted(contingencies, key=lambda c: c.id):
            online = ctg.outaged_generator_ids & lc.committed
            row = {"loading_id": lc.id, "contingency_id": ctg.id,
                   "inertia_gws": lc.online_inertia_gws, "bus": None}
            if not online:
                row.update(mw_lost=0.0, system_rocof=0.0, status="no_online_units")
            else:
                bus, mw, n_dead = screen(model, states, online)
                status = f"{n_dead} undefined island(s)" if n_dead else "ok"
                row.update(mw_lost=mw, bus=bus, status=status,
                           system_rocof=-f_base * mw / (2.0 * inertia_mws))
            row["bus_ids"] = model.bus_ids
            rows.append(row)
    return rows, bad_setup


def row_matches(rec, exp) -> bool:
    """One read-back ScenarioRecord against one expected row."""
    if (rec.loading_id, rec.contingency_id) != (exp["loading_id"], exp["contingency_id"]):
        return False
    if rec.status != exp["status"]:
        return False
    rel = lambda a, b: math.isclose(a, b, rel_tol=TOL_HZ_S, abs_tol=TOL_HZ_S)
    if not (rel(rec.mw_lost, exp["mw_lost"]) and rel(rec.inertia_gws, exp["inertia_gws"])):
        return False
    if abs(rec.system_rocof_hz_s - exp["system_rocof"]) > TOL_HZ_S:
        return False
    if rec.concern_flag != (exp["system_rocof"] < scenarios.CONCERN_ROCOF_HZ_S):
        return False
    bus = exp["bus"]
    if bus is None:
        return (rec.worst_bus is None and math.isnan(rec.bus_rocof_min)
                and math.isnan(rec.bus_rocof_mean) and math.isnan(rec.bus_rocof_max))
    stats = [np.nanmin(bus), np.nanmean(bus), np.nanmax(bus)]
    if not same([rec.bus_rocof_min, rec.bus_rocof_mean, rec.bus_rocof_max], stats):
        return False
    # the worst bus may differ only where two buses tie within tolerance
    worst = exp["bus_ids"].index(rec.worst_bus) if rec.worst_bus in exp["bus_ids"] else None
    return worst is not None and abs(bus[worst] - stats[0]) <= TOL_HZ_S
