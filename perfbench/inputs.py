"""Seeded inputs for the three workloads.

The networks are fixed shapes: ``grid_case()`` and ``fleet_case()`` rebuild
the 71x71 grid and the 40-bus fleet that the test suite's ``conftest.py``
builders make with their default seeds (``selftest.py`` checks they are
equal), so the ROADMAP baselines and acceptance criterion 5 describe the
networks measured here. The workload seed drives what a user varies from run
to run on a fixed network: which units each contingency trips and, for the
9-bus case, the order the screens run in.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import rocofscreen as rs
from rocofscreen.case_model import Branch, Bus, Generator, GridCase, Load

GRID_NET_SEED = 7
FLEET_NET_SEED = 1

FLEET_BASE_LOAD_MW = 50000.0
FLEET_BASE_WIND_MW = 15000.0
FLEET_N_LOADING = 25
FLEET_LOAD_RANGE_MW = (15000.0, 75000.0)
FLEET_WIND_RANGE_MW = (10000.0, 30000.0)
FLEET_N_CONTINGENCIES = 163

GRID_N_CONTINGENCIES = 100
GRID_MAX_UNITS = 4


def grid_case(side: int = 71, seed: int = GRID_NET_SEED) -> GridCase:
    """side x side grid with ~300 two-unit plants (``make_grid_case``)."""
    rng = np.random.default_rng(seed)
    n = side * side
    buses = []
    branches = []
    for r in range(side):
        for c in range(side):
            i = r * side + c + 1
            buses.append(Bus(id=i, name=f"N{i}", nominal_kv=138.0, kind="pq"))
            x = float(rng.uniform(0.02, 0.08))
            if c + 1 < side:
                branches.append(Branch(i, i + 1, x / 10, x, x / 2))
            x = float(rng.uniform(0.02, 0.08))
            if r + 1 < side:
                branches.append(Branch(i, i + side, x / 10, x, x / 2))

    plant_buses = rng.choice(n, size=300, replace=False) + 1
    load_p = rng.uniform(5, 25, n)
    load_p[plant_buses - 1] = 0.0
    total_load = float(load_p.sum())
    per_unit_mw = total_load / (2 * len(plant_buses))

    gens = []
    for k, b in enumerate(sorted(plant_buses.tolist())):
        for u in range(2):
            p = 0.0 if (k == 0 and u == 0) else per_unit_mw
            gens.append(Generator(
                id=f"g{b:05d}u{u}", bus_id=int(b),
                s_base_mva=round(per_unit_mw * 1.4, 1), p_mw=round(p, 4),
                q_mvar=0.0, p_max_mw=round(per_unit_mw * 1.2, 1), fuel="gas",
                h_sec=round(float(rng.uniform(3.0, 6.0)), 3),
                xdp_pu=round(float(rng.uniform(0.2, 0.3)), 4)))
    slack_bus = int(sorted(plant_buses.tolist())[0])
    kinds = {int(b): "pv" for b in plant_buses}
    kinds[slack_bus] = "slack"
    buses = [Bus(**{**bs.__dict__, "kind": kinds[bs.id], "v_mag": 1.02})
             if bs.id in kinds else bs for bs in buses]
    loads = [Load(id=f"ld{i+1:05d}", bus_id=i + 1, p_mw=round(float(p), 4),
                  q_mvar=round(float(p) * 0.3, 4))
             for i, p in enumerate(load_p) if p > 0]
    return GridCase(s_base_mva=100.0, name=f"grid{n}", buses=tuple(buses),
                    generators=tuple(gens), loads=tuple(loads),
                    branches=tuple(branches))


def fleet_case(seed: int = FLEET_NET_SEED) -> GridCase:
    """40-bus ring with a mixed 90 GW-class fleet and 30 GW of wind
    (``make_fleet_case``)."""
    rng = np.random.default_rng(seed)
    n = 40
    buses = []
    branches = []
    for b in range(1, n + 1):
        buses.append(Bus(id=b, name=f"B{b}", nominal_kv=345.0,
                         kind="slack" if b == 1 else "pq",
                         v_mag=1.02 if b == 1 else 1.0,
                         latitude=30.0 + 0.1 * (b % 7),
                         longitude=-99.0 + 0.1 * (b // 7)))
    for b in range(1, n + 1):
        nxt = b % n + 1
        x = float(rng.uniform(0.01, 0.03))
        branches.append(Branch(b, nxt, x / 10, x, 0.02))
        if b % 5 == 0:
            far = (b + 7) % n + 1
            x = float(rng.uniform(0.02, 0.05))
            branches.append(Branch(b, far, x / 10, x, 0.02))

    gens = []
    fuels = (["coal"] + ["nuclear"] * 2 + ["coal"] * 13 + ["gas"] * 14)
    for b, fuel in zip(range(1, 31), fuels):
        n_units = int(rng.integers(2, 5))
        size = float(rng.uniform(500, 1500)) if fuel != "nuclear" else 2000.0
        for u in range(n_units if fuel != "nuclear" else 1):
            p_max = round(size, 1)
            gens.append(Generator(
                id=f"g{b:02d}u{u}", bus_id=b, s_base_mva=round(p_max / 0.85, 1),
                p_mw=0.0, q_mvar=0.0, p_max_mw=p_max, fuel=fuel,
                h_sec=round(float(rng.uniform(2.5, 5.5)), 3),
                xdp_pu=round(float(rng.uniform(0.22, 0.35)), 4)))
    for b in (33, 35, 37, 39):
        gens.append(Generator(
            id=f"w{b:02d}", bus_id=b, s_base_mva=7500.0, p_mw=3750.0,
            p_max_mw=7500.0, fuel="wind", synchronous=False))

    loads = [Load(id=f"ld{b:02d}", bus_id=b, p_mw=1250.0, q_mvar=300.0)
             for b in range(1, n + 1)]

    total_load = 1250.0 * n
    wind_base = 15000.0
    nuclear = sum(g.p_max_mw for g in gens if g.fuel == "nuclear")
    rest = total_load - wind_base - nuclear
    cap = sum(g.p_max_mw for g in gens if g.synchronous and g.fuel != "nuclear")
    lam = rest / cap
    dispatched = []
    for g in gens:
        if not g.synchronous:
            dispatched.append(g)
        elif g.fuel == "nuclear":
            dispatched.append(Generator(**{**g.__dict__, "p_mw": g.p_max_mw}))
        else:
            dispatched.append(Generator(**{**g.__dict__, "p_mw": round(lam * g.p_max_mw, 3)}))
    gens = dispatched

    pv_buses = {g.bus_id for g in gens if g.status}
    buses = [Bus(**{**b.__dict__, "kind": "pv", "v_mag": 1.02})
             if b.kind == "pq" and b.id in pv_buses else b for b in buses]

    return GridCase(s_base_mva=1000.0, f_base_hz=60.0, name="fleet40",
                    buses=tuple(buses), generators=tuple(gens),
                    loads=tuple(loads), branches=tuple(branches))


def case9_shed_plan() -> GridCase:
    """The bundled 9-bus case with demo 05's shedding plan: load5 on UFLS
    stage 1, load6 on stage 2, load8 on fast frequency response."""
    case = rs.load_case9()
    return case.with_loads([
        dataclasses.replace(case.load("load5"), ufls_stage="stage1"),
        dataclasses.replace(case.load("load6"), ufls_stage="stage2"),
        dataclasses.replace(case.load("load8"), ffr=True),
    ])


def grid_contingencies(case: GridCase, seed: int,
                       n: int = GRID_N_CONTINGENCIES) -> list[rs.Contingency]:
    """n distinct losses of 1 to GRID_MAX_UNITS dispatched units, anywhere on
    the grid, each unit count equally likely."""
    rng = np.random.default_rng(seed)
    units = sorted(g.id for g in case.generators
                   if g.status and g.synchronous and g.p_mw > 0)
    seen: set[frozenset[str]] = set()
    out = []
    while len(out) < n:
        k = int(rng.integers(1, GRID_MAX_UNITS + 1))
        key = frozenset(units[i] for i in rng.choice(len(units), k, replace=False))
        if key not in seen:
            seen.add(key)
            out.append(rs.Contingency(f"ctg{len(out):03d}", key))
    return out


def case9_contingencies(case: GridCase, seed: int) -> list[rs.Contingency]:
    """Every loss of one or two of the 9-bus machines, in seeded order."""
    ids = [g.id for g in case.generators if g.status and g.synchronous]
    sets = [[a] for a in ids] + [[a, b] for i, a in enumerate(ids) for b in ids[i + 1:]]
    order = np.random.default_rng(seed).permutation(len(sets))
    return [rs.Contingency.of("+".join(sets[i]), sets[i]) for i in order]
