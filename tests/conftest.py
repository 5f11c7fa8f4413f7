"""Shared fixtures: the bundled 9-bus case and synthetic grid builders."""

import dataclasses

import numpy as np
import pytest

from rocofscreen import (GridCase, augment_dynamic, build_ybus, init_machines,
                         load_case9, norton_currents, solve_powerflow)
from rocofscreen.case_model import Branch, Bus, Generator, Load


@pytest.fixture(scope="session")
def case9() -> GridCase:
    return load_case9()


@pytest.fixture(scope="session")
def solved9(case9):
    sol = solve_powerflow(case9)
    model = augment_dynamic(build_ybus(case9), case9, sol)
    states = init_machines(model, case9, sol)
    return case9, sol, model, states


def record_fields(record):
    """A dataclass record's fields with each float as its repr, so two
    records compare as their table rows do: NaN equals NaN, and -0.0 is not
    0.0."""
    return [repr(float(v)) if isinstance(v, float) else v
            for v in dataclasses.astuple(record)]


def currents(model, states):
    """The machines' Norton currents at their present angles."""
    return norton_currents(states.e_prime / model.xdp_sys, states.delta)


def case9_with_bus10(ties: str, rel: float, unit_mw: float | None = None) -> GridCase:
    """The 9-bus case with a bus 10 on a line from bus 9 (x = 0.1 pu) and
    one more tie, with, given unit_mw, a unit gen4 there whose Norton shunt
    is -5j pu. The ties: "weak" adds a series capacitor from bus 9 with
    x = -0.1 (1 + rel), so bus 10 hangs on about 10 rel pu; "capacitor"
    adds it from bus 8, so bus 10's self-admittance cancels to about 10 rel
    pu while both its ties stay strong; "charging" gives the
    line 30 (1 + rel) pu of charging, which with gen4 cancels bus 10's
    y_dyn diagonal (-10j + 15j - 5j) to about 15 rel."""
    line = Branch(9, 10, 0.0, 0.1)
    branches = {"weak": (line, Branch(9, 10, 0.0, -0.1 * (1 + rel))),
                "capacitor": (line, Branch(8, 10, 0.0, -0.1 * (1 + rel))),
                "charging": (Branch(9, 10, 0.0, 0.1, 30.0 * (1 + rel)),)}[ties]
    units = () if unit_mw is None else (
        Generator(id="gen4", bus_id=10, s_base_mva=100.0, p_mw=unit_mw,
                  p_max_mw=40.0, h_sec=3.0, xdp_pu=0.2),)
    case = load_case9()
    return dataclasses.replace(
        case, buses=case.buses + (Bus(id=10, kind="pv" if units else "pq"),),
        generators=case.generators + units, branches=case.branches + branches)


def make_fleet_case(seed: int = 1) -> GridCase:
    """A 40-bus ring system with a mixed 90 GW-class fleet and 30 GW of wind.

    Local generation roughly balances local load so the base power flow is
    benign; system base 1000 MVA keeps per-unit flows moderate. Used by the
    dispatch/scenario tests (and sized so the study's demand range of
    15-75 GW and wind range of 10-30 GW are feasible).
    """
    rng = np.random.default_rng(seed)
    n = 40
    s_base = 1000.0
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
        if b % 5 == 0:  # chords shorten the ring
            far = (b + 7) % n + 1
            x = float(rng.uniform(0.02, 0.05))
            branches.append(Branch(b, far, x / 10, x, 0.02))

    gens = []
    plant_buses = list(range(1, 31))
    fuels = (["coal"] + ["nuclear"] * 2 + ["coal"] * 13 + ["gas"] * 14)
    for b, fuel in zip(plant_buses, fuels):
        n_units = int(rng.integers(2, 5))
        size = float(rng.uniform(500, 1500)) if fuel != "nuclear" else 2000.0
        for u in range(n_units if fuel != "nuclear" else 1):
            p_max = round(size, 1)
            gens.append(Generator(
                id=f"g{b:02d}u{u}", bus_id=b, s_base_mva=round(p_max / 0.85, 1),
                p_mw=0.0, q_mvar=0.0, p_max_mw=p_max, fuel=fuel,
                h_sec=round(float(rng.uniform(2.5, 5.5)), 3),
                xdp_pu=round(float(rng.uniform(0.22, 0.35)), 4)))
    for k, b in enumerate((33, 35, 37, 39)):
        gens.append(Generator(
            id=f"w{b:02d}", bus_id=b, s_base_mva=7500.0, p_mw=3750.0,
            p_max_mw=7500.0, fuel="wind", synchronous=False))

    loads = [Load(id=f"ld{b:02d}", bus_id=b, p_mw=1250.0, q_mvar=300.0)
             for b in range(1, n + 1)]

    # benign base dispatch: wind at half output, nuclear full, rest uniform
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

    return GridCase(s_base_mva=s_base, f_base_hz=60.0, name="fleet40",
                    buses=tuple(buses), generators=tuple(gens),
                    loads=tuple(loads), branches=tuple(branches))


def make_grid_case(side: int = 71, seed: int = 7) -> GridCase:
    """A side x side grid network with ~300 two-unit plants; used for the
    large-case screening-speed comparison."""
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


@pytest.fixture(scope="session")
def fleet_case() -> GridCase:
    case = make_fleet_case()
    return case


def tiny_case(load_mw: float = 100.0, xdp_sys: float = 0.1,
              h_sec: float = 3.0) -> GridCase:
    """One slack bus, one machine on the system base, optional local load."""
    loads = (Load(id="ld1", bus_id=1, p_mw=load_mw, q_mvar=0.0),) if load_mw else ()
    return GridCase(
        s_base_mva=100.0, name="tiny",
        buses=(Bus(id=1, kind="slack", v_mag=1.0),),
        generators=(Generator(id="g1", bus_id=1, s_base_mva=100.0,
                              p_mw=load_mw, q_mvar=0.0, p_max_mw=250.0,
                              fuel="gas", h_sec=h_sec, xdp_pu=xdp_sys),),
        loads=loads,
        branches=(),
    )
