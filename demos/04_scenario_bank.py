"""Batch screening over a contingency/loading scenario bank.

Builds a synthetic 40-bus system with a mixed 90 GW fleet and 30 GW of
wind, sweeps demand and wind over a grid of loading cases, samples a bank
of large generation-loss contingencies, and screens every pair with the
two-solve locational method. The output table carries, per scenario, the
system-wide figure plus the min/mean/max of the per-bus screen and a flag
for values past the concern threshold.
"""

from pathlib import Path

import numpy as np

from rocofscreen import (case_io, dispatch_heuristic, generate_contingencies,
                         generate_loading_cases, run_bank)
from rocofscreen.case_model import Branch, Bus, Generator, GridCase, Load

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)
SEED = 7


def build_fleet_case(seed=1):
    """Ring network, one plant at most buses, wind farms at four."""
    rng = np.random.default_rng(seed)
    n = 40
    buses, branches, gens, loads = [], [], [], []
    for b in range(1, n + 1):
        buses.append(Bus(id=b, name=f"B{b}", nominal_kv=345.0,
                         kind="slack" if b == 1 else "pq",
                         v_mag=1.02 if b == 1 else 1.0,
                         latitude=30.0 + 0.1 * (b % 7),
                         longitude=-99.0 + 0.1 * (b // 7)))
        nxt = b % n + 1
        x = float(rng.uniform(0.01, 0.03))
        branches.append(Branch(b, nxt, x / 10, x, 0.02))
        if b % 5 == 0:
            x = float(rng.uniform(0.02, 0.05))
            branches.append(Branch(b, (b + 7) % n + 1, x / 10, x, 0.02))
        loads.append(Load(id=f"ld{b:02d}", bus_id=b, p_mw=1250.0, q_mvar=300.0))

    fuels = ["coal"] + ["nuclear"] * 2 + ["coal"] * 13 + ["gas"] * 14
    for b, fuel in zip(range(1, 31), fuels):
        n_units = int(rng.integers(2, 5)) if fuel != "nuclear" else 1
        size = float(rng.uniform(500, 1500)) if fuel != "nuclear" else 2000.0
        for u in range(n_units):
            gens.append(Generator(
                id=f"g{b:02d}u{u}", bus_id=b, s_base_mva=round(size / 0.85, 1),
                p_mw=0.0, p_max_mw=round(size, 1), fuel=fuel,
                h_sec=round(float(rng.uniform(2.5, 5.5)), 3),
                xdp_pu=round(float(rng.uniform(0.22, 0.35)), 4)))
    for b in (33, 35, 37, 39):
        gens.append(Generator(id=f"w{b}", bus_id=b, s_base_mva=7500.0,
                              p_mw=3750.0, p_max_mw=7500.0, fuel="wind",
                              synchronous=False))
    pv = {g.bus_id for g in gens}
    buses = [Bus(**{**bb.__dict__, "kind": "pv", "v_mag": 1.02})
             if bb.kind == "pq" and bb.id in pv else bb for bb in buses]
    return GridCase(s_base_mva=1000.0, name="fleet40", buses=tuple(buses),
                    generators=tuple(gens), loads=tuple(loads),
                    branches=tuple(branches))


case = build_fleet_case()
wind_cap = sum(g.p_max_mw for g in case.generators if not g.synchronous)
sync_cap = sum(g.p_max_mw for g in case.generators if g.synchronous)
print(f"fleet: {sync_cap / 1000:.0f} GW synchronous, "
      f"{wind_cap / 1000:.0f} GW wind, {len(case.generators)} units")

rng = np.random.default_rng(SEED)
base = dispatch_heuristic(case, 50000.0, 15000.0)
contingencies = generate_contingencies(base, 30, rng)
sizes = [c.total_mw_lost for c in contingencies]
print(f"\n{len(contingencies)} contingencies, "
      f"{min(sizes):.0f}-{max(sizes):.0f} MW "
      f"({sum(1 for s in sizes if s <= 2750)} at or below the design size)")

loading = generate_loading_cases(case, 12, (20000.0, 60000.0),
                                 (10000.0, 25000.0))
print(f"{len(loading)} loading cases, online inertia "
      f"{min(lc.online_inertia_gws for lc in loading):.0f}"
      f"-{max(lc.online_inertia_gws for lc in loading):.0f} GW-s, "
      f"wind share {min(lc.wind_fraction for lc in loading):.0%}"
      f"-{max(lc.wind_fraction for lc in loading):.0%}")

table = out_dir / "bank_results.csv"
records = run_bank(case, loading, contingencies, mode="locational",
                   out_path=table)
ok = [r for r in records if r.status == "ok"]
skipped = sum(1 for r in records if r.status == "no_online_units")
flagged = [r for r in ok if r.concern_flag]
print(f"\nscreened {len(records)} scenarios: {len(ok)} evaluated, "
      f"{skipped} skipped because the referenced units are offline under "
      f"that loading case, {len(flagged)} past the -0.5 Hz/s concern "
      "threshold")

worst = min(ok, key=lambda r: r.bus_rocof_min)
print(f"deepest per-bus value: {worst.bus_rocof_min:+.3f} Hz/s at bus "
      f"{worst.worst_bus} ({worst.loading_id} x {worst.contingency_id}, "
      f"{worst.mw_lost:.0f} MW lost, system figure "
      f"{worst.system_rocof_hz_s:+.3f} Hz/s)")
print("the locational spread is the information the system-wide number "
      "cannot give")
print(f"\nwrote {table}")
case_io.write_contingencies(contingencies, out_dir / "contingencies.csv")
case_io.write_loading_cases(loading, out_dir / "loading_cases.json")
