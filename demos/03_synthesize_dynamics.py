"""Synthesizing inertia constants and load-shedding assignments.

Many public power-flow cases carry no dynamic data at all. This demo strips
the bundled case down to a power-flow-only skeleton, then rebuilds the
dynamics synthetically: fuel-specific triangular draws for H (bounds taper
with unit size, plant mates share a draw) and MW-weighted random assignment
of loads to the three shedding stages. The result ships as a sidecar CSV so
the synthesis is diffable and reproducible from its seed.
"""

import dataclasses
from pathlib import Path

import numpy as np

from rocofscreen import (DEFAULT_FUEL_SPECS, assign_plant_correlated,
                         assign_ufls, case_io, load_case9, sample_h,
                         total_inertia_gws, validate_synthesis)
from rocofscreen.synthdyn import UFLS_FRACTIONS

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)
SEED = 42

# the distributions themselves, before any grid is involved
print("fuel-class inertia distributions (10,000 draws each, small units):")
rng = np.random.default_rng(SEED)
for fuel, spec in DEFAULT_FUEL_SPECS.items():
    draws = np.array([sample_h(spec, 0.02 * spec.p_max_mw, rng)
                      for _ in range(10000)])
    print(f"  {fuel:8s} range [{draws.min():.2f}, {draws.max():.2f}] s, "
          f"mean {draws.mean():.2f} s (table average {spec.h_avg})")
big = sample_h(DEFAULT_FUEL_SPECS["gas"], 5000.0, rng)
print(f"  a 5000 MW gas unit is past the taper endpoint: H = {big} s exactly")

# strip the bundled case to a power-flow-only skeleton
case = load_case9()
bare = case.with_generators(
    [dataclasses.replace(g, h_sec=None, xdp_pu=g.xdp_pu)
     for g in case.generators])
print("\nstripped case: every machine now has h_sec = None")

rng = np.random.default_rng(SEED)
synth = assign_plant_correlated(bare, rng)

for g in synth.generators:
    print(f"  {g.id}: fuel {g.fuel:5s} p_max {g.p_max_mw:6.1f} MW "
          f"-> H = {g.h_sec:.3f} s")
print(f"\nsynthetic total inertia: {total_inertia_gws(synth):.3f} GW-s")
print(validate_synthesis(synth))

# staging needs granularity: three bulk loads cannot hit 5/10/10% targets
# (assign_ufls warns and keeps the best effort), so feeders are modeled as
# 5 MW blocks on the same buses before assignment
blocks = []
for l in synth.loads:
    n_blk = int(l.p_mw // 5)
    for k in range(n_blk):
        share = l.p_mw / n_blk
        blocks.append(dataclasses.replace(
            l, id=f"{l.id}.{k}", p_mw=share, q_mvar=l.q_mvar / n_blk))
synth = assign_ufls(synth.with_loads(blocks), rng)

total = sum(l.p_mw for l in synth.loads)
print("\nshedding stages over the block-level loads "
      f"({len(blocks)} blocks, {total:.0f} MW):")
for stage, frac in zip(("stage1", "stage2", "stage3"), UFLS_FRACTIONS):
    mw = sum(l.p_mw for l in synth.loads if l.ufls_stage == stage)
    n = sum(1 for l in synth.loads if l.ufls_stage == stage)
    print(f"  {stage}: {n:2d} blocks, {mw:6.1f} MW = {mw / total:5.1%} "
          f"(target {frac:.0%})")

sidecar = out_dir / "wscc9_synth.dyn.csv"
case_io.write_sidecar(synth, sidecar)
print(f"\nwrote {sidecar} -- rerunning with seed {SEED} reproduces it "
      "byte for byte")
