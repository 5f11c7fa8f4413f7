"""Synthetic inertia parameters and load-shedding assignments.

Inertia constants are drawn from fuel-specific triangular distributions
whose bounds taper linearly toward the fuel's average as unit size grows;
units at or above the taper endpoint get exactly the average. Units at the
same substation with the same fuel and similar rating share one draw,
reflecting how multi-unit plants use near-identical designs.

The mode of each triangular is chosen so the distribution mean equals the
fuel average, clamped into the tapered bounds when that target is
infeasible (coal and nuclear at full width; the resulting mean shift is
about 4% and 1.6% respectively and is absorbed by the 5% validation
tolerance).

The study parameters are fixed module constants, not options: the fuel
distributions (DEFAULT_FUEL_SPECS), the UFLS plan (UFLS_FRACTIONS of system
load within UFLS_TOLERANCE_PP; the stage thresholds live with the monitors
in swingsim.UFLS_THRESHOLDS_HZ), the plant grouping tolerance and the
report's tolerances.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .case_model import GridCase, Generator, Load, total_inertia_gws

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FuelInertiaSpec:
    """Triangular-distribution parameters for one fuel class."""

    fuel: str
    h_max: float
    h_min: float
    h_avg: float
    p_max_mw: float

    def __post_init__(self):
        if not (self.h_min < self.h_avg < self.h_max):
            raise ValueError(f"{self.fuel}: require h_min < h_avg < h_max")
        if self.p_max_mw <= 0:
            raise ValueError(f"{self.fuel}: require p_max_mw > 0")


DEFAULT_FUEL_SPECS: dict[str, FuelInertiaSpec] = {
    "nuclear": FuelInertiaSpec("nuclear", 5.2, 3.8, 4.2, 10000.0),
    "coal": FuelInertiaSpec("coal", 6.0, 2.0, 3.2, 3000.0),
    "gas": FuelInertiaSpec("gas", 10.0, 1.0, 4.3, 2000.0),
}


# Fixed study parameters: the UFLS plan's share of system load per stage,
# met within a tolerance in percentage points of system load; the rating
# spread within which units at one substation share a plant draw; and the
# report's tolerance on each fuel's mean H and its count of size bins.
UFLS_FRACTIONS = (0.05, 0.10, 0.10)
UFLS_TOLERANCE_PP = 0.5
PLANT_RATING_SIMILARITY = 0.10
MEAN_TOLERANCE = 0.05
N_SIZE_BINS = 4


def tapered_bounds(spec: FuelInertiaSpec, unit_mw: float) -> tuple[float, float, float]:
    """(low, mode, high) of the size-tapered triangular for one unit.

    s = min(unit_mw / p_max, 1) shrinks the bounds linearly toward h_avg;
    the mode targets mean == h_avg and is clamped into [low, high].
    """
    s = min(unit_mw / spec.p_max_mw, 1.0)
    a = spec.h_avg + (spec.h_min - spec.h_avg) * (1.0 - s)
    b = spec.h_avg + (spec.h_max - spec.h_avg) * (1.0 - s)
    c = min(max(3.0 * spec.h_avg - a - b, a), b)
    return a, c, b


def sample_h(spec: FuelInertiaSpec, unit_mw: float,
             rng: np.random.Generator) -> float:
    """One inertia-constant draw (seconds, machine base) for a unit of the
    given size. Units at or beyond the taper endpoint return exactly h_avg."""
    if unit_mw <= 0:
        raise ValueError("unit_mw must be > 0")
    if unit_mw >= spec.p_max_mw:
        return spec.h_avg
    a, c, b = tapered_bounds(spec, unit_mw)
    if b - a < 1e-12:
        return spec.h_avg
    return float(rng.triangular(a, c, b))


def _spec_for(gen: Generator) -> FuelInertiaSpec:
    if gen.fuel in DEFAULT_FUEL_SPECS:
        return DEFAULT_FUEL_SPECS[gen.fuel]
    log.warning("generator %s has fuel %r without a spec; using the gas "
                "distribution", gen.id, gen.fuel)
    return DEFAULT_FUEL_SPECS["gas"]


def assign_plant_correlated(case: GridCase, rng: np.random.Generator) -> GridCase:
    """Fill h_sec for every in-service synchronous machine, one draw per
    plant group.

    A group is the units at one substation (bus) with the same fuel and
    ratings within PLANT_RATING_SIMILARITY of the group's largest member;
    all members of a group receive the same value, drawn from the fuel's
    DEFAULT_FUEL_SPECS entry. Deterministic given the rng state.
    """
    sync = [g for g in case.generators if g.synchronous and g.status]
    sync.sort(key=lambda g: (g.bus_id, g.fuel, -g.p_max_mw, g.id))

    groups: list[list[Generator]] = []
    for g in sync:
        grp = groups[-1] if groups else None
        if (grp and grp[0].bus_id == g.bus_id and grp[0].fuel == g.fuel
                and grp[0].p_max_mw - g.p_max_mw
                <= PLANT_RATING_SIMILARITY * grp[0].p_max_mw):
            grp.append(g)
        else:
            groups.append([g])

    drawn: dict[str, float] = {}
    for grp in groups:
        spec = _spec_for(grp[0])
        size = float(np.mean([g.p_max_mw for g in grp]))
        h = sample_h(spec, max(size, 1e-6), rng)
        for g in grp:
            drawn[g.id] = h

    new_gens = [replace(g, h_sec=drawn[g.id]) if g.id in drawn else g
                for g in case.generators]
    return case.with_generators(new_gens)


def assign_ufls(case: GridCase, rng: np.random.Generator) -> GridCase:
    """Assign loads to the three shedding stages, targeting UFLS_FRACTIONS
    of total system MW within UFLS_TOLERANCE_PP.

    Loads are drawn in MW-weighted random order without replacement; each
    stage keeps taking until it is inside its band, skipping a draw when
    taking it would land farther from the target than stopping short. A
    stage that cannot reach its band emits a warning and keeps the
    best-effort assignment.
    """
    loads = [l for l in case.loads if l.p_mw > 0]
    if not loads:
        return case
    total = sum(l.p_mw for l in loads)
    tol_mw = UFLS_TOLERANCE_PP / 100.0 * total
    weights = np.array([l.p_mw for l in loads]) / total
    order = rng.choice(len(loads), size=len(loads), replace=False, p=weights)
    remaining = [loads[i] for i in order]

    stage_names = ("stage1", "stage2", "stage3")
    assignment: dict[str, str] = {}
    for stage, frac in zip(stage_names, UFLS_FRACTIONS):
        target = frac * total
        acc = 0.0
        kept: list[Load] = []
        for l in remaining:
            if acc >= target - tol_mw:
                kept.append(l)
                continue
            if acc + l.p_mw <= target + tol_mw:
                assignment[l.id] = stage
                acc += l.p_mw
            elif abs(acc + l.p_mw - target) < abs(acc - target):
                assignment[l.id] = stage
                acc += l.p_mw
            else:
                kept.append(l)
        remaining = kept
        if abs(acc - target) > tol_mw:
            log.warning(
                "ufls %s reaches %.1f MW against a target of %.1f +- %.1f MW; "
                "load granularity is insufficient, keeping best effort",
                stage, acc, target, tol_mw)

    new_loads = [replace(l, ufls_stage=assignment[l.id]) if l.id in assignment
                 else replace(l, ufls_stage="none") for l in case.loads]
    return case.with_loads(new_loads)


@dataclass
class FuelStats:
    fuel: str
    count: int
    h_min: float
    h_max: float
    h_mean: float
    target_avg: float
    flagged: bool


@dataclass
class SynthesisReport:
    total_inertia_gws: float
    per_fuel: dict[str, FuelStats]
    size_bin_edges: list[float]
    size_bin_spread: dict[str, list[float]]   # fuel -> H std-dev per size bin
    flags: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        lines = [f"total inertia: {self.total_inertia_gws:.3f} GW-s"]
        for fs in self.per_fuel.values():
            mark = "  <-- mean off target" if fs.flagged else ""
            lines.append(
                f"  {fs.fuel:8s} n={fs.count:5d}  H in [{fs.h_min:.3f}, "
                f"{fs.h_max:.3f}]  mean {fs.h_mean:.3f} "
                f"(target {fs.target_avg:.2f}){mark}")
        return "\n".join(lines)


def validate_synthesis(case: GridCase) -> SynthesisReport:
    """Summary statistics of the assigned inertia constants.

    Flags any fuel whose empirical mean deviates more than MEAN_TOLERANCE
    from the fuel's target average. N_SIZE_BINS size bins are fractions of
    each fuel's taper endpoint, tracking how the spread narrows with unit
    size. Raises, naming the unit, when an in-service synchronous machine
    has no inertia constant (case_model.total_inertia_gws).
    """
    total = total_inertia_gws(case)
    fleet = [g for g in case.generators if g.synchronous and g.status]
    edges = [i / N_SIZE_BINS for i in range(N_SIZE_BINS + 1)]
    per_fuel: dict[str, FuelStats] = {}
    spread: dict[str, list[float]] = {}
    flags: list[str] = []

    for fuel in sorted({g.fuel for g in fleet}):
        spec = DEFAULT_FUEL_SPECS.get(fuel, DEFAULT_FUEL_SPECS["gas"])
        hs = np.array([g.h_sec for g in fleet if g.fuel == fuel])
        sizes = np.array([g.p_max_mw for g in fleet if g.fuel == fuel])
        mean = float(hs.mean())
        flagged = abs(mean - spec.h_avg) > MEAN_TOLERANCE * spec.h_avg
        per_fuel[fuel] = FuelStats(fuel, len(hs), float(hs.min()),
                                   float(hs.max()), mean, spec.h_avg, flagged)
        if flagged:
            flags.append(f"{fuel}: empirical mean {mean:.3f} deviates more "
                         f"than {MEAN_TOLERANCE:.0%} from {spec.h_avg}")
        s = np.minimum(sizes / spec.p_max_mw, 1.0)
        row = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (s >= lo) & (s < hi) if hi < 1 else (s >= lo)
            row.append(float(hs[sel].std()) if sel.sum() >= 2 else math.nan)
        spread[fuel] = row

    return SynthesisReport(total, per_fuel, edges, spread, flags)
