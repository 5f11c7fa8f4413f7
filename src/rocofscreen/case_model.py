"""Grid case data model and structural integrity checks.

A :class:`GridCase` bundles the static network (buses, branches) with
generator, load, and dynamic-parameter records. Cases are immutable after
construction; analysis modules treat them as read-only and derive their own
working structures, so one case can safely back many concurrent evaluations.

A bank's records live here too: :class:`LoadingCase`, one operating point,
and :class:`ScenarioRecord`, one row of the table whose format case_io owns.

Per-unit conventions: branch impedances are on the system MVA base; machine
inertia ``h_sec`` and transient reactance ``xdp_pu`` are on the machine MVA
base and converted where used. Angles are radians in memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

BUS_KINDS = ("slack", "pv", "pq")
FUELS = ("nuclear", "coal", "gas", "wind", "other")
UFLS_STAGES = ("none", "stage1", "stage2", "stage3")


@dataclass(frozen=True)
class Bus:
    """Network node. ``kind`` is one of slack/pv/pq; exactly one slack is
    required per connected island. ``v_mag``/``v_ang`` hold the solved (or
    imported) operating point when available."""

    id: int
    name: str = ""
    nominal_kv: float = 1.0
    kind: str = "pq"
    v_mag: float = 1.0
    v_ang: float = 0.0  # radians
    latitude: float | None = None
    longitude: float | None = None


@dataclass(frozen=True)
class Generator:
    """Generating unit. ``h_sec`` and ``xdp_pu`` are on the machine base
    ``s_base_mva`` and stay ``None`` until supplied by a sidecar or synthesis.
    Wind and other converter-interfaced units carry ``synchronous=False``;
    they contribute no inertia and are folded into the passive network as
    negative constant-impedance load during dynamic analysis."""

    id: str
    bus_id: int
    s_base_mva: float
    p_mw: float = 0.0
    q_mvar: float = 0.0
    p_max_mw: float = 0.0
    fuel: str = "other"
    h_sec: float | None = None
    xdp_pu: float | None = None
    status: bool = True
    synchronous: bool = True


@dataclass(frozen=True)
class Load:
    """Demand record. ``ufls_stage`` marks membership in one of the three
    under-frequency shedding stages; ``ffr`` flags fast-frequency-response
    resources that trip deliberately on sustained under-frequency."""

    id: str
    bus_id: int
    p_mw: float = 0.0
    q_mvar: float = 0.0
    ufls_stage: str = "none"
    ffr: bool = False


@dataclass(frozen=True)
class Branch:
    """Transmission element (pi model), impedances on the system base.
    ``tap_ratio`` applies at the from side (1.0 for none)."""

    from_bus: int
    to_bus: int
    r_pu: float
    x_pu: float
    b_pu: float = 0.0
    tap_ratio: float = 1.0
    status: bool = True


@dataclass(frozen=True)
class GridCase:
    s_base_mva: float = 100.0
    f_base_hz: float = 60.0
    name: str = ""
    buses: tuple[Bus, ...] = ()
    generators: tuple[Generator, ...] = ()
    loads: tuple[Load, ...] = ()
    branches: tuple[Branch, ...] = ()

    def bus_index(self) -> dict[int, int]:
        """Map bus id -> position in ``buses``."""
        return {b.id: i for i, b in enumerate(self.buses)}

    def bus(self, bus_id: int) -> Bus:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise UnknownIdError(f"no bus with id {bus_id}")

    def generator(self, gen_id: str) -> Generator:
        for g in self.generators:
            if g.id == gen_id:
                return g
        raise UnknownIdError(f"no generator with id {gen_id!r}")

    def load(self, load_id: str) -> Load:
        for l in self.loads:
            if l.id == load_id:
                return l
        raise UnknownIdError(f"no load with id {load_id!r}")

    def with_generators(self, generators: Iterable[Generator]) -> "GridCase":
        return replace(self, generators=tuple(generators))

    def with_loads(self, loads: Iterable[Load]) -> "GridCase":
        return replace(self, loads=tuple(loads))

    def with_buses(self, buses: Iterable[Bus]) -> "GridCase":
        return replace(self, buses=tuple(buses))


@dataclass(frozen=True)
class LoadingCase:
    """One demand/wind operating point with its committed dispatch."""

    id: str
    target_load_mw: float
    target_wind_mw: float
    dispatch: dict[str, float]          # gen id -> p_mw for in-service units
    committed: frozenset[str]           # in-service unit ids (incl. wind)
    online_inertia_gws: float
    wind_fraction: float


@dataclass
class ScenarioRecord:
    """One row of a bank's scenario table: a (loading case, contingency)
    pair and what its evaluation found (see docs/case_schema.md)."""

    loading_id: str
    contingency_id: str
    mw_lost: float
    inertia_gws: float
    system_rocof_hz_s: float
    bus_rocof_min: float = math.nan
    bus_rocof_mean: float = math.nan
    bus_rocof_max: float = math.nan
    worst_bus: int | None = None
    concern_flag: bool = False
    status: str = "ok"


@dataclass(frozen=True)
class Violation:
    """One failed integrity rule. ``kind``/``ref`` name the offending record."""

    kind: str
    ref: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind} {self.ref}: {self.message} [{self.rule}]"


class CaseValidationError(ValueError):
    """Raised when an operation requires a valid case but violations exist."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = "\n".join(str(v) for v in violations)
        super().__init__(f"{len(violations)} case violation(s):\n{lines}")


class InputError(ValueError):
    """An input value or request the library cannot act on, such as a unit
    without an inertia constant or a non-positive time step."""


class UnknownIdError(KeyError):
    """An id that names no record of the case, or no machine of a model."""


def island_labels(case: GridCase) -> np.ndarray:
    """Connected-component label per bus, using in-service branches only."""
    idx = case.bus_index()
    n = len(case.buses)
    rows, cols = [], []
    for br in case.branches:
        if not br.status:
            continue
        if br.from_bus in idx and br.to_bus in idx:
            rows.append(idx[br.from_bus])
            cols.append(idx[br.to_bus])
    adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    _, labels = connected_components(adj, directed=False)
    return labels


def validate_case(case: GridCase) -> list[Violation]:
    """Check every structural invariant; return one Violation per breach.

    Violations are data, not exceptions: an empty list means the case is
    sound. Unset dynamic parameters (``h_sec``/``xdp_pu`` of ``None``) are not
    violations here -- they only block dynamic analysis, which checks for
    them at model-build time.
    """
    out: list[Violation] = []
    if case.s_base_mva <= 0:
        out.append(Violation("case", case.name or "-", "s_base_positive",
                             f"s_base_mva must be > 0, got {case.s_base_mva}"))
    if case.f_base_hz <= 0:
        out.append(Violation("case", case.name or "-", "f_base_positive",
                             f"f_base_hz must be > 0, got {case.f_base_hz}"))

    for kind, records in (("bus", case.buses), ("generator", case.generators),
                          ("load", case.loads)):
        seen: set = set()
        for r in records:
            if r.id in seen:
                out.append(Violation(kind, str(r.id), "unique_id",
                                     f"duplicate {kind} id {r.id!r}"))
            seen.add(r.id)

    for b in case.buses:
        if b.kind not in BUS_KINDS:
            out.append(Violation("bus", str(b.id), "kind",
                                 f"unknown bus kind {b.kind!r}"))
        if b.v_mag <= 0:
            out.append(Violation("bus", str(b.id), "v_mag_positive",
                                 f"v_mag must be > 0, got {b.v_mag}"))

    idx = case.bus_index()
    for g in case.generators:
        if g.bus_id not in idx:
            out.append(Violation("generator", g.id, "bus_exists",
                                 f"references missing bus {g.bus_id}"))
        if g.s_base_mva <= 0:
            out.append(Violation("generator", g.id, "s_base_positive",
                                 f"s_base_mva must be > 0, got {g.s_base_mva}"))
        if g.fuel not in FUELS:
            out.append(Violation("generator", g.id, "fuel",
                                 f"unknown fuel {g.fuel!r}"))
        if g.status and g.synchronous:
            if g.h_sec is not None and g.h_sec <= 0:
                out.append(Violation("generator", g.id, "h_positive",
                                     f"h_sec must be > 0, got {g.h_sec}"))
            if g.xdp_pu is not None and g.xdp_pu <= 0:
                out.append(Violation("generator", g.id, "xdp_positive",
                                     f"xdp_pu must be > 0, got {g.xdp_pu}"))
        if not (0.0 <= g.p_mw <= g.p_max_mw) and g.status:
            out.append(Violation("generator", g.id, "dispatch_range",
                                 f"p_mw {g.p_mw} outside [0, {g.p_max_mw}]"))

    for l in case.loads:
        if l.bus_id not in idx:
            out.append(Violation("load", l.id, "bus_exists",
                                 f"references missing bus {l.bus_id}"))
        if l.ufls_stage not in UFLS_STAGES:
            out.append(Violation("load", l.id, "ufls_stage",
                                 f"unknown ufls_stage {l.ufls_stage!r}"))
        elif l.ufls_stage != "none" and l.p_mw <= 0:
            out.append(Violation("load", l.id, "ufls_requires_mw",
                                 f"ufls_stage {l.ufls_stage} but p_mw {l.p_mw} <= 0"))

    for k, br in enumerate(case.branches):
        ref = f"{br.from_bus}-{br.to_bus}"
        if br.from_bus == br.to_bus:
            out.append(Violation("branch", ref, "distinct_ends",
                                 "from_bus equals to_bus"))
        if br.x_pu == 0:
            out.append(Violation("branch", ref, "nonzero_x", "x_pu is zero"))
        for end in (br.from_bus, br.to_bus):
            if end not in idx:
                out.append(Violation("branch", ref, "bus_exists",
                                     f"references missing bus {end}"))

    if not any(g.status and g.synchronous for g in case.generators):
        out.append(Violation("case", case.name or "-", "synchronous_fleet",
                             "no in-service synchronous generator"))

    # one slack per island (only meaningful when every endpoint resolves to
    # one bus)
    if case.buses and not any(v.rule == "bus_exists" or
                              (v.kind, v.rule) == ("bus", "unique_id") for v in out):
        labels = island_labels(case)
        n_isl = labels.max() + 1 if len(labels) else 0
        slack_count = np.zeros(n_isl, dtype=int)
        for b in case.buses:
            if b.kind == "slack":
                slack_count[labels[idx[b.id]]] += 1
        for isl in range(n_isl):
            if slack_count[isl] != 1:
                members = [case.buses[i].id for i in np.flatnonzero(labels == isl)]
                out.append(Violation(
                    "island", str(isl), "one_slack_per_island",
                    f"island with buses {members} has {slack_count[isl]} slack buses"))
    return out


def total_inertia_gws(case: GridCase) -> float:
    """Total stored-energy rating of the in-service synchronous fleet, GW-s.

    Sum of h_sec * s_base_mva over in-service synchronous machines.
    Out-of-service and non-synchronous units are excluded. Raises if any
    counted machine has no inertia constant assigned yet.
    """
    total_mws = 0.0
    for g in case.generators:
        if not (g.status and g.synchronous):
            continue
        if g.h_sec is None:
            raise InputError(
                f"generator {g.id!r} is in service but has no h_sec; "
                "apply a dynamics sidecar or synthesize parameters first")
        total_mws += g.h_sec * g.s_base_mva
    return total_mws / 1000.0
