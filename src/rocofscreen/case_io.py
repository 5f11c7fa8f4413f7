"""Case and result serialization.

Formats owned here:

* versioned JSON case documents (see docs/case_schema.md) -- angles are
  degrees in files and radians in memory, converted only in this module;
* the dynamics sidecar CSV that carries per-generator inertia parameters
  and per-load shedding assignments next to a case file;
* a read-only subset of the IEEE Common Data Format (title, bus, and branch
  sections) for public power-flow cases;
* CSV and GeoJSON result writers, plus the contingency/loading-bank and
  scenario-table files used by the batch runner.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

from .case_model import (Branch, Bus, CaseValidationError, FUELS, Generator,
                         GridCase, Load, UFLS_STAGES, validate_case)
from .powerflow import PowerFlowSolution
from .rocof import Contingency, RocofResult
from .scenarios import LoadingCase, SCENARIO_COLUMNS, ScenarioRecord
from .swingsim import SimResult, TripEvent

SCHEMA_VERSION = "1.0"
SIDECAR_COLUMNS = ["record", "id", "h_sec", "xdp_pu", "fuel", "ufls_stage", "ffr"]
CONTINGENCY_COLUMNS = ["id", "outaged_generator_ids", "mw_lost"]


class CaseParseError(ValueError):
    """A document could not be parsed; the message carries the location."""


def _req(obj: dict, key: str, where: str):
    if key not in obj:
        raise CaseParseError(f"missing required field {key!r} in {where}")
    return obj[key]


_REQUIRED = object()


def _num(obj: dict, key: str, where: str, default=_REQUIRED, cast=float):
    """obj[key] as a number (``default`` when the key is absent; without one
    the key is required); CaseParseError names where and key otherwise."""
    raw = _req(obj, key, where) if default is _REQUIRED else obj.get(key, default)
    return _number(raw, where, key, cast)


def _opt_float(obj: dict, key: str, where: str):
    v = obj.get(key)
    return None if v is None else _number(v, where, key)


def sidecar_path_for(case_path) -> Path:
    """Companion sidecar convention: <case>.json -> <case>.dyn.csv."""
    p = Path(case_path)
    return p.with_suffix(".dyn.csv")


def read_case(path, sidecar=None) -> GridCase:
    """Load and validate a JSON case document.

    A companion sidecar (``<case>.dyn.csv``) is applied automatically when
    present; an explicit ``sidecar`` path overrides the convention. Raises
    CaseParseError for malformed documents and CaseValidationError when the
    parsed case breaks structural invariants.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CaseParseError(f"{path}: invalid JSON: {exc}") from exc

    version = _req(doc, "schema_version", str(path))
    if str(version).split(".")[0] != SCHEMA_VERSION.split(".")[0]:
        raise CaseParseError(
            f"{path}: unsupported schema_version {version!r} "
            f"(this reader handles {SCHEMA_VERSION})")
    c = _req(doc, "case", str(path))
    at = f"{path}: case"

    buses = []
    for i, b in enumerate(_req(c, "buses", at)):
        where = f"{path}: buses[{i}]"
        buses.append(Bus(
            id=_num(b, "id", where, cast=int),
            name=str(b.get("name", "")),
            nominal_kv=_num(b, "nominal_kv", where, 1.0),
            kind=str(b.get("kind", "pq")),
            v_mag=_num(b, "v_mag", where, 1.0),
            v_ang=math.radians(_num(b, "v_ang_deg", where, 0.0)),
            latitude=_opt_float(b, "latitude", where),
            longitude=_opt_float(b, "longitude", where),
        ))
    generators = []
    for i, g in enumerate(c.get("generators", [])):
        where = f"{path}: generators[{i}]"
        generators.append(Generator(
            id=str(_req(g, "id", where)),
            bus_id=_num(g, "bus_id", where, cast=int),
            s_base_mva=_num(g, "s_base_mva", where),
            p_mw=_num(g, "p_mw", where, 0.0),
            q_mvar=_num(g, "q_mvar", where, 0.0),
            p_max_mw=_num(g, "p_max_mw", where, 0.0),
            fuel=str(g.get("fuel", "other")),
            h_sec=_opt_float(g, "h_sec", where),
            xdp_pu=_opt_float(g, "xdp_pu", where),
            status=bool(g.get("status", True)),
            synchronous=bool(g.get("synchronous", True)),
        ))
    loads = []
    for i, l in enumerate(c.get("loads", [])):
        where = f"{path}: loads[{i}]"
        loads.append(Load(
            id=str(_req(l, "id", where)),
            bus_id=_num(l, "bus_id", where, cast=int),
            p_mw=_num(l, "p_mw", where, 0.0),
            q_mvar=_num(l, "q_mvar", where, 0.0),
            ufls_stage=str(l.get("ufls_stage", "none")),
            ffr=bool(l.get("ffr", False)),
        ))
    branches = []
    for i, br in enumerate(c.get("branches", [])):
        where = f"{path}: branches[{i}]"
        branches.append(Branch(
            from_bus=_num(br, "from_bus", where, cast=int),
            to_bus=_num(br, "to_bus", where, cast=int),
            r_pu=_num(br, "r_pu", where),
            x_pu=_num(br, "x_pu", where),
            b_pu=_num(br, "b_pu", where, 0.0),
            tap_ratio=_num(br, "tap_ratio", where, 1.0),
            status=bool(br.get("status", True)),
        ))

    case = GridCase(
        s_base_mva=_num(c, "s_base_mva", at),
        f_base_hz=_num(c, "f_base_hz", at, 60.0),
        name=str(c.get("name", path.stem)),
        buses=tuple(buses),
        generators=tuple(generators),
        loads=tuple(loads),
        branches=tuple(branches),
    )

    if sidecar is None and sidecar_path_for(path).exists():
        sidecar = sidecar_path_for(path)
    if sidecar is not None:
        case = apply_sidecar(case, sidecar)

    violations = validate_case(case)
    if violations:
        raise CaseValidationError(violations)
    return case


def write_case(case: GridCase, path) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "case": {
            "name": case.name,
            "s_base_mva": case.s_base_mva,
            "f_base_hz": case.f_base_hz,
            "buses": [
                {k: v for k, v in {
                    "id": b.id, "name": b.name, "nominal_kv": b.nominal_kv,
                    "kind": b.kind, "v_mag": b.v_mag,
                    "v_ang_deg": math.degrees(b.v_ang),
                    "latitude": b.latitude, "longitude": b.longitude,
                }.items() if v is not None}
                for b in case.buses],
            "generators": [
                {k: v for k, v in {
                    "id": g.id, "bus_id": g.bus_id, "s_base_mva": g.s_base_mva,
                    "p_mw": g.p_mw, "q_mvar": g.q_mvar, "p_max_mw": g.p_max_mw,
                    "fuel": g.fuel, "h_sec": g.h_sec, "xdp_pu": g.xdp_pu,
                    "status": g.status, "synchronous": g.synchronous,
                }.items() if v is not None}
                for g in case.generators],
            "loads": [
                {"id": l.id, "bus_id": l.bus_id, "p_mw": l.p_mw,
                 "q_mvar": l.q_mvar, "ufls_stage": l.ufls_stage, "ffr": l.ffr}
                for l in case.loads],
            "branches": [
                {"from_bus": br.from_bus, "to_bus": br.to_bus, "r_pu": br.r_pu,
                 "x_pu": br.x_pu, "b_pu": br.b_pu, "tap_ratio": br.tap_ratio,
                 "status": br.status}
                for br in case.branches],
        },
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def apply_sidecar(case: GridCase, path) -> GridCase:
    """Overlay dynamics data from a sidecar CSV onto a case.

    Generator rows may set h_sec, xdp_pu, and fuel; load rows may set
    ufls_stage and ffr. Blank cells leave the existing value. Every row must
    reference an existing record.
    """
    gens = {g.id: g for g in case.generators}
    loads = {l.id: l for l in case.loads}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "record" not in reader.fieldnames:
            raise CaseParseError(f"{path}: sidecar needs a header row with "
                                 f"columns {SIDECAR_COLUMNS}")
        for ln, row in enumerate(reader, start=2):
            kind = (row.get("record") or "").strip()
            rid = (row.get("id") or "").strip()
            if kind == "generator":
                if rid not in gens:
                    raise CaseParseError(
                        f"{path}:{ln}: sidecar references unknown generator {rid!r}")
                g = gens[rid]
                upd = {}
                for key in ("h_sec", "xdp_pu"):
                    if (row.get(key) or "").strip():
                        upd[key] = _number(row[key], f"{path}:{ln}", key)
                if (row.get("fuel") or "").strip():
                    if row["fuel"] not in FUELS:
                        raise CaseParseError(
                            f"{path}:{ln}: unknown fuel {row['fuel']!r}")
                    upd["fuel"] = row["fuel"]
                gens[rid] = replace(g, **upd)
            elif kind == "load":
                if rid not in loads:
                    raise CaseParseError(
                        f"{path}:{ln}: sidecar references unknown load {rid!r}")
                l = loads[rid]
                upd = {}
                if (row.get("ufls_stage") or "").strip():
                    if row["ufls_stage"] not in UFLS_STAGES:
                        raise CaseParseError(
                            f"{path}:{ln}: unknown ufls_stage {row['ufls_stage']!r}")
                    upd["ufls_stage"] = row["ufls_stage"]
                if (row.get("ffr") or "").strip():
                    upd["ffr"] = row["ffr"].strip().lower() in ("1", "true", "yes")
                loads[rid] = replace(l, **upd)
            else:
                raise CaseParseError(
                    f"{path}:{ln}: unknown record type {kind!r}")
    return replace(case,
                   generators=tuple(gens[g.id] for g in case.generators),
                   loads=tuple(loads[l.id] for l in case.loads))


def write_sidecar(case: GridCase, path) -> None:
    """Emit the full dynamics sidecar for a case (diffable synthesis output)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SIDECAR_COLUMNS)
        for g in case.generators:
            w.writerow(["generator", g.id,
                        "" if g.h_sec is None else repr(g.h_sec),
                        "" if g.xdp_pu is None else repr(g.xdp_pu),
                        g.fuel, "", ""])
        for l in case.loads:
            w.writerow(["load", l.id, "", "", "", l.ufls_stage,
                        "true" if l.ffr else "false"])


# ---------------------------------------------------------------------------
# IEEE Common Data Format (read-only subset)

_CDF_BUS_KIND = {0: "pq", 1: "pq", 2: "pv", 3: "slack"}


def _cdf_field(line: str, lo: int, hi: int, ln: int, name: str, cast=float):
    raw = line[lo:hi].strip()
    if not raw:
        return cast(0)
    try:
        return cast(raw)
    except ValueError as exc:
        raise CaseParseError(
            f"line {ln}: cannot parse {name} from column {lo + 1}-{hi} "
            f"({raw!r})") from exc


def import_cdf(path) -> GridCase:
    """Import a power-flow case from IEEE Common Data Format text.

    Reads the title card (system MVA base), the bus section, and the branch
    section. Dynamic parameters are never invented: imported generators
    carry ``h_sec``/``xdp_pu`` of None until a sidecar or synthesis fills
    them. The CDF has no machine MVA base or capability either, so
    ``s_base_mva`` defaults to the unit's apparent dispatch (at least 1 MVA)
    and ``p_max_mw`` to the dispatched output. A tap of 0 means none (1.0).
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise CaseParseError(f"{path}: empty file")
    s_base = _cdf_field(lines[0], 31, 37, 1, "MVA base") or 100.0

    buses: list[Bus] = []
    generators: list[Generator] = []
    loads: list[Load] = []
    branches: list[Branch] = []
    section = None
    seen_bus = seen_branch = False
    for ln, line in enumerate(lines[1:], start=2):
        upper = line.upper()
        if upper.startswith("BUS DATA FOLLOWS"):
            section = "bus"
            seen_bus = True
            continue
        if upper.startswith("BRANCH DATA FOLLOWS"):
            section = "branch"
            seen_branch = True
            continue
        if line.startswith("-9") or upper.startswith("END OF DATA"):
            section = None
            continue
        if section is None or not line.strip():
            continue
        if section == "bus":
            bus_id = _cdf_field(line, 0, 4, ln, "bus number", int)
            code = _cdf_field(line, 24, 26, ln, "bus type", int)
            if code not in _CDF_BUS_KIND:
                raise CaseParseError(f"line {ln}: unknown bus type code {code}")
            v_mag = _cdf_field(line, 27, 33, ln, "voltage") or 1.0
            v_ang = math.radians(_cdf_field(line, 33, 40, ln, "angle"))
            p_load = _cdf_field(line, 40, 49, ln, "load MW")
            q_load = _cdf_field(line, 49, 59, ln, "load MVAR")
            p_gen = _cdf_field(line, 59, 67, ln, "gen MW")
            q_gen = _cdf_field(line, 67, 75, ln, "gen MVAR")
            buses.append(Bus(
                id=bus_id, name=line[5:17].strip(),
                nominal_kv=_cdf_field(line, 76, 83, ln, "base kV") or 1.0,
                kind=_CDF_BUS_KIND[code], v_mag=v_mag, v_ang=v_ang))
            if p_gen < 0:  # rare negative dispatch: fold into the load
                p_load -= p_gen
                p_gen = 0.0
            if p_gen != 0 or q_gen != 0 or code in (2, 3):
                generators.append(Generator(
                    id=f"gen{bus_id}", bus_id=bus_id,
                    s_base_mva=max(abs(p_gen), abs(q_gen), 1.0),
                    p_mw=p_gen, q_mvar=q_gen, p_max_mw=p_gen, fuel="other"))
            if p_load != 0 or q_load != 0:
                loads.append(Load(id=f"load{bus_id}", bus_id=bus_id,
                                  p_mw=p_load, q_mvar=q_load))
        elif section == "branch":
            tap = _cdf_field(line, 76, 82, ln, "tap ratio")
            branches.append(Branch(
                from_bus=_cdf_field(line, 0, 4, ln, "from bus", int),
                to_bus=_cdf_field(line, 5, 9, ln, "to bus", int),
                r_pu=_cdf_field(line, 19, 29, ln, "resistance"),
                x_pu=_cdf_field(line, 29, 40, ln, "reactance"),
                b_pu=_cdf_field(line, 40, 50, ln, "charging"),
                tap_ratio=tap if tap else 1.0))
    if not seen_bus or not seen_branch:
        raise CaseParseError(
            f"{path}: malformed CDF (missing "
            f"{'bus' if not seen_bus else 'branch'} section header)")

    case = GridCase(s_base_mva=s_base, name=Path(path).stem,
                    buses=tuple(buses), generators=tuple(generators),
                    loads=tuple(loads), branches=tuple(branches))
    violations = validate_case(case)
    if violations:
        raise CaseValidationError(violations)
    return case


# ---------------------------------------------------------------------------
# result writers

def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return repr(float(x))


def write_results(result, path, format: str = "csv",
                  case: GridCase | None = None) -> None:
    """Write an analysis result to disk.

    RocofResult: one row per bus (csv) or one point feature per bus
    (geojson; needs bus coordinates from the case). SimResult: one row per
    time step with bus frequencies and machine speeds. A list of
    ScenarioRecord rows becomes the documented scenario table.
    """
    if format not in ("csv", "geojson"):
        raise ValueError(f"unknown format {format!r}")
    if isinstance(result, RocofResult):
        if format == "geojson":
            _rocof_geojson(result, path, case)
        else:
            _rocof_csv(result, path)
    elif isinstance(result, SimResult):
        if format == "geojson":
            raise ValueError("time-series results have no geojson form")
        _sim_csv(result, path)
    elif isinstance(result, list) and all(isinstance(r, ScenarioRecord) for r in result):
        if format == "geojson":
            raise ValueError("scenario tables have no geojson form")
        write_scenario_table(result, path)
    else:
        raise TypeError(f"cannot write result of type {type(result).__name__}")


def _rocof_csv(res: RocofResult, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bus_id", "rocof_hz_per_s"])
        for bid, val in zip(res.bus_ids, res.bus_rocof_hz_s):
            w.writerow([bid, _fmt(val)])


def _rocof_geojson(res: RocofResult, path, case: GridCase | None) -> None:
    if case is None:
        raise ValueError("geojson output needs the case for bus coordinates")
    coords = {b.id: (b.longitude, b.latitude) for b in case.buses}
    features = []
    for bid, val in zip(res.bus_ids, res.bus_rocof_hz_s):
        lon, lat = coords.get(bid, (None, None))
        if lon is None or lat is None:
            raise ValueError(f"missing coordinates for bus {bid}")
        features.append({
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [lon, lat]},
            "properties": {
                "bus": bid,
                "rocof_hz_per_s": None if math.isnan(val) else val,
            },
        })
    doc = {"type": "FeatureCollection", "features": features}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def _sim_csv(sim: SimResult, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time_s"]
                   + [f"freq_hz_bus{b}" for b in sim.bus_ids]
                   + [f"omega_pu_{g}" for g in sim.machine_ids])
        for k, t in enumerate(sim.time_s):
            w.writerow([_fmt(t)] + [_fmt(v) for v in sim.bus_freq_hz[k]]
                       + [_fmt(v) for v in sim.omega[k]])


def write_events(events: list[TripEvent], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time_s", "kind", "stage", "load_id", "bus_id", "frequency_hz"])
        for e in events:
            w.writerow([_fmt(e.time_s), e.kind, e.stage or "", e.load_id,
                        e.bus_id, _fmt(e.frequency_hz)])


def write_scenario_table(records: list[ScenarioRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SCENARIO_COLUMNS)
        for r in records:
            w.writerow(r.row())


def _csv_rows(path, columns) -> list[tuple[str, dict]]:
    """("<path>:<line>", row) for each row of a CSV table whose header names
    every column and whose rows have a field for each of them."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise CaseParseError(f"{path}:1: missing column {missing[0]!r}")
        out = []
        for row in reader:
            where = f"{path}:{reader.line_num}"
            short = [c for c in columns if row[c] is None]
            if short:
                raise CaseParseError(f"{where}: missing field {short[0]!r}")
            out.append((where, row))
    return out


def _number(raw, where: str, key: str, cast=float):
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise CaseParseError(
            f"{where}: field {key!r} is not a number: {raw!r}") from exc


def read_scenario_table(path) -> list[ScenarioRecord]:
    """Read a scenario table; raises CaseParseError naming the file, line
    and field of a missing column or field or of a malformed number."""
    out = []
    for where, row in _csv_rows(path, SCENARIO_COLUMNS):
        def num(key, cast=float, blank=math.nan):
            return _number(row[key], where, key, cast) if row[key] else blank
        out.append(ScenarioRecord(
            loading_id=row["loading_id"],
            contingency_id=row["contingency_id"],
            mw_lost=num("mw_lost"),
            inertia_gws=num("inertia_gws"),
            system_rocof_hz_s=num("system_rocof"),
            bus_rocof_min=num("bus_rocof_min"),
            bus_rocof_mean=num("bus_rocof_mean"),
            bus_rocof_max=num("bus_rocof_max"),
            worst_bus=num("worst_bus", int, None),
            concern_flag=row["concern_flag"] == "1",
            status=row["status"]))
    return out


# ---------------------------------------------------------------------------
# contingency / loading banks

def write_contingencies(contingencies: list[Contingency], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CONTINGENCY_COLUMNS)
        for c in contingencies:
            w.writerow([c.id, ";".join(sorted(c.outaged_generator_ids)),
                        _fmt(c.total_mw_lost)])


def read_contingencies(path) -> list[Contingency]:
    """Read a contingency bank; raises CaseParseError naming the file, line
    and field of a missing column or field or of a malformed number."""
    return [Contingency(
        row["id"],
        frozenset(x for x in row["outaged_generator_ids"].split(";") if x),
        _number(row["mw_lost"], where, "mw_lost") if row["mw_lost"] else None)
        for where, row in _csv_rows(path, CONTINGENCY_COLUMNS)]


def write_loading_cases(cases: list[LoadingCase], path) -> None:
    doc = [{
        "id": lc.id,
        "target_load_mw": lc.target_load_mw,
        "target_wind_mw": lc.target_wind_mw,
        "dispatch": dict(sorted(lc.dispatch.items())),
        "committed": sorted(lc.committed),
        "online_inertia_gws": lc.online_inertia_gws,
        "wind_fraction": lc.wind_fraction,
    } for lc in cases]
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def read_loading_cases(path) -> list[LoadingCase]:
    """Read a loading-case bank; raises CaseParseError naming the file,
    entry and field of a missing key or malformed value, or the place of
    invalid JSON."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CaseParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise CaseParseError(f"{path}: expected a list of loading cases")
    out = []
    for i, d in enumerate(doc):
        where = f"{path}: entry {i}"
        if not isinstance(d, dict):
            raise CaseParseError(f"{where}: expected an object")

        def num(key):
            return _number(_req(d, key, where), where, key)
        dispatch, committed = _req(d, "dispatch", where), _req(d, "committed", where)
        if not isinstance(dispatch, dict):
            raise CaseParseError(
                f"{where}: field 'dispatch' must map generator ids to MW")
        if not (isinstance(committed, list)
                and all(isinstance(g, str) for g in committed)):
            raise CaseParseError(
                f"{where}: field 'committed' must list generator ids")
        out.append(LoadingCase(
            id=_req(d, "id", where),
            target_load_mw=num("target_load_mw"),
            target_wind_mw=num("target_wind_mw"),
            dispatch={k: _number(v, where, f"dispatch[{k}]")
                      for k, v in dispatch.items()},
            committed=frozenset(committed),
            online_inertia_gws=num("online_inertia_gws"),
            wind_fraction=num("wind_fraction"),
        ))
    return out


def write_powerflow_csv(sol: PowerFlowSolution, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bus_id", "v_mag_pu", "v_ang_deg"])
        for bid, vm, va in zip(sol.bus_ids, sol.v_mag, sol.v_ang):
            w.writerow([bid, _fmt(vm), _fmt(math.degrees(va))])
