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
import io
import json
import math
from dataclasses import MISSING, fields, replace
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Iterable

import numpy as np

from .case_model import (Branch, Bus, CaseValidationError, FUELS, Generator,
                         GridCase, InputError, Load, LoadingCase,
                         ScenarioRecord, UFLS_STAGES, validate_case)
from .powerflow import PowerFlowSolution
from .rocof import Contingency, RocofResult
from .swingsim import SimResult, TripEvent

SCHEMA_VERSION = "1.0"
SIDECAR_COLUMNS = ["record", "id", "h_sec", "xdp_pu", "fuel", "ufls_stage", "ffr"]
CONTINGENCY_COLUMNS = ["id", "outaged_generator_ids", "mw_lost"]
SCENARIO_COLUMNS = [
    "loading_id", "contingency_id", "mw_lost", "inertia_gws",
    "system_rocof", "bus_rocof_min", "bus_rocof_mean", "bus_rocof_max",
    "worst_bus", "concern_flag", "status",
]


class CaseParseError(ValueError):
    """A document could not be parsed; the message carries the location."""


# The case_model records are the case document's schema. A record's keys on
# disk are its field names, a field without a default is required, and every
# value converts by the field's annotation through _parse.
_RECORD_LISTS = {f"tuple[{cls.__name__}, ...]": cls
                 for cls in (Bus, Generator, Load, Branch)}


def _same(value):
    return value


# fields stored under another key and unit: name -> (key, read, write)
_ON_DISK = {"v_ang": ("v_ang_deg", math.radians, math.degrees)}
# the field annotations _parse knows, each with what it expects
_EXPECTED = {"int": "a number", "float": "a number", "float | None": "a number",
             "str": "a string", "bool": "a boolean",
             "dict[str, float]": "an object of numbers",
             "frozenset[str]": "a list of strings"}
_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}
# the sidecar columns of each record type, and the values a column may take
_SIDECAR_FIELDS = {"generator": ("h_sec", "xdp_pu", "fuel"),
                   "load": ("ufls_stage", "ffr")}
_CHOICES = {"fuel": FUELS, "ufls_stage": UFLS_STAGES}


def _parse(raw, kind: str, where: str, key: str):
    """``raw`` as the value of a field annotated ``kind`` (a key of
    _EXPECTED). An int must be integral and a bool is never a number; a
    bool field takes a JSON boolean or one of _BOOL_WORDS in any case. The
    value at k of a dict[str, float] is the float field ``<key>[k]``.
    CaseParseError names where and key of a value that does not convert."""
    if raw is None and kind == "float | None":
        return None
    if kind == "int" and isinstance(raw, float) and not raw.is_integer():
        raise CaseParseError(f"{where}: field {key!r} is not an integer: {raw!r}")
    if kind == "dict[str, float]" and isinstance(raw, dict):
        return {k: _parse(v, "float", where, f"{key}[{k}]") for k, v in raw.items()}
    if (kind == "frozenset[str]" and isinstance(raw, list)
            and all(isinstance(x, str) for x in raw)):
        return frozenset(raw)
    try:
        if kind == "bool":
            if isinstance(raw, bool):
                return raw
            if isinstance(raw, str) and raw.strip().lower() in _BOOL_WORDS:
                return _BOOL_WORDS[raw.strip().lower()]
        elif isinstance(raw, bool):
            pass
        elif kind == "str":
            if isinstance(raw, (str, int, float)):
                return str(raw)
        elif kind == "int":
            return int(raw)
        elif kind in ("float", "float | None"):
            return float(raw)
    except (TypeError, ValueError, OverflowError):
        pass
    raise CaseParseError(f"{where}: field {key!r} is not {_EXPECTED[kind]}: {raw!r}")


def _finite(value, where: str, key: str):
    """``value`` when it is None or a finite number; otherwise
    CaseParseError names where and key. Bank files check their numbers
    here; a case document's go through validate_case's ``finite`` rule."""
    if value is not None and not math.isfinite(value):
        raise CaseParseError(f"{where}: field {key!r} is not finite: {value!r}")
    return value


def _text(path) -> str:
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CaseParseError(f"{path}: not UTF-8 text: {exc}") from exc


def _json(path):
    try:
        return json.loads(_text(path))
    # JSONDecodeError, an int too long to read, or nesting too deep to read
    except (ValueError, RecursionError) as exc:
        raise CaseParseError(f"{path}: invalid JSON: {exc}") from exc


def _object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise CaseParseError(f"{where}: not an object: {obj!r}")
    return obj


def _req(obj, key: str, where: str):
    if key not in _object(obj, where):
        raise CaseParseError(f"missing required field {key!r} in {where}")
    return obj[key]


def _fields(cls, obj, where: str, path) -> dict:
    """The fields of record type ``cls`` read from the JSON object ``obj``
    at ``where``. An absent field is left out, so it takes its default; a
    list of records is read entry by entry, entry i of key k at
    ``<path>: k[i]``."""
    _object(obj, where)
    out = {}
    for f in fields(cls):
        key, read, _ = _ON_DISK.get(f.name, (f.name, _same, _same))
        if key not in obj and f.default is not MISSING:
            continue
        raw = _req(obj, key, where)
        if f.type not in _RECORD_LISTS:
            out[f.name] = read(_parse(raw, f.type, where, key))
        elif isinstance(raw, list):
            rec = _RECORD_LISTS[f.type]
            out[f.name] = tuple(rec(**_fields(rec, r, f"{path}: {key}[{i}]", path))
                                for i, r in enumerate(raw))
        else:
            raise CaseParseError(f"{where}: field {key!r} is not a list: {raw!r}")
    return out


def _doc(record) -> dict:
    """A record's JSON object: fields in order, None left out, dicts and sets sorted."""
    out = {}
    for f in fields(record):
        key, _, write = _ON_DISK.get(f.name, (f.name, _same, _same))
        value = getattr(record, f.name)
        if f.type in _RECORD_LISTS:
            out[key] = [_doc(r) for r in value]
        elif f.type == "dict[str, float]":
            out[key] = dict(sorted(value.items()))
        elif f.type == "frozenset[str]":
            out[key] = sorted(value)
        elif value is not None:
            out[key] = write(value)
    return out


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
    doc = _json(path)
    version = _req(doc, "schema_version", str(path))
    if str(version).split(".")[0] != SCHEMA_VERSION.split(".")[0]:
        raise CaseParseError(
            f"{path}: unsupported schema_version {version!r} "
            f"(this reader handles {SCHEMA_VERSION})")
    c = _req(doc, "case", str(path))
    at = f"{path}: case"
    for key in ("s_base_mva", "buses"):  # required on disk, not in GridCase
        _req(c, key, at)
    case = GridCase(**{"name": path.stem, **_fields(GridCase, c, at, path)})

    if sidecar is None and sidecar_path_for(path).exists():
        sidecar = sidecar_path_for(path)
    if sidecar is not None:
        case = apply_sidecar(case, sidecar)

    violations = validate_case(case)
    if violations:
        raise CaseValidationError(violations)
    return case


def write_case(case: GridCase, path) -> None:
    doc = {"schema_version": SCHEMA_VERSION,
           "case": {"name": case.name, **_doc(case)}}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def apply_sidecar(case: GridCase, path) -> GridCase:
    """Overlay dynamics data from a sidecar CSV onto a case.

    Generator rows may set h_sec, xdp_pu, and fuel; load rows may set
    ufls_stage and ffr. Blank cells leave the existing value. Every row must
    reference an existing record.
    """
    records = {"generator": {g.id: g for g in case.generators},
               "load": {l.id: l for l in case.loads}}
    for where, row in _csv_rows(path, ("record", "id")):
        kind, rid = row["record"].strip(), row["id"].strip()
        if kind not in records:
            raise CaseParseError(f"{where}: unknown record type {kind!r}")
        if rid not in records[kind]:
            raise CaseParseError(
                f"{where}: sidecar references unknown {kind} {rid!r}")
        rec = records[kind][rid]
        types = {f.name: f.type for f in fields(rec)}
        upd = {}
        for key in _SIDECAR_FIELDS[kind]:
            cell = (row.get(key) or "").strip()
            if cell:
                upd[key] = _parse(cell, types[key], where, key)
                if key in _CHOICES and upd[key] not in _CHOICES[key]:
                    raise CaseParseError(f"{where}: unknown {key} {cell!r}")
        records[kind][rid] = replace(rec, **upd)
    return replace(case,
                   generators=tuple(records["generator"][g.id] for g in case.generators),
                   loads=tuple(records["load"][l.id] for l in case.loads))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def write_sidecar(case: GridCase, path) -> None:
    """Emit the full dynamics sidecar for a case (diffable synthesis output)."""
    write_table(path, SIDECAR_COLUMNS, (
        [kind, rec.id] + [_cell(getattr(rec, col)) if col in _SIDECAR_FIELDS[kind]
                          else "" for col in SIDECAR_COLUMNS[2:]]
        for kind, recs in (("generator", case.generators), ("load", case.loads))
        for rec in recs))


# ---------------------------------------------------------------------------
# IEEE Common Data Format (read-only subset)

_CDF_BUS_KIND = {0: "pq", 1: "pq", 2: "pv", 3: "slack"}


def _cdf_field(line: str, lo: int, hi: int, where: str, name: str,
               kind: str = "float"):
    """Columns lo+1..hi of a card as a ``kind`` field; blank reads 0."""
    return _parse(line[lo:hi].strip() or "0", kind,
                  f"{where}: columns {lo + 1}-{hi}", name)


def import_cdf(path) -> GridCase:
    """Import a power-flow case from IEEE Common Data Format text.

    Reads the title card (system MVA base), the bus section, and the branch
    section. Dynamic parameters are never invented: imported generators
    carry ``h_sec``/``xdp_pu`` of None until a sidecar or synthesis fills
    them. The CDF has no machine MVA base or capability either, so
    ``s_base_mva`` defaults to the unit's apparent dispatch (at least 1 MVA)
    and ``p_max_mw`` to the dispatched output. A tap of 0 means none (1.0).
    """
    lines = _text(path).splitlines()
    if not lines:
        raise CaseParseError(f"{path}: empty file")
    s_base = _cdf_field(lines[0], 31, 37, f"{path}:1", "MVA base") or 100.0

    buses: list[Bus] = []
    generators: list[Generator] = []
    loads: list[Load] = []
    branches: list[Branch] = []
    section = None
    seen_bus = seen_branch = False
    for ln, line in enumerate(lines[1:], start=2):
        where = f"{path}:{ln}"
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
            bus_id = _cdf_field(line, 0, 4, where, "bus number", "int")
            code = _cdf_field(line, 24, 26, where, "bus type", "int")
            if code not in _CDF_BUS_KIND:
                raise CaseParseError(f"{where}: unknown bus type code {code}")
            v_mag = _cdf_field(line, 27, 33, where, "voltage") or 1.0
            v_ang = math.radians(_cdf_field(line, 33, 40, where, "angle"))
            p_load = _cdf_field(line, 40, 49, where, "load MW")
            q_load = _cdf_field(line, 49, 59, where, "load MVAR")
            p_gen = _cdf_field(line, 59, 67, where, "gen MW")
            q_gen = _cdf_field(line, 67, 75, where, "gen MVAR")
            buses.append(Bus(
                id=bus_id, name=line[5:17].strip(),
                nominal_kv=_cdf_field(line, 76, 83, where, "base kV") or 1.0,
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
            tap = _cdf_field(line, 76, 82, where, "tap ratio")
            branches.append(Branch(
                from_bus=_cdf_field(line, 0, 4, where, "from bus", "int"),
                to_bus=_cdf_field(line, 5, 9, where, "to bus", "int"),
                r_pu=_cdf_field(line, 19, 29, where, "resistance"),
                x_pu=_cdf_field(line, 29, 40, where, "reactance"),
                b_pu=_cdf_field(line, 40, 50, where, "charging"),
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


def write_table(path, header, rows) -> None:
    """Write a CSV file: the header row, then each of rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_rocof_csv(res: RocofResult, path) -> None:
    """One row per bus: its id and ROCOF, blank where undefined."""
    write_table(path, ["bus_id", "rocof_hz_per_s"],
                ([bid, _fmt(val)] for bid, val
                 in zip(res.bus_ids, res.bus_rocof_hz_s)))


def write_rocof_geojson(res: RocofResult, path, case: GridCase) -> None:
    """One point feature per bus at the case's bus coordinates; raises
    InputError naming a bus without them."""
    coords = {b.id: (b.longitude, b.latitude) for b in case.buses}
    features = []
    for bid, val in zip(res.bus_ids, res.bus_rocof_hz_s):
        lon, lat = coords.get(bid, (None, None))
        if lon is None or lat is None:
            raise InputError(f"missing coordinates for bus {bid}")
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


def write_sim_csv(sim: SimResult, path) -> None:
    """One row per time step: bus frequencies, then machine speeds."""
    write_table(path,
                ["time_s"] + [f"freq_hz_bus{b}" for b in sim.bus_ids]
                + [f"omega_pu_{g}" for g in sim.machine_ids],
                ([_fmt(t)] + [_fmt(v) for v in sim.bus_freq_hz[k]]
                 + [_fmt(v) for v in sim.omega[k]]
                 for k, t in enumerate(sim.time_s)))


def write_events(events: list[TripEvent], path) -> None:
    write_table(path, ["time_s", "kind", "stage", "load_id", "bus_id", "frequency_hz"],
                ([_fmt(e.time_s), e.kind, e.stage or "", e.load_id, e.bus_id,
                  _fmt(e.frequency_hz)] for e in events))


def write_scenario_table(records: Iterable[ScenarioRecord], path) -> None:
    """Write the scenario table, each row as ``records`` yields it; a NaN
    number or a missing worst bus is a blank cell, and the lines are those
    write_table writes. The rows go out a loading case at a time: each run
    of records with one loading id, once the run ends, turned into the
    columns that a bank hands the same writer (_write_scenario_runs)."""
    names = [f.name for f in fields(ScenarioRecord)]
    runs = (list(run) for _, run in groupby(records, attrgetter("loading_id")))
    _write_scenario_runs(([list(map(attrgetter(name), run)) for name in names]
                          for run in runs), path)


def _write_scenario_runs(runs: Iterable[tuple], path) -> None:
    """write_scenario_table with the rows given in runs, as a bank gives
    them a loading case at a time: each run is the rows' columns, in
    SCENARIO_COLUMNS order, and is formatted (_scenario_lines) and reaches
    the file in one write as soon as ``runs`` yields it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_lines([SCENARIO_COLUMNS]))
        for columns in runs:
            fh.write(_scenario_lines(*columns))


def _scenario_lines(loading_id, contingency_id, mw_lost, inertia_gws,
                    system_rocof, bus_rocof_min, bus_rocof_mean, bus_rocof_max,
                    worst_bus, concern_flag, status) -> str:
    """The scenario table's lines for rows given as columns, as csv.writer
    writes them, their cells formatted a column at a time (_number_cells
    for the numbers)."""
    return _csv_lines(zip(
        loading_id, contingency_id,
        *map(_number_cells, (mw_lost, inertia_gws, system_rocof, bus_rocof_min,
                             bus_rocof_mean, bus_rocof_max)),
        ["" if w is None else str(w) for w in worst_bus],
        ["1" if c else "0" for c in concern_flag], status))


def _number_cells(values) -> list[str]:
    """The cells of a column of numbers: the repr of each value as a float,
    as _fmt writes it, and blank for NaN or None. A column of one value (a
    loading case's inertia) is formatted once."""
    a = np.array(values, dtype=float)
    bits = a.view(np.int64)
    once = a.size > 1 and bool((bits == bits[0]).all())
    cells = ["" if x != x else repr(x) for x in (a[:1] if once else a).tolist()]
    return cells * len(a) if once else cells


def _csv_lines(rows) -> str:
    """The rows as csv.writer writes them, in one string."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _csv_rows(path, columns) -> list[tuple[str, dict]]:
    """("<path>:<line>", row) for each row of a CSV table whose header names
    every column and whose rows have a field for each of them."""
    reader = csv.DictReader(io.StringIO(_text(path), newline=""))
    out = []
    try:
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise CaseParseError(f"{path}:1: missing column {missing[0]!r}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            short = [c for c in columns if row[c] is None]
            if short:
                raise CaseParseError(f"{where}: missing field {short[0]!r}")
            out.append((where, row))
    except csv.Error as exc:
        raise CaseParseError(f"{path}:{reader.line_num}: {exc}") from exc
    return out


def _new_id(seen: set, record, where: str, fields: tuple[str, ...] = ("id",)):
    """``record`` once its id, the value of its one field in ``fields`` or
    the tuple of the values of several, is not in ``seen``, the ids read
    before it (which it joins); otherwise CaseParseError names where, the
    fields and the id."""
    values = tuple(getattr(record, f) for f in fields)
    key = values[0] if len(values) == 1 else values
    if key in seen:
        raise CaseParseError(f"{where}: field {', '.join(map(repr, fields))} "
                             f"repeats an earlier entry: {key!r}")
    seen.add(key)
    return record


def read_scenario_table(path) -> list[ScenarioRecord]:
    """Read a scenario table; raises CaseParseError naming the file, line
    and field of a missing column or field, of a malformed value or of a
    (loading_id, contingency_id) key that an earlier row has."""
    out = []
    seen: set[tuple[str, str]] = set()
    for where, row in _csv_rows(path, SCENARIO_COLUMNS):
        def num(key, kind="float", blank=math.nan):
            return _parse(row[key], kind, where, key) if row[key] else blank
        out.append(_new_id(seen, ScenarioRecord(
            loading_id=row["loading_id"],
            contingency_id=row["contingency_id"],
            mw_lost=num("mw_lost"),
            inertia_gws=num("inertia_gws"),
            system_rocof_hz_s=num("system_rocof"),
            bus_rocof_min=num("bus_rocof_min"),
            bus_rocof_mean=num("bus_rocof_mean"),
            bus_rocof_max=num("bus_rocof_max"),
            worst_bus=num("worst_bus", "int", None),
            concern_flag=_parse(row["concern_flag"], "bool", where, "concern_flag"),
            status=row["status"]), where, ("loading_id", "contingency_id")))
    return out


# ---------------------------------------------------------------------------
# contingency / loading banks

def write_contingencies(contingencies: list[Contingency], path) -> None:
    write_table(path, CONTINGENCY_COLUMNS,
                ([c.id, ";".join(sorted(c.outaged_generator_ids)),
                  _fmt(c.total_mw_lost)] for c in contingencies))


def read_contingencies(path) -> list[Contingency]:
    """Read a contingency bank; raises CaseParseError naming the file, line
    and field of a missing column or field, of a malformed, NaN or infinite
    number or of an id that an earlier row has."""
    seen: set[str] = set()
    return [_new_id(seen, Contingency(
        row["id"],
        frozenset(x for x in row["outaged_generator_ids"].split(";") if x),
        _finite(_parse(row["mw_lost"] or None, "float | None", where, "mw_lost"),
                where, "mw_lost")), where)
        for where, row in _csv_rows(path, CONTINGENCY_COLUMNS)]


def write_loading_cases(cases: list[LoadingCase], path) -> None:
    Path(path).write_text(json.dumps([_doc(lc) for lc in cases], indent=1) + "\n")


def read_loading_cases(path) -> list[LoadingCase]:
    """Read a loading-case bank, a list of LoadingCase documents; raises
    CaseParseError naming the file, entry and field of a missing key, a
    malformed value, a NaN or infinite number, a ``committed`` that is not
    ``dispatch``'s units or an id that an earlier entry has (ids compare as
    read, so 5 and "5" are one id), or the place of invalid JSON or text
    that is not UTF-8."""
    doc = _json(path)
    if not isinstance(doc, list):
        raise CaseParseError(f"{path}: expected a list of loading cases")
    out = []
    seen: set[str] = set()
    for i, entry in enumerate(doc):
        where = f"{path}: entry {i}"
        lc = LoadingCase(**_fields(LoadingCase, entry, where, path))
        for key in ("target_load_mw", "target_wind_mw", "online_inertia_gws",
                    "wind_fraction"):
            _finite(getattr(lc, key), where, key)
        for gid, mw in lc.dispatch.items():
            _finite(mw, where, f"dispatch[{gid}]")
        if lc.committed != lc.dispatch.keys():
            raise CaseParseError(f"{where}: field 'committed' does not list "
                                 "exactly the units in 'dispatch'")
        out.append(_new_id(seen, lc, where))
    return out


def write_powerflow_csv(sol: PowerFlowSolution, path) -> None:
    write_table(path, ["bus_id", "v_mag_pu", "v_ang_deg"],
                ([bid, _fmt(vm), _fmt(math.degrees(va))]
                 for bid, vm, va in zip(sol.bus_ids, sol.v_mag, sol.v_ang)))
