import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from rocofscreen import (CaseValidationError, read_case, solve_powerflow,
                         write_case)
from rocofscreen import case_io
from rocofscreen.case_io import (CaseParseError, apply_sidecar, import_cdf,
                                 read_contingencies, read_loading_cases,
                                 read_scenario_table, write_contingencies,
                                 write_events, write_loading_cases,
                                 write_rocof_csv, write_rocof_geojson,
                                 write_scenario_table, write_sidecar,
                                 write_sim_csv)
from rocofscreen.case_model import (Branch, Bus, Generator, Load, LoadingCase,
                                    ScenarioRecord)
from rocofscreen.rocof import Contingency, RocofResult
from rocofscreen.scenarios import generate_loading_cases
from rocofscreen.swingsim import SimResult, TripEvent


def _assert_cases_close(a, b, rtol=1e-12):
    assert [x.id for x in a.buses] == [x.id for x in b.buses]
    for ba, bb in zip(a.buses, b.buses):
        assert ba.v_mag == pytest.approx(bb.v_mag, rel=rtol)
        assert ba.v_ang == pytest.approx(bb.v_ang, rel=rtol, abs=1e-15)
        assert ba.kind == bb.kind
    for ga, gb in zip(a.generators, b.generators):
        assert ga == gb or (
            ga.id == gb.id
            and ga.p_mw == pytest.approx(gb.p_mw, rel=rtol)
            and ga.h_sec == pytest.approx(gb.h_sec, rel=rtol))
    assert a.loads == b.loads
    assert a.branches == b.branches


def test_round_trip_is_identity(case9, tmp_path):
    path = tmp_path / "case.json"
    write_case(case9, path)
    again = read_case(path)
    _assert_cases_close(case9, again)


def test_round_trip_fleet(fleet_case, tmp_path):
    path = tmp_path / "fleet.json"
    write_case(fleet_case, path)
    _assert_cases_close(fleet_case, read_case(path))


def test_bundled_case_shape(case9):
    assert len(case9.buses) == 9
    assert len(case9.generators) == 3
    assert len(case9.loads) == 3


def test_missing_required_field(tmp_path):
    doc = {"schema_version": "1.0", "case": {"buses": []}}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(CaseParseError, match="s_base_mva"):
        read_case(p)


def test_invalid_json_reports_location(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"schema_version": "1.0",')
    with pytest.raises(CaseParseError, match="line"):
        read_case(p)


def test_case_records_use_only_parsed_annotations():
    for cls in (Bus, Generator, Load, Branch):
        for f in dataclasses.fields(cls):
            assert f.type in case_io._EXPECTED, (cls.__name__, f.name, f.type)


def test_absent_fields_take_the_record_defaults(tmp_path):
    doc = {"schema_version": "1.0", "case": {
        "s_base_mva": 100.0,
        "buses": [{"id": 1, "kind": "slack"}, {"id": 2}],
        "generators": [{"id": "g", "bus_id": 1, "s_base_mva": 50}],
        "loads": [{"id": "l", "bus_id": 2}],
        "branches": [{"from_bus": 1, "to_bus": 2, "r_pu": 0, "x_pu": 0.1}]}}
    p = tmp_path / "minimal.json"
    p.write_text(json.dumps(doc))
    case = read_case(p)
    assert case.name == "minimal" and case.f_base_hz == 60.0
    assert case.buses == (Bus(1, kind="slack"), Bus(2))
    assert case.generators == (Generator("g", 1, 50.0),)
    assert case.loads == (Load("l", 2),)
    assert case.branches == (Branch(1, 2, 0.0, 0.1),)


@pytest.mark.parametrize("word, status", [
    ("false", False), ("False", False), ("no", False), ("0", False),
    (False, False), ("TRUE", True), ("yes", True), ("1", True), (True, True)])
def test_bool_fields_read_the_sidecar_words(case9, tmp_path, word, status):
    p = tmp_path / "case.json"
    write_case(case9, p)
    doc = json.loads(p.read_text())
    doc["case"]["generators"][2]["status"] = word
    p.write_text(json.dumps(doc))
    assert read_case(p).generator("gen3").status is status


def _reader_texts(case9):
    """A valid input of each reader, keyed by the reader."""
    return {
        read_case: (Path(case_io.__file__).parent / "data/wscc9.json").read_text(),
        read_loading_cases: "[]",
        read_contingencies: "id,outaged_generator_ids,mw_lost\nc1,gen3,85\n",
        read_scenario_table: ",".join(case_io.SCENARIO_COLUMNS) + "\n"
        + "lc0,c1,85.0,1.0,-1.0,,,,5,0,ok\n",
        import_cdf: CDF_SAMPLE,
        (lambda path: apply_sidecar(case9, path)):
        "record,id,h_sec,xdp_pu,fuel,ufls_stage,ffr\ngenerator,gen1,3.0,,,,\n",
    }


def test_text_that_is_not_utf8_names_the_file(case9, tmp_path):
    for k, (reader, text) in enumerate(_reader_texts(case9).items()):
        p = tmp_path / f"file{k}"
        p.write_text(text)
        reader(p)  # the valid text reads
        p.write_bytes(text.encode()[:-2] + b"\xff\n")
        with pytest.raises(CaseParseError, match=re.escape(f"{p}: not UTF-8 text")):
            reader(p)


def test_json_too_deep_or_long_to_read_names_the_file(tmp_path):
    for k, text in enumerate(["[" * 100000 + "]" * 100000, "[" + "9" * 5000 + "]"]):
        p = tmp_path / f"bank{k}.json"
        p.write_text(text)
        with pytest.raises(CaseParseError, match=re.escape(f"{p}: invalid JSON")):
            read_loading_cases(p)


def test_validation_aborts_read(case9, tmp_path):
    bad = case9.with_generators(
        [dataclasses.replace(g, h_sec=-1.0) if g.id == "gen1" else g
         for g in case9.generators])
    p = tmp_path / "invalid.json"
    write_case(bad, p)
    with pytest.raises(CaseValidationError):
        read_case(p)


def test_sidecar_overrides_h(case9, tmp_path):
    p = tmp_path / "case.json"
    write_case(case9, p)
    side = tmp_path / "case.dyn.csv"
    side.write_text(
        "record,id,h_sec,xdp_pu,fuel,ufls_stage,ffr\n"
        "generator,gen1,5.0,,,,\n"
        "load,load5,,,,stage1,true\n")
    case = read_case(p)  # companion picked up automatically
    assert case.generator("gen1").h_sec == 5.0
    assert case.generator("gen1").xdp_pu == 0.304  # untouched
    assert case.load("load5").ufls_stage == "stage1"
    assert case.load("load5").ffr is True


def test_sidecar_unknown_id(case9, tmp_path):
    side = tmp_path / "s.csv"
    side.write_text("record,id,h_sec,xdp_pu,fuel,ufls_stage,ffr\n"
                    "generator,nope,3.0,,,,\n")
    with pytest.raises(CaseParseError, match="nope"):
        apply_sidecar(case9, side)


def test_sidecar_round_trip(case9, tmp_path):
    p = tmp_path / "dyn.csv"
    write_sidecar(case9, p)
    stripped = case9.with_generators(
        [dataclasses.replace(g, h_sec=None, xdp_pu=None)
         for g in case9.generators])
    restored = apply_sidecar(stripped, p)
    for g0, g1 in zip(case9.generators, restored.generators):
        assert g1.h_sec == pytest.approx(g0.h_sec)
        assert g1.xdp_pu == pytest.approx(g0.xdp_pu)


def _cdf_bus_card(num, name, typ, v, ang, pl, ql, pg, qg, kv):
    # exact CDF bus-card columns: number 1-4, name 6-17, type 25-26,
    # voltage 28-33, angle 34-40, load 41-59, generation 60-75, base kV 77-83
    return (f"{num:4d} {name:<12} {1:2d}{1:3d} {typ:2d} {v:6.4f}{ang:7.2f}"
            f"{pl:9.2f}{ql:10.2f}{pg:8.2f}{qg:8.2f} {kv:7.2f}")


def _cdf_branch_card(fb, tb, r, x, b, tap=0.0):
    # tap bus 1-4, z bus 6-9, R 20-29, X 30-40, B 41-50, tap ratio 77-82
    return (f"{fb:4d} {tb:4d}" + " " * 10
            + f"{r:10.6f}{x:11.6f}{b:10.6f}" + " " * 26 + f"{tap:6.4f}")


CDF_SAMPLE = "\n".join([
    " 08/19/93 XYZ CO.             100.0 1993 S SAMPLE CASE"[:31] + f"{100.0:6.1f}",
    "BUS DATA FOLLOWS                            3 ITEMS",
    _cdf_bus_card(1, "SOURCE HV", 3, 1.060, 0.0, 0.0, 0.0, 232.4, -16.9, 132.0),
    _cdf_bus_card(2, "MIDPOINT", 0, 1.045, -4.98, 21.7, 12.7, 0.0, 0.0, 132.0),
    _cdf_bus_card(3, "LOADEND", 0, 1.010, -12.72, 94.2, 19.0, 0.0, 0.0, 132.0),
    "-999",
    "BRANCH DATA FOLLOWS                         2 ITEMS",
    _cdf_branch_card(1, 2, 0.01938, 0.05917, 0.0528),
    _cdf_branch_card(2, 3, 0.04699, 0.19797, 0.0438),
    "-999",
    "END OF DATA",
]) + "\n"


def test_cdf_import(tmp_path):
    p = tmp_path / "sample.cdf"
    p.write_text(CDF_SAMPLE)
    case = import_cdf(p)
    assert case.s_base_mva == 100.0
    assert len(case.buses) == 3
    assert case.bus(1).kind == "slack"          # type code 3
    assert case.bus(2).kind == "pq"
    assert case.bus(1).v_mag == pytest.approx(1.06)
    assert case.bus(3).v_ang == pytest.approx(math.radians(-12.72))
    gen = case.generator("gen1")
    assert gen.p_mw == pytest.approx(232.4)
    assert gen.h_sec is None and gen.xdp_pu is None  # never invented
    assert {l.id for l in case.loads} == {"load2", "load3"}
    br = case.branches[0]
    assert br.r_pu == pytest.approx(0.01938)
    assert br.tap_ratio == 1.0                   # tap column 0 -> none
    # imported solved voltages can seed the dynamic chain after a PF check
    sol = solve_powerflow(case)
    assert sol.max_mismatch_pu < 1e-8


def test_cdf_unknown_bus_type(tmp_path):
    bad = CDF_SAMPLE.replace("  1  1  3 1.060", "  1  1  7 1.060")
    p = tmp_path / "bad.cdf"
    p.write_text(bad)
    with pytest.raises(CaseParseError, match="bus type"):
        import_cdf(p)


def test_cdf_bad_column_names_file_line_and_columns(tmp_path):
    bad = CDF_SAMPLE.replace("1.0450", "1.0x50")
    p = tmp_path / "bad.cdf"
    p.write_text(bad)
    with pytest.raises(CaseParseError) as exc:
        import_cdf(p)
    assert str(exc.value) == (f"{p}:4: columns 28-33: field 'voltage' "
                              "is not a number: '1.0x50'")


def test_cdf_missing_section(tmp_path):
    p = tmp_path / "trunc.cdf"
    p.write_text(CDF_SAMPLE.split("BRANCH")[0])
    with pytest.raises(CaseParseError, match="branch"):
        import_cdf(p)


def _fake_rocof(case9):
    n = len(case9.buses)
    return RocofResult(
        contingency_id="t", mw_lost=85.0, system_rocof_hz_s=-0.8,
        bus_ids=[b.id for b in case9.buses],
        bus_rocof_hz_s=np.linspace(-1.0, -0.5, n),
        machine_ids=["gen1"], machine_accel=np.array([-0.01]),
        post_disturbance_voltages=np.ones(n, dtype=complex))


def test_rocof_csv(case9, tmp_path):
    res = _fake_rocof(case9)
    out = tmp_path / "r.csv"
    write_rocof_csv(res, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "bus_id,rocof_hz_per_s"
    assert len(lines) == 1 + 9


def test_rocof_geojson(case9, tmp_path):
    res = _fake_rocof(case9)
    out = tmp_path / "r.geojson"
    write_rocof_geojson(res, out, case9)
    doc = json.loads(out.read_text())
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) == 9
    f0 = doc["features"][0]
    assert f0["geometry"]["type"] == "Point"
    assert "rocof_hz_per_s" in f0["properties"]


def test_geojson_requires_coordinates(case9, tmp_path):
    stripped = case9.with_buses(
        [dataclasses.replace(b, latitude=None, longitude=None)
         for b in case9.buses])
    res = _fake_rocof(case9)
    with pytest.raises(ValueError, match="missing coordinates"):
        write_rocof_geojson(res, tmp_path / "x.geojson", stripped)


def test_sim_csv_and_events(tmp_path):
    sim = SimResult(
        time_s=np.array([0.0, 0.1]), machine_ids=["g1"],
        delta=np.zeros((2, 1)), omega=np.zeros((2, 1)),
        bus_ids=[1, 2], bus_angle_rad=np.zeros((2, 2)),
        bus_freq_hz=np.full((2, 2), 60.0),
        events=[TripEvent(0.1, "ufls", "stage1", "ld1", 1, 59.2)])
    out = tmp_path / "sim.csv"
    write_sim_csv(sim, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "time_s,freq_hz_bus1,freq_hz_bus2,omega_pu_g1"
    assert len(lines) == 3
    ev = tmp_path / "ev.csv"
    write_events(sim.events, ev)
    assert "ufls" in ev.read_text()


def test_scenario_table_round_trip(tmp_path):
    rows = [ScenarioRecord("lc000", "ctg000", 900.0, 120.0, -0.225,
                           -0.4, -0.22, -0.1, 17, False, "ok"),
            ScenarioRecord("lc000", "ctg001", 3000.0, 120.0, -0.75,
                           concern_flag=True, status="error: islanding")]
    p = tmp_path / "table.csv"
    write_scenario_table(rows, p)
    back = read_scenario_table(p)
    assert back[0].worst_bus == 17
    assert back[0].system_rocof_hz_s == pytest.approx(-0.225)
    assert back[1].concern_flag is True
    assert math.isnan(back[1].bus_rocof_min)
    assert back[1].status == "error: islanding"


def test_bank_round_trip(tmp_path):
    ctgs = [Contingency("ctg000", frozenset({"g1", "g2"}), 950.0)]
    lcs = [LoadingCase("lc000", 30000.0, 18000.0, {"g1": 500.0},
                       frozenset({"g1"}), 150.0, 0.37)]
    write_contingencies(ctgs, tmp_path / "c.csv")
    write_loading_cases(lcs, tmp_path / "l.json")
    c = read_contingencies(tmp_path / "c.csv")
    l = read_loading_cases(tmp_path / "l.json")
    assert c[0].outaged_generator_ids == frozenset({"g1", "g2"})
    assert c[0].total_mw_lost == pytest.approx(950.0)
    assert l[0].dispatch == {"g1": 500.0}
    assert l[0].committed == frozenset({"g1"})


def reference_write_loading_cases(cases: list[LoadingCase], path) -> None:
    """write_loading_cases as first written, field by field."""
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


@pytest.mark.parametrize("n", [1, 2, 3, 25])
def test_loading_bank_bytes_match_reference_writer(tmp_path, fleet_case, n):
    # the record codec writes the same file, and reads it back unchanged;
    # the last case holds its units out of order
    cases = generate_loading_cases(fleet_case, n, (15000.0, 75000.0),
                                   (10000.0, 30000.0))
    cases.append(LoadingCase("lc_x", 100.0, 0.0, {"gb": 60.0, "ga": 40.0},
                             frozenset({"gb", "ga"}), 1.5, 0.0))
    write_loading_cases(cases, tmp_path / "new.json")
    reference_write_loading_cases(cases, tmp_path / "ref.json")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
    assert read_loading_cases(tmp_path / "new.json") == cases


GOOD_ENTRY = {"id": "lc0", "target_load_mw": 315.0, "target_wind_mw": 0.0,
              "dispatch": {"g1": 200.0, "g2": 115.0}, "committed": ["g1", "g2"],
              "online_inertia_gws": 1.0, "wind_fraction": 0.0}


@pytest.mark.parametrize("key, value, message", [
    ("dispatch", 5, "field 'dispatch' is not an object of numbers: 5"),
    ("dispatch", "x", "field 'dispatch' is not an object of numbers: 'x'"),
    ("dispatch", [], "field 'dispatch' is not an object of numbers: []"),
    ("dispatch", None, "field 'dispatch' is not an object of numbers: None"),
    ("dispatch", True, "field 'dispatch' is not an object of numbers: True"),
    ("dispatch", {"g1": 200.0, "g2": True},
     "field 'dispatch[g2]' is not a number: True"),
    ("committed", "g1", "field 'committed' is not a list of strings: 'g1'"),
    ("committed", [1], "field 'committed' is not a list of strings: [1]"),
    ("committed", ["g1"],
     "field 'committed' does not list exactly the units in 'dispatch'"),
    ("committed", ["g1", "g2", "g3"],
     "field 'committed' does not list exactly the units in 'dispatch'"),
])
def test_loading_bank_rejects_a_malformed_unit_field(tmp_path, key, value, message):
    p = tmp_path / "l.json"
    p.write_text(json.dumps([GOOD_ENTRY, dict(GOOD_ENTRY, **{key: value})]))
    with pytest.raises(CaseParseError) as exc:
        read_loading_cases(p)
    assert str(exc.value) == f"{p}: entry 1: {message}"
