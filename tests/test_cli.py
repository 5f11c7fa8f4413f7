import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from rocofscreen import load_case9, write_case
from rocofscreen.cli import build_parser, main

CASE9 = Path(__file__).resolve().parents[1] / "src/rocofscreen/data/wscc9.json"

REQUIRED_FLAGS = {
    "validate": ["--case", "--sidecar"],
    "powerflow": ["--case", "--sidecar", "--tol", "--max-iter", "--out"],
    "rocof-system": ["--case", "--sidecar", "--outage", "--loss-mw"],
    "rocof-local": ["--case", "--sidecar", "--outage", "--out", "--format"],
    "simulate": ["--case", "--sidecar", "--outage", "--t-end", "--dt",
                 "--damping", "--out"],
    "synth": ["--case", "--sidecar", "--seed", "--out"],
    "scenarios-gen": ["--case", "--sidecar", "--seed", "--n-contingencies",
                      "--n-loading", "--load-range", "--wind-range", "--out"],
    "scenarios-run": ["--case", "--sidecar", "--bank", "--mode", "--workers",
                      "--out"],
    "report": ["--results", "--out"],
}


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_help_documents_every_flag():
    parser = build_parser()
    subs = parser._subparsers._group_actions[0].choices
    assert set(subs) == set(REQUIRED_FLAGS)
    for name, sub in subs.items():
        text = sub.format_help()
        for flag in REQUIRED_FLAGS[name]:
            assert flag in text, f"{name} --help does not document {flag}"
        # argparse renders a help string for every registered option
        for action in sub._actions:
            for opt in action.option_strings:
                assert opt in text


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["validate", "--case", "x", "--bogus"])
    assert exc.value.code != 0


def test_validate_ok(capsys):
    code, out, _ = run(["validate", "--case", str(CASE9)], capsys)
    assert code == 0
    assert "ok" in out


def test_validate_failure_exits_1(tmp_path, capsys):
    case = load_case9()
    import dataclasses
    bad = case.with_generators(
        [dataclasses.replace(g, h_sec=-1.0) if g.id == "gen1" else g
         for g in case.generators])
    p = tmp_path / "bad.json"
    write_case(bad, p)
    code, out, _ = run(["validate", "--case", str(p)], capsys)
    assert code == 1
    assert "violation" in out


def test_validate_names_a_repeated_generator_id(tmp_path, capsys):
    doc = json.loads(CASE9.read_text())
    gens = doc["case"]["generators"]
    gens.append(dict(next(g for g in gens if g["id"] == "gen3"), p_mw=10.0))
    p = tmp_path / "twice.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(["validate", "--case", str(p)], capsys)
    assert code == 1
    assert "generator gen3: duplicate generator id 'gen3' [unique_id]" in out


def test_missing_file_exits_1(capsys):
    code, _, err = run(["validate", "--case", "/nonexistent.json"], capsys)
    assert code == 1


def test_powerflow_command(tmp_path, capsys):
    out_csv = tmp_path / "pf.csv"
    code, out, _ = run(["powerflow", "--case", str(CASE9),
                        "--out", str(out_csv)], capsys)
    assert code == 0
    assert "converged" in out
    assert out_csv.read_text().startswith("bus_id,v_mag_pu,v_ang_deg")


def test_powerflow_divergence_exits_2(tmp_path, capsys):
    doc = json.loads(CASE9.read_text())
    for l in doc["case"]["loads"]:
        l["p_mw"] *= 40.0     # hopeless loading
    p = tmp_path / "heavy.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(["powerflow", "--case", str(p)], capsys)
    assert code == 2
    assert "numerical failure" in err


def test_rocof_system_gen3(capsys):
    code, out, _ = run(["rocof-system", "--case", str(CASE9),
                        "--outage", "gen3"], capsys)
    assert code == 0
    assert "-0.8426 Hz/s" in out


def test_rocof_system_needs_input(capsys):
    code, _, err = run(["rocof-system", "--case", str(CASE9)], capsys)
    assert code == 1


def test_rocof_system_zero_inertia_exits_2(capsys):
    code, _, err = run(["rocof-system", "--case", str(CASE9),
                        "--outage", "gen1,gen2,gen3"], capsys)
    assert code == 2


def test_rocof_local_csv(tmp_path, capsys):
    out = tmp_path / "rocof.csv"
    code, text, _ = run(["rocof-local", "--case", str(CASE9),
                         "--outage", "gen3", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 10                     # header + 9 buses
    assert "system -0.8426" in text


def test_rocof_local_geojson(tmp_path, capsys):
    out = tmp_path / "rocof.geojson"
    code, _, _ = run(["rocof-local", "--case", str(CASE9), "--outage", "gen3",
                      "--out", str(out), "--format", "geojson"], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["features"]) == 9


def test_rocof_local_singular_outage_exits_2(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    code, _, err = run(["rocof-local", "--case", str(CASE9), "--outage", "gen3",
                        "--out", str(tmp_path / "rocof.csv")], capsys)
    assert code == 2
    assert "numerical failure: contingency cli:" in err
    assert "buses [3]" in err


def test_simulate_command(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, text, _ = run(["simulate", "--case", str(CASE9), "--outage", "gen3",
                         "--t-end", "0.5", "--out", str(out)], capsys)
    assert code == 0
    assert out.exists()
    assert (tmp_path / "sim.csv.events.csv").exists()
    assert "nadir" in text


def test_synth_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code, text, _ = run(["synth", "--case", str(CASE9), "--seed", "42",
                             "--out", str(out)], capsys)
        assert code == 0
        assert "seed: 42" in text
        assert text.count("total inertia:") == 1
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_scenarios_pipeline(tmp_path, capsys, fleet_case):
    case_path = tmp_path / "fleet.json"
    write_case(fleet_case, case_path)
    bank = tmp_path / "bank"
    code, text, _ = run([
        "scenarios-gen", "--case", str(case_path), "--seed", "7",
        "--n-contingencies", "6", "--n-loading", "4",
        "--load-range", "30000:60000", "--wind-range", "12000:20000",
        "--out", str(bank)], capsys)
    assert code == 0
    assert "seed: 7" in text
    assert (bank / "contingencies.csv").exists()
    assert (bank / "loading_cases.json").exists()

    results = tmp_path / "results.csv"
    code, text, _ = run([
        "scenarios-run", "--case", str(case_path), "--bank", str(bank),
        "--mode", "locational", "--workers", "2", "--out", str(results)],
        capsys)
    assert code == 0
    assert len(results.read_text().strip().splitlines()) == 1 + 4 * 6

    summary = tmp_path / "summary"
    code, text, _ = run(["report", "--results", str(results),
                         "--out", str(summary)], capsys)
    assert code == 0
    for name in ("summary_by_loss.csv", "summary_by_loading.csv",
                 "summary_by_contingency.csv"):
        assert (summary / name).exists()


def test_scenarios_gen_without_inertia_names_the_unit(tmp_path, capsys, fleet_case):
    # every loading case commits the nuclear units; one without h_sec would
    # give each case a wrong online inertia, so the bank is refused
    unit = next(g.id for g in fleet_case.generators if g.fuel == "nuclear")
    case_path = tmp_path / "fleet.json"
    write_case(fleet_case.with_generators(
        [dataclasses.replace(g, h_sec=None) if g.id == unit else g
         for g in fleet_case.generators]), case_path)
    code, _, err = run([
        "scenarios-gen", "--case", str(case_path), "--seed", "7",
        "--n-contingencies", "6", "--n-loading", "4",
        "--load-range", "30000:60000", "--wind-range", "12000:20000",
        "--out", str(tmp_path / "bank")], capsys)
    assert code == 1
    assert f"generator {unit!r}" in err and "h_sec" in err


GOOD_CONTINGENCIES = "id,outaged_generator_ids,mw_lost\nc1,gen3,85.0\n"
GOOD_LOADING = {"id": "lc0", "target_load_mw": 315.0, "target_wind_mw": 0.0,
                "dispatch": {"gen1": 71.6, "gen2": 163.0, "gen3": 85.0},
                "committed": ["gen1", "gen2", "gen3"],
                "online_inertia_gws": 1.0, "wind_fraction": 0.0}


def case9_text(section=None, i=0, **fields):
    """The bundled 9-bus case as JSON text, with ``fields`` set on entry
    ``i`` of ``section`` (or on the case itself when no section is named)."""
    doc = json.loads(CASE9.read_text())
    (doc["case"][section][i] if section else doc["case"]).update(fields)
    return json.dumps(doc)


def case9_set(value, *keys):
    """The bundled 9-bus case as JSON text with the value at
    ``doc["case"][keys[0]][keys[1]]...`` replaced by ``value``."""
    doc = json.loads(CASE9.read_text())
    target = doc["case"]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize("name, text, place", [
    ("contingencies.csv", "id,outaged_generator_ids\nc1,gen3\n",
     ":1: missing column 'mw_lost'"),
    ("contingencies.csv",
     "id,outaged_generator_ids,mw_lost\nc1,gen3,85\nc2,gen2,abc\n",
     ":3: field 'mw_lost' is not a number: 'abc'"),
    ("contingencies.csv", "id,outaged_generator_ids,mw_lost\nc1\n",
     ":2: missing field 'outaged_generator_ids'"),
    ("loading_cases.json", "[{", ": invalid JSON"),
    ("loading_cases.json",
     json.dumps([GOOD_LOADING, {k: v for k, v in GOOD_LOADING.items() if k != "committed"}]),
     "missing required field 'committed' in {path}: entry 1"),
    ("loading_cases.json", json.dumps([dict(GOOD_LOADING, target_wind_mw="abc")]),
     ": entry 0: field 'target_wind_mw' is not a number: 'abc'"),
    ("loading_cases.json", json.dumps([dict(GOOD_LOADING, dispatch={"gen1": None})]),
     ": entry 0: field 'dispatch[gen1]' is not a number: None"),
    pytest.param("case.json", case9_text("loads", 0, p_mw="abc"),
                 ": loads[0]: field 'p_mw' is not a number: 'abc'",
                 id="case-load-p_mw"),
    pytest.param("case.json", case9_text("buses", 2, id="b3"),
                 ": buses[2]: field 'id' is not a number: 'b3'",
                 id="case-bus-id"),
    pytest.param("case.json", case9_text("branches", 1, x_pu=None),
                 ": branches[1]: field 'x_pu' is not a number: None",
                 id="case-branch-x_pu"),
    pytest.param("case.json", case9_text("generators", 2, h_sec=[3.0]),
                 ": generators[2]: field 'h_sec' is not a number: [3.0]",
                 id="case-generator-h_sec"),
    pytest.param("case.json", case9_text(s_base_mva="100 MVA"),
                 ": case: field 's_base_mva' is not a number: '100 MVA'",
                 id="case-s_base_mva"),
    pytest.param("case.dyn.csv",
                 "record,id,h_sec,xdp_pu,fuel,ufls_stage,ffr\n"
                 "generator,gen1,3.0,,,,\ngenerator,gen2,,0.2x,,,\n",
                 ":3: field 'xdp_pu' is not a number: '0.2x'",
                 id="sidecar-xdp_pu"),
    pytest.param("case.json", case9_text("generators", 2, status="maybe"),
                 ": generators[2]: field 'status' is not a boolean: 'maybe'",
                 id="case-generator-status"),
    pytest.param("case.json", case9_text("buses", 3, id=4.7),
                 ": buses[3]: field 'id' is not an integer: 4.7",
                 id="case-bus-id-fraction"),
    pytest.param("case.json", case9_text("loads", 1, p_mw=True),
                 ": loads[1]: field 'p_mw' is not a number: True",
                 id="case-load-p_mw-bool"),
    pytest.param("case.json", case9_set(5, "buses", 0),
                 ": buses[0]: not an object: 5",
                 id="case-bus-record"),
    pytest.param("case.json", case9_set(None, "generators"),
                 ": case: field 'generators' is not a list: None",
                 id="case-generators-list"),
    pytest.param("case.dyn.csv",
                 "record,id,h_sec,xdp_pu,fuel,ufls_stage,ffr\n"
                 "load,load5,,,,,ture\n",
                 ":2: field 'ffr' is not a boolean: 'ture'",
                 id="sidecar-ffr"),
])
def test_malformed_bank_file_names_the_place(tmp_path, capsys, name, text, place):
    # every input file of scenarios-run: the bank, the case and the
    # case's sidecar (read by the <case>.dyn.csv convention)
    bank = tmp_path / "bank"
    bank.mkdir()
    (bank / "case.json").write_text(CASE9.read_text())
    (bank / "contingencies.csv").write_text(GOOD_CONTINGENCIES)
    (bank / "loading_cases.json").write_text(json.dumps([GOOD_LOADING]))
    bad = bank / name
    bad.write_text(text)
    code, _, err = run(["scenarios-run", "--case", str(bank / "case.json"),
                        "--bank", str(bank), "--out", str(tmp_path / "out.csv")],
                       capsys)
    assert code == 1
    assert str(bad) in err
    assert place.format(path=bad) in err


def test_unreadable_text_names_the_file(tmp_path, capsys):
    bad = tmp_path / "case.json"
    bad.write_bytes(CASE9.read_bytes().replace(b'"wscc9"', b'"wscc\xff"'))
    code, _, err = run(["validate", "--case", str(bad)], capsys)
    assert code == 1
    assert f"{bad}: not UTF-8 text" in err


def test_loading_case_ids_read_as_text(tmp_path, capsys):
    # a numeric id next to a text one once reached run_bank's sort
    bank = tmp_path / "bank"
    bank.mkdir()
    (bank / "contingencies.csv").write_text(GOOD_CONTINGENCIES)
    (bank / "loading_cases.json").write_text(
        json.dumps([dict(GOOD_LOADING, id=5), GOOD_LOADING]))
    out = tmp_path / "out.csv"
    code, _, _ = run(["scenarios-run", "--case", str(CASE9), "--bank", str(bank),
                      "--out", str(out)], capsys)
    assert code == 0
    ids = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert sorted(ids) == ["5", "lc0"]


@pytest.mark.parametrize("row, place", [
    ("lc0,c1,85.0,1.0,-1.0,x,-1.0,-1.0,5,1,ok",
     ":2: field 'bus_rocof_min' is not a number: 'x'"),
    ("lc0,c1,85.0,1.0,-1.0,-1.0,-1.0,-1.0,5.5,1,ok",
     ":2: field 'worst_bus' is not a number: '5.5'"),
    ("lc0,c1,85.0", ":2: missing field 'inertia_gws'"),
])
def test_malformed_scenario_table_names_the_place(tmp_path, capsys, row, place):
    from rocofscreen.case_io import SCENARIO_COLUMNS
    results = tmp_path / "results.csv"
    results.write_text(",".join(SCENARIO_COLUMNS) + "\n" + row + "\n")
    code, _, err = run(["report", "--results", str(results),
                        "--out", str(tmp_path / "summary")], capsys)
    assert code == 1
    assert str(results) + place in err


def test_missing_dynamics_is_data_error(tmp_path, capsys):
    doc = json.loads(CASE9.read_text())
    for g in doc["case"]["generators"]:
        g.pop("h_sec", None)
    p = tmp_path / "bare.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(["rocof-local", "--case", str(p), "--outage", "gen3",
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 1
    assert "h_sec" in err or "dynamic" in err


@pytest.mark.parametrize("error", [KeyError("bus_ids"), ValueError("bad shape")])
def test_bug_raised_key_or_value_error_is_not_a_data_error(monkeypatch, error):
    # only the library's own error classes mean bad input (exit 1)
    from rocofscreen import cli

    def bug(*args, **kwargs):
        raise error
    monkeypatch.setattr(cli, "solve_powerflow", bug)
    with pytest.raises(type(error)):
        main(["powerflow", "--case", str(CASE9)])


def test_log_level_env_var(monkeypatch, capsys):
    import logging
    monkeypatch.setenv("ROCOF_SCREEN_LOG", "DEBUG")
    logging.getLogger().handlers.clear()
    code, _, _ = run(["validate", "--case", str(CASE9)], capsys)
    assert code == 0
    assert logging.getLogger().level == logging.DEBUG
