import dataclasses
import json
import math
from pathlib import Path

import pytest

from rocofscreen import load_case9, write_case
from rocofscreen.cli import build_parser, main
from conftest import force_singular_capacitance, tiny_case
from test_rocof import groundless_island_case

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
    "scenarios-run": ["--case", "--sidecar", "--bank", "--mode", "--out"],
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


@pytest.mark.parametrize("section, field, value, line", [
    ("branches", "r_pu", math.nan, "branch 1-4: r_pu must be finite, got nan [finite]"),
    ("branches", "x_pu", math.nan, "branch 1-4: x_pu must be finite, got nan [finite]"),
    ("branches", "b_pu", math.inf, "branch 1-4: b_pu must be finite, got inf [finite]"),
    ("branches", "tap_ratio", math.nan,
     "branch 1-4: tap_ratio must be finite, got nan [finite]"),
    ("branches", "tap_ratio", -1.0,
     "branch 1-4: tap_ratio must be >= 0 (0 for none), got -1.0 [tap_nonnegative]"),
    ("loads", "p_mw", math.nan, "load load5: p_mw must be finite, got nan [finite]"),
    ("buses", "v_mag", math.nan, "bus 1: v_mag must be finite, got nan [finite]"),
    ("generators", "s_base_mva", math.nan,
     "generator gen1: s_base_mva must be finite, got nan [finite]"),
])
def test_non_finite_or_negative_tap_exits_1_naming_the_field(
        tmp_path, capsys, section, field, value, line):
    # the first record of the section; powerflow used to run on it and fail
    # to converge (exit 2) or, for a NaN machine base, write a file
    doc = json.loads(CASE9.read_text())
    doc["case"][section][0][field] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(["validate", "--case", str(p)], capsys)
    assert code == 1
    assert line in out.splitlines()
    out_csv = tmp_path / "pf.csv"
    code, _, err = run(["powerflow", "--case", str(p), "--out", str(out_csv)], capsys)
    assert code == 1
    assert line in err
    assert not out_csv.exists()


def test_zero_tap_means_none(tmp_path, capsys):
    doc = json.loads(CASE9.read_text())
    doc["case"]["branches"][0]["tap_ratio"] = 0.0
    p = tmp_path / "untapped.json"
    p.write_text(json.dumps(doc))
    assert run(["validate", "--case", str(p)], capsys)[0] == 0


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


@pytest.mark.parametrize("args, line", [
    (["powerflow", "--max-iter", "-3"], "error: max_iter must be >= 0, got -3"),
    (["powerflow", "--tol", "-1"], "error: tol must be positive and finite, got -1.0"),
    (["powerflow", "--tol", "nan"], "error: tol must be positive and finite, got nan"),
    (["simulate", "--t-end", "nan"], "error: t_end must be finite, got nan"),
    (["simulate", "--outage", "gen3", "--damping", "nan", "--t-end", "0.5"],
     "error: damping_d must be finite, got nan"),
    (["rocof-system", "--loss-mw", "nan"], "error: p_loss_mw must be finite, got nan"),
    (["rocof-system", "--outage", "gen9"], "error: no generator with id 'gen9'"),
    (["simulate", "--outage", "gen3", "--t-end", "0.05"],
     "error: t_end = 0.05 s ends before the contingency at 0.1 s"),
    # a unit trips once: named twice, rocof-system counted its loss twice
    (["rocof-system", "--outage", "gen3,gen3"],
     "error: --outage names generator 'gen3' twice"),
    (["rocof-local", "--outage", "gen1, gen3,gen1"],
     "error: --outage names generator 'gen1' twice"),
    (["simulate", "--outage", "gen3,gen3"],
     "error: --outage names generator 'gen3' twice"),
])
def test_malformed_option_exits_1_naming_it(tmp_path, capsys, args, line):
    out = tmp_path / "out.csv"
    extra = ["--out", str(out)] if args[0] in ("simulate", "rocof-local") else []
    code, text, err = run(args + ["--case", str(CASE9)] + extra, capsys)
    assert code == 1
    assert err.splitlines() == [line]
    assert text == "" and not out.exists()


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


def test_rocof_local_without_a_defined_bus_rocof_exits_0(tmp_path, capsys):
    # the only machine, dispatched at 0 MW, trips: every bus is NaN, so the
    # summary has no range to print
    case, out = tmp_path / "tiny.json", tmp_path / "rocof.csv"
    write_case(tiny_case(load_mw=0.0), case)
    code, text, _ = run(["rocof-local", "--case", str(case), "--outage", "g1",
                         "--out", str(out)], capsys)
    assert code == 0
    assert text == f"system 0.0000 Hz/s; no bus has a defined ROCOF; wrote {out}\n"
    assert out.read_text().splitlines() == ["bus_id,rocof_hz_per_s", "1,"]


def test_rocof_local_singular_outage_exits_2(tmp_path, capsys, monkeypatch):
    force_singular_capacitance(monkeypatch)
    code, _, err = run(["rocof-local", "--case", str(CASE9), "--outage", "gen3",
                        "--out", str(tmp_path / "rocof.csv")], capsys)
    assert code == 2
    assert "numerical failure: contingency cli:" in err
    assert "buses [3]" in err


def test_rocof_local_singular_network_exits_2(tmp_path, capsys):
    # an island with no machine and no shunt makes the dynamic admittance
    # matrix exactly singular: a numerical failure naming the island, not a
    # SuperLU traceback
    path = tmp_path / "groundless.json"
    write_case(groundless_island_case(), path)
    code, _, err = run(["rocof-local", "--case", str(path), "--outage", "gB",
                        "--out", str(tmp_path / "rocof.csv")], capsys)
    assert code == 2
    assert err == ("numerical failure: dynamic admittance matrix is singular: "
                   "buses [4] form an island with no machine and no shunt\n")


def test_simulate_command(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, text, _ = run(["simulate", "--case", str(CASE9), "--outage", "gen3",
                         "--t-end", "0.5", "--out", str(out)], capsys)
    assert code == 0
    assert out.exists()
    assert (tmp_path / "sim.csv.events.csv").exists()
    assert "nadir" in text
    # 121 steps and the machine-bus block, whose solve gives the outaged
    # bus's column for the compensation too; the model's one factorization
    # is made before the run
    assert "(122 sparse solves);" in text


def test_simulate_zero_inertia_exits_2(tmp_path, capsys):
    code, _, err = run(["simulate", "--case", str(CASE9), "--outage",
                        "gen1,gen2,gen3", "--out", str(tmp_path / "sim.csv")],
                       capsys)
    assert code == 2
    assert "numerical failure: contingency cli removes all synchronous inertia" in err


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
        "--mode", "locational", "--out", str(results)],
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


REPORT_TABLE = """\
loading_id,contingency_id,mw_lost,inertia_gws,system_rocof,bus_rocof_min,bus_rocof_mean,bus_rocof_max,worst_bus,concern_flag,status
lc000,c1,85.0,3.779,-0.6748,-1.2,-0.8,-0.5,7,1,ok
lc000,c2,163.0,3.779,-1.2941,-2.5,-1.7,-1.1,3,1,ok
lc000,c3,0.0,3.779,0.0,,,,,0,no_online_units
lc000,c4,319.6,3.779,-2.5375,,,,,1,error: contingency c4 removes all synchronous inertia
lc001,c1,85.0,2.5,-1.02,-1.5,-1.1,-0.9,5,1,1 undefined island(s)
lc001,c2,163.0,2.5,-1.956,,,,,1,ok
lc001,c3,0.0,2.5,0.0,,,,,0,no_online_units
lc001,c4,319.6,2.5,-3.8352,,,,,1,error: contingency c4 removes all synchronous inertia
lc002,c1,85.0,0.0,,,,,,0,ok
lc002,c2,90.5,0.0,,,,,,0,ok
lc003,c1,85.0,4.1,-0.622,,,,,1,loading case failed: no convergence after 3 iterations
lc003,c2,163.0,4.1,-1.1929,-1.4,-1.3,-1.2,2,1,ok
"""

REPORT_SUMMARIES = {
    "summary_by_loss.csv": [
        "mw_lost_bin_lo,mw_lost_bin_hi,n,system_rocof_mean,system_rocof_min,"
        "worst_bus_rocof_min",
        "58.1,87.2,4,-0.7722666666666665,-1.02,-1.5",
        "87.2,116.2,1,,,",
        "145.3,174.3,3,-1.4809999999999999,-1.956,-2.5",
        "290.5,319.6,2,-3.18635,-3.8352,"],
    "summary_by_loading.csv": [
        "loading_id,inertia_gws,n_scenarios,n_concern,bus_rocof_min",
        "lc000,3.779,4,3,-2.5",
        "lc001,2.5,4,3,-1.5",
        "lc002,0.0,2,0,",
        "lc003,4.1,2,2,-1.4"],
    "summary_by_contingency.csv": [
        "contingency_id,mw_lost_max,n,bus_rocof_min,bus_rocof_mean,bus_rocof_max",
        "c1,85.0,4,-1.5,-0.9500000000000001,-0.5",
        "c2,163.0,4,-2.5,-1.5,-1.1",
        "c3,0.0,2,,,",
        "c4,319.6,2,,,"],
}


def test_report_summaries_byte_for_byte(tmp_path, capsys):
    # blank statistics (failed, no-unit and NaN-ROCOF rows, and a system
    # ROCOF left blank by zero online inertia) are skipped, and a group
    # without any number is blank
    results = tmp_path / "results.csv"
    results.write_text(REPORT_TABLE)
    code, _, _ = run(["report", "--results", str(results),
                      "--out", str(tmp_path / "summary")], capsys)
    assert code == 0
    for name, lines in REPORT_SUMMARIES.items():
        expected = "".join(line + "\r\n" for line in lines).encode()
        assert (tmp_path / "summary" / name).read_bytes() == expected, name


def test_report_summaries_do_not_depend_on_row_order(tmp_path, capsys):
    # a blank mw_lost first or last in its group gives the same maximum
    header, *rows = REPORT_TABLE.splitlines()
    rows.append("lc004,c1,,2.0,,,,,,0,loading case failed: no convergence")
    summaries = []
    for name, order in (("forward", rows), ("reversed", rows[::-1])):
        (tmp_path / f"{name}.csv").write_text("\n".join([header, *order]) + "\n")
        code, _, _ = run(["report", "--results", str(tmp_path / f"{name}.csv"),
                          "--out", str(tmp_path / name)], capsys)
        assert code == 0
        summaries.append((tmp_path / name / "summary_by_contingency.csv").read_text())
    assert summaries[0] == summaries[1]
    assert summaries[0].splitlines()[1].startswith("c1,85.0,5,")


@pytest.mark.parametrize("option, count", [
    ("--n-contingencies", "0"), ("--n-contingencies", "-3"), ("--n-loading", "0")])
def test_scenarios_gen_count_below_one_exits_1(tmp_path, capsys, fleet_case,
                                               option, count):
    # a contingency count below 1 once wrote a header-only bank and exited 0
    case_path = tmp_path / "fleet.json"
    write_case(fleet_case, case_path)
    counts = {"--n-contingencies": "6", "--n-loading": "4", option: count}
    bank = tmp_path / "bank"
    code, _, err = run([
        "scenarios-gen", "--case", str(case_path), "--seed", "7",
        *(x for pair in counts.items() for x in pair),
        "--load-range", "30000:60000", "--wind-range", "12000:20000",
        "--out", str(bank)], capsys)
    assert code == 1
    assert err.splitlines() == ["error: n must be positive"]
    assert not (bank / "contingencies.csv").exists()


@pytest.mark.parametrize("which, options, message", [
    ("fleet", ["--n-contingencies", "0"], "error: n must be positive"),
    ("case9", [], "error: case dispatch (320 MW) is too small to build outages "
                  "above 800 MW")], ids=["fleet-no-contingency", "case9-default"])
def test_scenarios_gen_error_leaves_no_out_directory(tmp_path, capsys, fleet_case,
                                                     which, options, message):
    # --out is created only once the bank is generated
    if which == "fleet":
        case_path = tmp_path / "fleet.json"
        write_case(fleet_case, case_path)
    else:
        case_path = CASE9
    bank = tmp_path / "bank"
    code, _, err = run(["scenarios-gen", "--case", str(case_path), "--seed", "7",
                        *options, "--out", str(bank)], capsys)
    assert code == 1
    assert err.splitlines() == [message]
    assert not bank.exists()


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
    # gen3 runs but is not committed: its loss once read no_online_units,
    # and a loss of {gen2, gen3} screened as the loss of gen2 alone
    ("loading_cases.json",
     json.dumps([dict(GOOD_LOADING, committed=["gen1", "gen2"])]),
     ": entry 0: field 'committed' does not list exactly the units in 'dispatch'"),
    # NaN and Infinity are JSON to Python's reader, but no bank number: a
    # NaN load once ran to a power-flow failure row, an infinite dispatch
    # to an infinite mw_lost
    pytest.param("loading_cases.json",
                 json.dumps([dict(GOOD_LOADING, target_load_mw=math.nan)]),
                 ": entry 0: field 'target_load_mw' is not finite: nan",
                 id="loading-target_load_mw-nan"),
    pytest.param("loading_cases.json",
                 json.dumps([GOOD_LOADING, dict(GOOD_LOADING, target_wind_mw=math.inf)]),
                 ": entry 1: field 'target_wind_mw' is not finite: inf",
                 id="loading-target_wind_mw-inf"),
    pytest.param("loading_cases.json",
                 json.dumps([dict(GOOD_LOADING, online_inertia_gws=math.nan)]),
                 ": entry 0: field 'online_inertia_gws' is not finite: nan",
                 id="loading-online_inertia_gws-nan"),
    pytest.param("loading_cases.json",
                 json.dumps([dict(GOOD_LOADING, wind_fraction=-math.inf)]),
                 ": entry 0: field 'wind_fraction' is not finite: -inf",
                 id="loading-wind_fraction-inf"),
    pytest.param("loading_cases.json",
                 json.dumps([dict(GOOD_LOADING, dispatch=dict(
                     GOOD_LOADING["dispatch"], gen3=math.inf))]),
                 ": entry 0: field 'dispatch[gen3]' is not finite: inf",
                 id="loading-dispatch-inf"),
    pytest.param("contingencies.csv",
                 "id,outaged_generator_ids,mw_lost\nc1,gen3,85\nc2,gen2,nan\n",
                 ":3: field 'mw_lost' is not finite: nan",
                 id="contingency-mw_lost-nan"),
    pytest.param("contingencies.csv",
                 "id,outaged_generator_ids,mw_lost\nc1,gen3,inf\n",
                 ":2: field 'mw_lost' is not finite: inf",
                 id="contingency-mw_lost-inf"),
    # a repeated id once ran as two rows under one (loading_id,
    # contingency_id) key, which report counted twice
    pytest.param("contingencies.csv", GOOD_CONTINGENCIES + "c1,gen3,85.0\n",
                 ":3: field 'id' repeats an earlier entry: 'c1'",
                 id="contingency-id-repeated-row"),
    pytest.param("contingencies.csv",
                 GOOD_CONTINGENCIES + "c2,gen2,163\nc1,gen2,163\n",
                 ":4: field 'id' repeats an earlier entry: 'c1'",
                 id="contingency-id-repeated"),
    pytest.param("loading_cases.json",
                 json.dumps([GOOD_LOADING, dict(GOOD_LOADING, target_load_mw=300.0)]),
                 ": entry 1: field 'id' repeats an earlier entry: 'lc0'",
                 id="loading-id-repeated"),
    pytest.param("loading_cases.json",
                 json.dumps([dict(GOOD_LOADING, id=5), dict(GOOD_LOADING, id="5")]),
                 ": entry 1: field 'id' repeats an earlier entry: '5'",
                 id="loading-id-repeated-as-number"),
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


@pytest.mark.parametrize("mode, system_rocof", [
    ("locational", -0.6747816882773218),    # the solved loss, 84.99999999999997 MW
    ("system_only", -0.674781688277322)])   # the dispatched 85.0 MW
def test_bank_inertia_line_comes_from_the_dispatch(tmp_path, capsys, mode,
                                                    system_rocof):
    # GOOD_LOADING states 1.0 GW-s, but its dispatch runs all three 9-bus
    # units, 3.779 GW-s; the line once used the stated figure (-2.55 Hz/s)
    bank = tmp_path / "bank"
    bank.mkdir()
    (bank / "contingencies.csv").write_text(GOOD_CONTINGENCIES)
    (bank / "loading_cases.json").write_text(json.dumps([GOOD_LOADING]))
    out = tmp_path / "out.csv"
    code, _, _ = run(["scenarios-run", "--case", str(CASE9), "--bank", str(bank),
                      "--mode", mode, "--out", str(out)], capsys)
    assert code == 0
    [row] = out.read_text().splitlines()[1:]
    contingency, inertia, rocof = (row.split(",")[k] for k in (1, 3, 4))
    assert (contingency, inertia, float(rocof)) == ("c1", "3.779", system_rocof)


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
    # one scenario twice would count twice in every summary
    ("lc0,c1,85.0,1.0,-1.0,-1.0,-1.0,-1.0,5,1,ok\n"
     "lc0,c2,85.0,1.0,-1.0,-1.0,-1.0,-1.0,5,1,ok\n"
     "lc0,c1,85.0,1.0,-1.0,-1.0,-1.0,-1.0,5,1,ok",
     ":4: field 'loading_id', 'contingency_id' repeats an earlier entry: "
     "('lc0', 'c1')"),
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
