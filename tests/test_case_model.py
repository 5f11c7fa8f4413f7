import dataclasses

import numpy as np
import pytest

from rocofscreen import total_inertia_gws, validate_case
from rocofscreen.case_model import Branch, Bus, Generator, GridCase, Load


def test_bundled_case_is_valid(case9):
    assert validate_case(case9) == []


def test_zero_inertia_constant_is_flagged(case9):
    gens = list(case9.generators)
    gens[1] = dataclasses.replace(gens[1], h_sec=0.0)
    bad = case9.with_generators(gens)
    violations = validate_case(bad)
    assert len(violations) == 1
    assert violations[0].ref == "gen2"
    assert violations[0].rule == "h_positive"


def test_dangling_load_reference(case9):
    loads = list(case9.loads) + [Load(id="ghost", bus_id=999, p_mw=10.0)]
    violations = validate_case(case9.with_loads(loads))
    assert len(violations) == 1
    assert violations[0].kind == "load"
    assert "999" in violations[0].message


def test_duplicate_bus_id(case9):
    buses = list(case9.buses) + [Bus(id=1)]
    assert any(v.rule == "unique_id" for v in validate_case(case9.with_buses(buses)))


def test_repeated_generator_and_load_ids(case9):
    gens = list(case9.generators) + [dataclasses.replace(case9.generator("gen3"), p_mw=10.0)]
    loads = list(case9.loads) + [case9.loads[0]]
    violations = validate_case(case9.with_generators(gens).with_loads(loads))
    assert {(v.kind, v.ref, v.rule) for v in violations} == {
        ("generator", "gen3", "unique_id"), ("load", loads[0].id, "unique_id")}


def test_island_check_runs_when_only_unit_ids_repeat(case9):
    gens = list(case9.generators) + [case9.generator("gen3")]
    buses = [dataclasses.replace(b, kind="slack") if b.id == 2 else b
             for b in case9.buses]
    violations = validate_case(case9.with_generators(gens).with_buses(buses))
    assert {v.rule for v in violations} == {"unique_id", "one_slack_per_island"}


def test_two_slacks_one_island(case9):
    buses = [dataclasses.replace(b, kind="slack") if b.id == 2 else b
             for b in case9.buses]
    violations = validate_case(case9.with_buses(buses))
    assert any(v.rule == "one_slack_per_island" for v in violations)


def test_branch_rules():
    case = GridCase(
        buses=(Bus(id=1, kind="slack"), Bus(id=2)),
        generators=(Generator(id="g", bus_id=1, s_base_mva=100.0, h_sec=3.0,
                              xdp_pu=0.2, p_max_mw=10.0),),
        branches=(Branch(1, 1, 0.0, 0.1), Branch(1, 2, 0.0, 0.0)),
    )
    rules = {v.rule for v in validate_case(case)}
    assert "distinct_ends" in rules
    assert "nonzero_x" in rules


def test_ufls_stage_requires_positive_mw(case9):
    loads = [dataclasses.replace(l, ufls_stage="stage1", p_mw=0.0)
             if l.id == "load5" else l for l in case9.loads]
    violations = validate_case(case9.with_loads(loads))
    assert any(v.rule == "ufls_requires_mw" for v in violations)


def test_validate_is_pure(case9):
    first = validate_case(case9)
    second = validate_case(case9)
    assert first == second == []


def test_total_inertia_bundled(case9):
    # 500*4.728 + 250*2.65 + 250*3.01 MW-s
    assert total_inertia_gws(case9) == pytest.approx(3.779, abs=1e-12)


def test_total_inertia_excludes_off_units(case9):
    gens = [dataclasses.replace(g, status=False) if g.id == "gen3" else g
            for g in case9.generators]
    assert total_inertia_gws(case9.with_generators(gens)) == pytest.approx(3.0265)


def test_total_inertia_empty_fleet(case9):
    gens = [dataclasses.replace(g, status=False) for g in case9.generators]
    assert total_inertia_gws(case9.with_generators(gens)) == 0.0


def test_total_inertia_additive(case9, fleet_case):
    rng = np.random.default_rng(3)
    for case in (case9, fleet_case):
        sync = [g for g in case.generators if g.status and g.synchronous]
        victim = sync[int(rng.integers(len(sync)))]
        gens = [dataclasses.replace(g, status=False) if g.id == victim.id else g
                for g in case.generators]
        drop = total_inertia_gws(case) - total_inertia_gws(case.with_generators(gens))
        assert drop == pytest.approx(victim.h_sec * victim.s_base_mva / 1000.0)


def test_total_inertia_requires_h(case9):
    gens = [dataclasses.replace(g, h_sec=None) if g.id == "gen1" else g
            for g in case9.generators]
    with pytest.raises(ValueError, match="gen1"):
        total_inertia_gws(case9.with_generators(gens))


def test_wind_units_excluded_from_inertia(case9):
    gens = list(case9.generators) + [Generator(
        id="w1", bus_id=5, s_base_mva=100.0, p_mw=10.0, p_max_mw=50.0,
        fuel="wind", synchronous=False)]
    assert total_inertia_gws(case9.with_generators(gens)) == \
        pytest.approx(total_inertia_gws(case9))
