import dataclasses
import logging
import math

import numpy as np
import pytest

from rocofscreen import (DEFAULT_FUEL_SPECS, FuelInertiaSpec,
                         assign_plant_correlated, assign_ufls, sample_h,
                         validate_synthesis)
from rocofscreen.case_model import Bus, Generator, GridCase, InputError, Load
from rocofscreen.synthdyn import tapered_bounds


def clamped_triangular_mean(spec, unit_mw):
    a, c, b = tapered_bounds(spec, unit_mw)
    return (a + b + c) / 3.0


def test_large_unit_gets_exact_average():
    gas = DEFAULT_FUEL_SPECS["gas"]
    rng = np.random.default_rng(0)
    for mw in (2000.0, 5000.0, 1e6):
        assert sample_h(gas, mw, rng) == gas.h_avg


def test_small_gas_unit_spans_table_bounds():
    gas = DEFAULT_FUEL_SPECS["gas"]
    rng = np.random.default_rng(1)
    draws = np.array([sample_h(gas, 1e-6, rng) for _ in range(5000)])
    assert draws.min() >= 1.0
    assert draws.max() <= 10.0
    assert draws.min() < 2.0 and draws.max() > 9.0   # actually spans


@pytest.mark.parametrize("fuel", ["nuclear", "coal", "gas"])
def test_mean_matches_triangular_moments(fuel):
    # oracle: mean of a triangular(a, c, b) is (a+b+c)/3, with the mode
    # clamp applied exactly as the sampler applies it
    spec = DEFAULT_FUEL_SPECS[fuel]
    rng = np.random.default_rng(42)
    mw = spec.p_max_mw * 0.01
    draws = np.array([sample_h(spec, mw, rng) for _ in range(10000)])
    expect = clamped_triangular_mean(spec, mw)
    assert draws.mean() == pytest.approx(expect, abs=0.03)
    a, c, b = tapered_bounds(spec, mw)
    assert draws.min() >= a and draws.max() <= b


def test_taper_width_monotone():
    for spec in DEFAULT_FUEL_SPECS.values():
        widths = []
        for s in np.linspace(0, 1, 11):
            a, c, b = tapered_bounds(spec, s * spec.p_max_mw)
            widths.append(b - a)
            assert a <= c <= b
        assert all(w2 <= w1 + 1e-12 for w1, w2 in zip(widths, widths[1:]))
        assert widths[-1] == pytest.approx(0.0, abs=1e-12)


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        FuelInertiaSpec("bad", h_max=2.0, h_min=3.0, h_avg=2.5, p_max_mw=100.0)
    with pytest.raises(ValueError):
        sample_h(DEFAULT_FUEL_SPECS["gas"], -5.0, np.random.default_rng(0))


def plant_case(units):
    """units: list of (bus_id, fuel, p_max)."""
    buses = tuple(Bus(id=b, kind="slack" if b == 1 else "pv")
                  for b in sorted({u[0] for u in units}))
    gens = tuple(
        Generator(id=f"u{k}", bus_id=b, s_base_mva=p / 0.85, p_mw=0.0,
                  p_max_mw=p, fuel=f, xdp_pu=0.25)
        for k, (b, f, p) in enumerate(units))
    # isolated buses each count as their own island; give each one a slack
    buses = tuple(dataclasses.replace(b, kind="slack") for b in buses)
    return GridCase(buses=buses, generators=gens)


def test_same_plant_same_fuel_shares_a_draw():
    case = plant_case([(1, "coal", 500.0), (1, "coal", 500.0)])
    out = assign_plant_correlated(case, np.random.default_rng(7))
    h = [g.h_sec for g in out.generators]
    assert h[0] == h[1]


def test_different_fuel_draws_independently():
    case = plant_case([(1, "coal", 500.0), (1, "gas", 500.0)])
    out = assign_plant_correlated(case, np.random.default_rng(7))
    h = [g.h_sec for g in out.generators]
    assert h[0] != h[1]


def test_dissimilar_rating_draws_independently():
    # 500 vs 600 MW is 20% apart, beyond the 10% similarity tolerance
    case = plant_case([(1, "coal", 600.0), (1, "coal", 500.0)])
    out = assign_plant_correlated(case, np.random.default_rng(7))
    h = [g.h_sec for g in out.generators]
    assert h[0] != h[1]


def test_similar_rating_within_tolerance_shares():
    case = plant_case([(1, "coal", 500.0), (1, "coal", 460.0)])  # 8% apart
    out = assign_plant_correlated(case, np.random.default_rng(7))
    h = [g.h_sec for g in out.generators]
    assert h[0] == h[1]


def test_unknown_fuel_falls_back_to_gas(caplog):
    case = plant_case([(1, "other", 400.0)])
    with caplog.at_level(logging.WARNING, logger="rocofscreen.synthdyn"):
        out = assign_plant_correlated(case, np.random.default_rng(3))
    assert out.generators[0].h_sec is not None
    assert any("gas" in r.message for r in caplog.records)


def test_assignment_deterministic(fleet_case):
    outs = [assign_plant_correlated(fleet_case, np.random.default_rng(5))
            for _ in range(2)]
    assert outs[0] == outs[1]


def test_wind_units_left_alone(fleet_case):
    out = assign_plant_correlated(fleet_case, np.random.default_rng(5))
    for g in out.generators:
        if not g.synchronous:
            assert g.h_sec is None


# --- UFLS assignment ---------------------------------------------------------

def hundred_load_case():
    buses = tuple(Bus(id=k, kind="slack" if k == 1 else "pq")
                  for k in range(1, 101))
    loads = tuple(Load(id=f"l{k}", bus_id=k, p_mw=1.0) for k in range(1, 101))
    gens = (Generator(id="g", bus_id=1, s_base_mva=200.0, p_max_mw=150.0,
                      h_sec=3.0, xdp_pu=0.25),)
    return GridCase(buses=buses, loads=loads, generators=gens)


def test_ufls_fractions_on_uniform_loads():
    case = hundred_load_case()
    out = assign_ufls(case, np.random.default_rng(11))
    counts = {s: sum(1 for l in out.loads if l.ufls_stage == s)
              for s in ("stage1", "stage2", "stage3")}
    assert abs(counts["stage1"] - 5) <= 1
    assert abs(counts["stage2"] - 10) <= 1
    assert abs(counts["stage3"] - 10) <= 1
    staged = {l.id for l in out.loads if l.ufls_stage != "none"}
    assert len(staged) == sum(counts.values())   # stages are disjoint


def test_ufls_single_load_warns(caplog):
    case = GridCase(
        buses=(Bus(id=1, kind="slack"),),
        loads=(Load(id="big", bus_id=1, p_mw=500.0),),
        generators=(Generator(id="g", bus_id=1, s_base_mva=700.0,
                              p_max_mw=600.0, h_sec=3.0, xdp_pu=0.25),))
    with caplog.at_level(logging.WARNING, logger="rocofscreen.synthdyn"):
        out = assign_ufls(case, np.random.default_rng(0))
    assert any("granularity" in r.message for r in caplog.records)
    assert out.loads[0].ufls_stage == "none"     # best effort keeps it out


def test_ufls_deterministic(fleet_case):
    a = assign_ufls(fleet_case, np.random.default_rng(21))
    b = assign_ufls(fleet_case, np.random.default_rng(21))
    assert a == b


def test_ufls_mw_weighted_fractions(fleet_case):
    out = assign_ufls(fleet_case, np.random.default_rng(2))
    total = sum(l.p_mw for l in out.loads)
    for stage, frac in zip(("stage1", "stage2", "stage3"), (0.05, 0.10, 0.10)):
        mw = sum(l.p_mw for l in out.loads if l.ufls_stage == stage)
        assert abs(mw - frac * total) <= 0.005 * total + 1e-9


# --- synthesis report --------------------------------------------------------

def big_fleet(n_per_fuel=2000, seed=13):
    rng = np.random.default_rng(seed)
    units = []
    for fuel in ("nuclear", "coal", "gas"):
        spec = DEFAULT_FUEL_SPECS[fuel]
        for k in range(n_per_fuel):
            units.append((k + 1, fuel,
                          float(rng.uniform(20.0, spec.p_max_mw))))
    buses = tuple(Bus(id=k, kind="slack") for k in range(1, n_per_fuel + 1))
    gens = tuple(Generator(id=f"{f}{k}", bus_id=(k % n_per_fuel) + 1,
                           s_base_mva=p / 0.85, p_max_mw=p, fuel=f,
                           xdp_pu=0.25)
                 for k, (b, f, p) in enumerate(units))
    return GridCase(buses=buses, generators=gens)


def test_validate_synthesis_statistics():
    case = big_fleet()
    rng = np.random.default_rng(99)
    case = assign_plant_correlated(case, rng)
    report = validate_synthesis(case)
    assert report.flags == []
    for fuel, stats in report.per_fuel.items():
        spec = DEFAULT_FUEL_SPECS[fuel]
        assert stats.h_min >= spec.h_min - 1e-12
        assert stats.h_max <= spec.h_max + 1e-12
        assert abs(stats.h_mean - spec.h_avg) <= 0.05 * spec.h_avg
        # spread shrinks as units approach the taper endpoint
        spreads = [s for s in report.size_bin_spread[fuel] if not math.isnan(s)]
        assert all(s2 <= s1 + 1e-9 for s1, s2 in zip(spreads, spreads[1:]))


def test_validate_synthesis_degenerate_fleet():
    gas = DEFAULT_FUEL_SPECS["gas"]
    buses = (Bus(id=1, kind="slack"),)
    gens = tuple(Generator(id=f"g{k}", bus_id=1, s_base_mva=4000.0,
                           p_max_mw=3000.0, fuel="gas", h_sec=gas.h_avg,
                           xdp_pu=0.3) for k in range(5))
    report = validate_synthesis(GridCase(buses=buses, generators=gens))
    stats = report.per_fuel["gas"]
    assert stats.h_mean == gas.h_avg
    assert stats.h_min == stats.h_max == gas.h_avg
    spreads = [s for s in report.size_bin_spread["gas"] if not math.isnan(s)]
    assert all(s == 0.0 for s in spreads)


def test_validate_synthesis_names_a_unit_without_inertia():
    # a partly assigned fleet once gave a total without the unassigned units
    gens = (Generator(id="g0", bus_id=1, s_base_mva=100.0, p_max_mw=80.0,
                      fuel="gas", h_sec=4.0, xdp_pu=0.3),
            Generator(id="g1", bus_id=1, s_base_mva=100.0, p_max_mw=80.0,
                      fuel="gas", xdp_pu=0.3))
    with pytest.raises(InputError, match="generator 'g1' is in service but "
                                         "has no h_sec"):
        validate_synthesis(GridCase(buses=(Bus(id=1, kind="slack"),),
                                    generators=gens))


def test_validate_synthesis_empty_fleet():
    report = validate_synthesis(GridCase(buses=(Bus(id=1, kind="slack"),)))
    assert report.per_fuel == {}
    assert report.total_inertia_gws == 0.0
