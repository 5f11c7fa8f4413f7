"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion. Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import dataclasses
import time

import numpy as np
import pytest

from rocofscreen import (Contingency, DEFAULT_FUEL_SPECS, SimOptions,
                         augment_dynamic, build_ybus, init_machines, locational_rocof, sample_h, simulate,
                         solve_powerflow, system_rocof, total_inertia_gws)
from rocofscreen.case_model import Load
from rocofscreen.cli import main as cli_main
from rocofscreen.scenarios import (dispatch_heuristic, finite_difference_rocof,
                                   generate_contingencies,
                                   generate_loading_cases, run_bank)
from rocofscreen.swingsim import check_ffr, check_ufls
from conftest import make_grid_case
from test_cli import CASE9
from test_swingsim import make_trace_result


def report(n: int, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_nine_bus_system_rocof(case9, capsys):
    """85 MW loss against the two remaining machines: within 1% of the
    benchmark -0.8489 Hz/s figure, equal to the direct arithmetic, fast."""
    code = cli_main(["rocof-system", "--case", str(CASE9), "--outage", "gen3"])
    out = capsys.readouterr().out
    assert code == 0
    value = float(out.split()[0])
    exact = -60.0 * 85.0 / (2.0 * (500 * 4.728 + 250 * 2.65))
    lib = system_rocof(case9, 85.0, outaged_ids=["gen3"])

    t0 = time.perf_counter()
    for _ in range(10):
        system_rocof(case9, 85.0, outaged_ids=["gen3"])
    per_call = (time.perf_counter() - t0) / 10

    ok = (abs(value - (-0.8489)) / 0.8489 < 0.01
          and abs(value - exact) < 5e-5          # CLI prints 4 decimals
          and lib == pytest.approx(exact, rel=1e-12)
          and per_call < 1e-3)
    with capsys.disabled():
        report(1, ok, f"rocof-system = {value:.4f} Hz/s "
                      f"(arithmetic {exact:.4f}, reference -0.8489, "
                      f"{per_call*1e6:.0f} us/call)")


def test_criterion_2_oracle_agreement(solved9, capsys):
    """Swing-simulation finite differences confirm the two-solve screen."""
    case, sol, model, states = solved9
    t0 = time.perf_counter()
    opts = SimOptions(t_end=0.25, dt=1 / 200, shedding=False)
    sim = simulate(model, states.copy(), Contingency.of("c", ["gen3"]), opts)
    fd = finite_difference_rocof(sim)
    res = locational_rocof(model, states, Contingency.of("c", ["gen3"]))
    tol = np.maximum(0.10 * np.abs(res.bus_rocof_hz_s), 0.02)
    per_bus_ok = bool(np.all(np.abs(fd - res.bus_rocof_hz_s) <= tol))

    k1 = int(round(sim.t_event / opts.dt))
    k2 = int(round((sim.t_event + 0.1) / opts.dt))
    w = 2 * model.h_sec * model.s_mach
    act = ~np.isnan(sim.omega[k2])
    coi1 = float(sim.omega[k1, act] @ w[act] / w[act].sum())
    coi2 = float(sim.omega[k2, act] @ w[act] / w[act].sum())
    slope = 60.0 * (coi2 - coi1) / (sim.time_s[k2] - sim.time_s[k1])
    ideal = system_rocof(case, 85.0, outaged_ids=["gen3"])
    slope_gap = abs(slope - ideal) / abs(ideal)
    elapsed = time.perf_counter() - t0

    ok = per_bus_ok and slope_gap < 0.05 and elapsed < 5.0
    with capsys.disabled():
        report(2, ok, f"per-bus FD within max(10%, 0.02 Hz/s) "
                      f"(worst err {np.max(np.abs(fd - res.bus_rocof_hz_s)):.4f}); "
                      f"0.1 s slope {slope:.4f} vs inertia arithmetic {ideal:.4f} "
                      f"({100*slope_gap:.2f}%); {elapsed:.2f} s")


def test_criterion_3_steady_state_null(solved9, capsys):
    """No disturbance: zero screen, flat 60 Hz for the full horizon."""
    case, sol, model, states = solved9
    res = locational_rocof(model, states, Contingency.of("null", []))
    screen_null = bool(np.all(np.abs(res.bus_rocof_hz_s) < 1e-9))
    sim = simulate(model, states.copy(), Contingency.of("null", []),
                   SimOptions(t_end=10.0))
    drift = float(np.nanmax(np.abs(sim.omega)))
    flat = bool(np.all(sim.bus_freq_hz == 60.0))
    ok = screen_null and drift < 1e-10 and flat
    with capsys.disabled():
        report(3, ok, f"max |bus rocof| {np.max(np.abs(res.bus_rocof_hz_s)):.2e} "
                      f"Hz/s; 10 s speed drift {drift:.2e} pu; "
                      f"flat 60 Hz: {flat}")


def test_criterion_4_linearity_in_inertia(case9, capsys):
    """Doubling every H halves every acceleration and every bus ROCOF."""
    def screen(c):
        s = solve_powerflow(c)
        m = augment_dynamic(build_ybus(c), c, s)
        st = init_machines(m, c, s)
        return locational_rocof(m, st, Contingency.of("c", ["gen3"]))

    res1 = screen(case9)
    res2 = screen(case9.with_generators(
        [dataclasses.replace(g, h_sec=2 * g.h_sec) for g in case9.generators]))
    act = ~np.isnan(res1.machine_accel)
    accel_ok = np.allclose(res2.machine_accel[act],
                           0.5 * res1.machine_accel[act], rtol=1e-10, atol=0)
    bus_ok = np.allclose(res2.bus_rocof_hz_s, 0.5 * res1.bus_rocof_hz_s,
                         rtol=1e-10, atol=0)
    worst = float(np.max(np.abs(res2.bus_rocof_hz_s / res1.bus_rocof_hz_s - 0.5)))
    ok = bool(accel_ok and bus_ok)
    with capsys.disabled():
        report(4, ok, f"2x inertia halves the screen to 1e-10 relative "
                      f"(worst ratio error {worst:.2e})")


def test_criterion_5_two_solves_and_speed(capsys):
    """Exactly two counted solves and no factorization per scenario; at
    least 10x faster than one Newton power flow on a >=5000-bus case."""
    case = make_grid_case(side=71)
    assert len(case.buses) >= 5000

    t0 = time.perf_counter()
    sol = solve_powerflow(case)
    t_pf = time.perf_counter() - t0

    model = augment_dynamic(build_ybus(case), case, sol)
    states = init_machines(model, case, sol)
    units = [g.id for g in case.generators]
    # warm-up then measure
    locational_rocof(model, states, Contingency.of("w", units[0:2]))
    counts, factors, times = [], [], []
    for k in range(10):
        ctg = Contingency.of(f"c{k}", units[4 * k + 2:4 * k + 5])
        before = model.solve_count
        factors_before = model.factor_count
        t0 = time.perf_counter()
        locational_rocof(model, states, ctg)
        times.append(time.perf_counter() - t0)
        counts.append(model.solve_count - before)
        factors.append(model.factor_count - factors_before)
    t_scenario = float(np.median(times))
    ratio = t_pf / t_scenario
    ok = all(c == 2 for c in counts) and ratio >= 10.0
    ok = ok and all(f == 0 for f in factors)
    with capsys.disabled():
        report(5, ok, f"{len(case.buses)} buses: solve count per scenario "
                      f"{sorted(set(counts))}, factorizations "
                      f"{sorted(set(factors))}; scenario {t_scenario*1e3:.1f} ms "
                      f"vs power flow {t_pf*1e3:.0f} ms ({ratio:.1f}x)")


def test_criterion_6_synthesis_statistics(capsys):
    """10,000 draws per fuel: bounds respected, means on target within 5%
    (mode clamping included), exact average above the taper endpoint, and
    spread non-increasing with unit size."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    details = []
    for fuel, spec in DEFAULT_FUEL_SPECS.items():
        sizes = rng.uniform(1.0, spec.p_max_mw, 10000)
        draws = np.array([sample_h(spec, s, rng) for s in sizes])
        in_bounds = draws.min() >= spec.h_min and draws.max() <= spec.h_max
        mean_ok = abs(draws.mean() - spec.h_avg) <= 0.05 * spec.h_avg
        exact_at_cap = all(sample_h(spec, m, rng) == spec.h_avg
                           for m in (spec.p_max_mw, 2 * spec.p_max_mw))
        edges = np.quantile(sizes, [0, 0.25, 0.5, 0.75, 1.0])
        variances = [float(np.var(draws[(sizes >= lo) & (sizes <= hi)]))
                     for lo, hi in zip(edges[:-1], edges[1:])]
        monotone = all(v2 <= v1 + 1e-12 for v1, v2 in zip(variances,
                                                          variances[1:]))
        ok = ok and in_bounds and mean_ok and exact_at_cap and monotone
        details.append(f"{fuel}: mean {draws.mean():.3f}/{spec.h_avg}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    with capsys.disabled():
        report(6, ok, "; ".join(details) + f"; {elapsed:.1f} s")


def test_criterion_7_ufls_ffr_rules(capsys):
    """Constructed traces exercise the stage thresholds, locality, and the
    strictly-more-than-25-cycles response rule."""
    loads = [Load(id="s1", bus_id=1, p_mw=10, ufls_stage="stage1"),
             Load(id="s2", bus_id=1, p_mw=10, ufls_stage="stage2"),
             Load(id="s3", bus_id=1, p_mw=10, ufls_stage="stage3"),
             Load(id="other_bus", bus_id=2, p_mw=10, ufls_stage="stage1"),
             Load(id="fr", bus_id=1, p_mw=10, ffr=True)]

    f = np.full((500, 2), 60.0)
    f[100:, 0] = 59.25      # stage1 band on bus 1 only
    f[200:, 0] = 58.85      # stage2 band
    f[300:, 0] = 58.45      # stage3 band
    ev = check_ufls(make_trace_result(f), loads)
    stages = [(e.load_id, e.stage) for e in ev]
    staged_ok = stages == [("s1", "stage1"), ("s2", "stage2"), ("s3", "stage3")]
    locality_ok = all(e.bus_id == 1 for e in ev)

    shallow = np.full((200, 2), 60.0)
    shallow[50:, 0] = 59.35
    none_ok = check_ufls(make_trace_result(shallow), loads) == []

    def ffr_events(n_below):
        g = np.full((400, 2), 60.0)
        g[100:100 + n_below, 0] = 59.65
        return check_ffr(make_trace_result(g), loads)

    # 25 cycles at 1/240 s per step = 100 steps; strictly more is required
    ffr_ok = (ffr_events(101) == []                # exactly 25 cycles
              and len(ffr_events(102)) == 1        # one step past: trips
              and len(ffr_events(121)) == 1        # 30 cycles: trips
              and ffr_events(80) == [])            # 20 cycles: no trip
    ok = staged_ok and locality_ok and none_ok and ffr_ok
    with capsys.disabled():
        report(7, ok, f"stage trips {stages}; locality {locality_ok}; "
                      f"strict 25-cycle rule {ffr_ok}")


def test_criterion_8_determinism(fleet_case, tmp_path, capsys):
    """Identical seeds give byte-identical outputs; worker count is
    invisible in the scenario table."""
    sidecars = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        code = cli_main(["synth", "--case", str(CASE9), "--seed", "42",
                         "--out", str(out)])
        assert code == 0
        sidecars.append(out.read_bytes())
    capsys.readouterr()
    synth_ok = sidecars[0] == sidecars[1]

    rng = np.random.default_rng(31)
    base = dispatch_heuristic(fleet_case, 50000.0, 15000.0)
    contingencies = generate_contingencies(base, 6, rng)
    again = generate_contingencies(
        dispatch_heuristic(fleet_case, 50000.0, 15000.0), 6,
        np.random.default_rng(31))
    bank_ok = contingencies == again

    loading = generate_loading_cases(fleet_case, 4, (30000.0, 60000.0),
                                     (12000.0, 20000.0))
    p1, p4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    run_bank(fleet_case, loading, contingencies, mode="locational",
             out_path=p1, workers=1)
    run_bank(fleet_case, loading, contingencies, mode="locational",
             out_path=p4, workers=4)
    workers_ok = p1.read_bytes() == p4.read_bytes()

    ok = synth_ok and bank_ok and workers_ok
    with capsys.disabled():
        report(8, ok, f"synth byte-identical {synth_ok}; bank generation "
                      f"deterministic {bank_ok}; workers 1 vs 4 identical "
                      f"{workers_ok}")
