import dataclasses
import math

import numpy as np
import pytest

from rocofscreen import (PowerFlowDivergence, PowerFlowError,
                         accept_solved_voltages, solve_powerflow)
from rocofscreen.case_model import Branch, Bus, Generator, GridCase, Load
from rocofscreen.netdyn import build_ybus
from rocofscreen.powerflow import mismatch_vector

# published solution of the classical 9-bus benchmark (magnitudes pu,
# angles degrees), used as an independent cross-check
WSCC9_SOLUTION = {
    1: (1.040, 0.0), 2: (1.025, 9.28), 3: (1.025, 4.665),
    4: (1.026, -2.217), 5: (0.996, -3.989), 6: (1.013, -3.687),
    7: (1.026, 3.720), 8: (1.016, 0.728), 9: (1.032, 1.967),
}


def two_bus_case(p_load=100.0, x=0.1):
    return GridCase(
        buses=(Bus(id=1, kind="slack", v_mag=1.0), Bus(id=2, kind="pq")),
        generators=(Generator(id="g1", bus_id=1, s_base_mva=200.0,
                              p_mw=p_load, p_max_mw=500.0, h_sec=3.0,
                              xdp_pu=0.2),),
        loads=(Load(id="l2", bus_id=2, p_mw=p_load),),
        branches=(Branch(1, 2, 0.0, x),),
    )


def test_single_slack_bus_case():
    case = GridCase(
        buses=(Bus(id=1, kind="slack", v_mag=1.03),),
        generators=(Generator(id="g1", bus_id=1, s_base_mva=100.0,
                              p_max_mw=100.0, h_sec=3.0, xdp_pu=0.2),),
    )
    sol = solve_powerflow(case)
    assert sol.iterations == 0
    assert sol.v_mag[0] == 1.03
    assert sol.v_ang[0] == 0.0


def test_two_bus_analytic():
    # lossless line, pure-P load: V2 = a + jb with b = -P*x and
    # a the high root of a**2 - a + (P*x)**2 = 0
    p, x = 1.0, 0.1
    a = (1.0 + math.sqrt(1.0 - 4.0 * (p * x) ** 2)) / 2.0
    b = -p * x
    sol = solve_powerflow(two_bus_case(p * 100.0, x), tol=1e-12)
    assert sol.v_mag[1] == pytest.approx(math.hypot(a, b), rel=1e-9)
    assert sol.v_ang[1] == pytest.approx(math.atan2(b, a), rel=1e-9)
    assert sol.max_mismatch_pu <= 1e-12


def test_nine_bus_matches_published_solution(case9):
    sol = solve_powerflow(case9)
    assert sol.iterations <= 10
    assert sol.max_mismatch_pu < 1e-8
    for bid, (vm, va_deg) in WSCC9_SOLUTION.items():
        k = sol.bus_ids.index(bid)
        assert sol.v_mag[k] == pytest.approx(vm, abs=1.5e-3)
        assert math.degrees(sol.v_ang[k]) == pytest.approx(va_deg, abs=0.05)


def test_power_balance_at_solution(case9):
    sol = solve_powerflow(case9, tol=1e-10)
    ybus = build_ybus(case9)
    f = mismatch_vector(case9, ybus, sol.v)
    assert np.max(np.abs(f)) <= 1e-10
    assert np.array_equal(sol.ybus.toarray(), ybus.toarray())


def test_bus_order_permutation_invariance(case9):
    tol = 1e-8
    base = solve_powerflow(case9, tol=tol)
    rng = np.random.default_rng(11)
    perm = rng.permutation(len(case9.buses))
    shuffled = case9.with_buses([case9.buses[i] for i in perm])
    sol = solve_powerflow(shuffled, tol=tol)
    for bid in (b.id for b in case9.buses):
        i = base.bus_ids.index(bid)
        j = sol.bus_ids.index(bid)
        assert abs(sol.v_mag[j] - base.v_mag[i]) <= 10 * tol
        assert abs(sol.v_ang[j] - base.v_ang[i]) <= 10 * tol


def test_divergence_reports_iterations():
    case = two_bus_case(p_load=6000.0)  # far beyond the line's capability
    with pytest.raises(PowerFlowDivergence) as err:
        solve_powerflow(case, max_iter=15)
    assert err.value.iterations == 15


def test_fleet_case_converges(fleet_case):
    sol = solve_powerflow(fleet_case)
    assert sol.max_mismatch_pu <= 1e-8
    assert sol.iterations <= 10
    assert sol.v_mag.min() > 0.9


def test_accept_solved_is_idempotent(case9, tmp_path):
    sol = solve_powerflow(case9)
    accepted = accept_solved_voltages(case9)  # bundle stores solved voltages
    assert np.allclose(accepted.v_mag, sol.v_mag, atol=1e-9)
    assert np.array_equal(accepted.ybus.toarray(), build_ybus(case9).toarray())
    assert accepted.iterations == 0
    assert accepted.max_mismatch_pu <= 1e-4


def test_accept_rejects_flat_voltages(case9):
    flat = case9.with_buses(
        [dataclasses.replace(b, v_mag=1.0, v_ang=0.0) for b in case9.buses])
    with pytest.raises(PowerFlowError, match="inconsistent"):
        accept_solved_voltages(flat)


def test_accept_boundary_is_inclusive(case9):
    # nudge one PQ angle so the stored point has a small nonzero mismatch
    bump = case9.with_buses(
        [dataclasses.replace(b, v_ang=b.v_ang + 5e-6) if b.id == 5 else b
         for b in case9.buses])
    f = mismatch_vector(bump, build_ybus(bump),
                        np.array([b.v_mag for b in bump.buses])
                        * np.exp(1j * np.array([b.v_ang for b in bump.buses])))
    norm = float(np.max(np.abs(f)))
    assert 0 < norm <= 1e-4          # representative of a 9e-5-grade import
    sol = accept_solved_voltages(bump, tol=norm)   # inclusive at equality
    assert sol.max_mismatch_pu == pytest.approx(norm)
    with pytest.raises(PowerFlowError):
        accept_solved_voltages(bump, tol=norm * 0.99)
