import dataclasses
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rocofscreen import (PowerFlowDivergence, PowerFlowError, SingularJacobian,
                         accept_solved_voltages, generate_loading_cases,
                         powerflow, scenarios, solve_powerflow, write_case)
from rocofscreen.case_model import Branch, Bus, Generator, GridCase, InputError, Load
from rocofscreen.netdyn import build_ybus
from rocofscreen.powerflow import (bus_injections, effective_kinds,
                                   mismatch_vector)
from conftest import case9_with_bus10, make_grid_case

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


def test_all_slack_islands_solve_in_no_iteration():
    # two islands, each a slack bus: nothing is unknown, so the Newton loop
    # returns at its first mismatch check with an empty mismatch
    case = GridCase(
        buses=(Bus(id=1, kind="slack", v_mag=1.02),
               Bus(id=2, kind="slack", v_mag=0.98, v_ang=0.1)),
        generators=(Generator(id="g1", bus_id=1, s_base_mva=100.0, p_mw=40.0,
                              p_max_mw=100.0, h_sec=3.0, xdp_pu=0.2),
                    Generator(id="g2", bus_id=2, s_base_mva=100.0, p_mw=20.0,
                              p_max_mw=100.0, h_sec=3.0, xdp_pu=0.2)),
        loads=(Load(id="l1", bus_id=1, p_mw=40.0),),
    )
    sol = solve_powerflow(case, max_iter=0)
    assert sol.iterations == 0
    assert sol.max_mismatch_pu == 0.0
    assert list(sol.v_mag) == [1.02, 0.98]
    assert list(sol.v_ang) == [0.0, 0.1]


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


@pytest.mark.parametrize("kwargs, message", [
    (dict(max_iter=-3), "max_iter must be >= 0, got -3"),
    (dict(tol=-1.0), "tol must be positive and finite, got -1.0"),
    (dict(tol=0.0), "tol must be positive and finite, got 0.0"),
    (dict(tol=math.nan), "tol must be positive and finite, got nan"),
    (dict(tol=math.inf), "tol must be positive and finite, got inf"),
])
def test_newton_parameters_are_validated(case9, kwargs, message):
    # a negative limit ran no iteration and failed on an unset mismatch; a
    # tolerance no mismatch can meet ran every iteration and called the
    # converged case divergent
    with pytest.raises(InputError) as err:
        solve_powerflow(case9, **kwargs)
    assert str(err.value) == message


def test_zero_iterations_checks_the_flat_start(case9):
    with pytest.raises(PowerFlowDivergence) as err:
        solve_powerflow(case9, max_iter=0)
    assert err.value.iterations == 0


def test_divergence_stops_once_the_mismatch_outgrows_the_flat_start():
    # past its capability the two-bus case grows its mismatch beyond
    # DIVERGENCE_GROWTH times the flat start's before the 20-iteration
    # limit, and Newton stops at the first iteration that does
    case = two_bus_case(p_load=6000.0)
    flat = np.ones(2, dtype=complex)
    limit = powerflow.DIVERGENCE_GROWTH * float(
        np.max(np.abs(mismatch_vector(case, build_ybus(case), flat))))
    with pytest.raises(PowerFlowDivergence) as err:
        solve_powerflow(case)
    stop = err.value.iterations
    assert 0 < stop < 20
    assert err.value.mismatch > limit
    assert str(err.value).startswith(f"no convergence after {stop} iterations")
    with pytest.raises(PowerFlowDivergence) as err:
        solve_powerflow(case, max_iter=stop - 1)
    assert err.value.iterations == stop - 1
    assert err.value.mismatch <= limit


def test_divergence_stops_at_a_mismatch_that_is_not_finite():
    case = two_bus_case().with_loads([Load(id="l2", bus_id=2, p_mw=math.nan)])
    with pytest.raises(PowerFlowDivergence, match="after 0 iterations") as err:
        solve_powerflow(case)
    assert math.isnan(err.value.mismatch)


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


def reference_newton(case):
    """The Newton loop with the Jacobian rebuilt every iteration from
    sparse dSbus_dV products, sliced per block and stacked with ``sp.bmat``:
    the reference for the fixed-pattern fill, at solve_powerflow's default
    tolerance and iteration limit. Returns the iteration count, the
    Jacobian of each iteration and the solved voltages."""
    tol, max_iter = 1e-8, 20
    ybus = build_ybus(case)
    kinds = effective_kinds(case)
    pv = np.flatnonzero(kinds == "pv")
    pq = np.flatnonzero(kinds == "pq")
    pvpq = np.r_[pv, pq]
    sbus = bus_injections(case)
    vm = np.array([b.v_mag if k in ("pv", "slack") else 1.0
                   for b, k in zip(case.buses, kinds)])
    va = np.array([b.v_ang if k == "slack" else 0.0
                   for b, k in zip(case.buses, kinds)])
    jacobians = []
    for it in range(max_iter + 1):
        v = vm * np.exp(1j * va)
        mis = v * np.conj(ybus @ v) - sbus
        f = np.r_[mis[pvpq].real, mis[pq].imag]
        if np.max(np.abs(f)) <= tol:
            return it, jacobians, v
        ibus = ybus @ v
        d_v = sp.diags(v)
        d_i = sp.diags(ibus)
        d_vn = sp.diags(v / np.abs(v))
        ds_dva = 1j * d_v @ (d_i - ybus @ d_v).conjugate()
        ds_dvm = d_v @ (ybus @ d_vn).conjugate() + d_i.conjugate() @ d_vn
        j11 = ds_dva[pvpq][:, pvpq].real
        j12 = ds_dvm[pvpq][:, pq].real
        j21 = ds_dva[pq][:, pvpq].imag
        j22 = ds_dvm[pq][:, pq].imag
        jac = sp.bmat([[j11, j12], [j21, j22]], format="csc")
        jacobians.append(jac)
        dx = spla.splu(jac).solve(-f)
        va[pvpq] += dx[:len(pvpq)]
        vm[pq] += dx[len(pvpq):]
    raise PowerFlowDivergence(max_iter, float(np.max(np.abs(f))))


def assert_newton_matches_reference(case):
    """solve_powerflow against reference_newton: the same iteration count,
    per iteration the same Jacobian pattern and entries within 1e-12 x
    max(1, |J|), and the same voltages within 1e-12 pu. The first
    factorization orders the Jacobian; the later ones factor it relabelled
    by that ordering, in natural order, and are mapped back here."""
    factored = []
    perm = []

    def spy(jac, **kwargs):
        lu = spla.splu(jac, **kwargs)
        if not perm:
            assert kwargs["permc_spec"] == "MMD_AT_PLUS_A"
            perm.append(lu.perm_c)
            factored.append(jac.copy())
        else:   # entry (r, c) of the Jacobian sits at (perm[r], perm[c])
            assert kwargs["permc_spec"] == "NATURAL"
            factored.append(jac[perm[0]][:, perm[0]])
        return lu

    with mock.patch.object(powerflow, "spla", SimpleNamespace(splu=spy)):
        sol = solve_powerflow(case)
    iterations, reference, v_ref = reference_newton(case)
    assert sol.iterations == iterations == len(factored) == len(reference)
    for new, old in zip(factored, reference):
        assert_same_jacobian(new, old)
    assert np.max(np.abs(sol.v - v_ref)) <= 1e-12


def assert_same_jacobian(new, old):
    """The same pattern, and entries within 1e-12 x max(1, |J|)."""
    new.sort_indices()
    old.sort_indices()
    assert np.array_equal(new.indptr, old.indptr)
    assert np.array_equal(new.indices, old.indices)
    assert np.all(np.abs(new.data - old.data)
                  <= 1e-12 * np.maximum(1.0, np.abs(old.data)))


def test_fixed_pattern_matches_rebuilt_jacobian(case9, fleet_case):
    assert_newton_matches_reference(case9)
    assert_newton_matches_reference(make_grid_case(25))
    loading = generate_loading_cases(fleet_case, 25, (15000.0, 75000.0),
                                     (10000.0, 30000.0))
    assert len(loading) == 25
    for lc in loading:
        assert_newton_matches_reference(
            scenarios.apply_loading_case(fleet_case, lc))


def isolated_bus_case(cancelling_branches=False):
    """A slack-pq pair and a pq bus 7 that nothing ties electrically, so the
    Newton Jacobian is singular. Bus 7 has no branch, or, with
    ``cancelling_branches``, two parallel branches to bus 2 whose series
    admittances cancel exactly: one island to the case validator, but no
    admittance at bus 7."""
    ties = (Branch(2, 7, 0.0, 0.1), Branch(2, 7, 0.0, -0.1)) if cancelling_branches else ()
    return GridCase(
        buses=(Bus(id=1, kind="slack", v_mag=1.0), Bus(id=2, kind="pq"),
               Bus(id=7, kind="pq")),
        generators=(Generator(id="g1", bus_id=1, s_base_mva=200.0,
                              p_mw=55.0, p_max_mw=500.0, h_sec=3.0,
                              xdp_pu=0.2),),
        loads=(Load(id="l2", bus_id=2, p_mw=50.0),
               Load(id="l7", bus_id=7, p_mw=5.0)),
        branches=(Branch(1, 2, 0.0, 0.1),) + ties,
    )


@pytest.mark.parametrize("cancelling_branches", [False, True])
def test_singular_jacobian_names_the_isolated_bus(cancelling_branches):
    with pytest.raises(SingularJacobian) as err:
        solve_powerflow(isolated_bus_case(cancelling_branches))
    assert err.value.bus_id == 7


@pytest.mark.parametrize("rel", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("ties", ["weak", "capacitor"])
def test_newton_steps_solve_near_singular_jacobians(ties, rel):
    # "weak": bus 10 hangs on about 10 rel pu, a near-singular Jacobian;
    # "capacitor": bus 10's Jacobian diagonal starts near 10 rel pu beside
    # strong ties, which a diagonal pivot taken at any size gets wrong
    residuals = []

    def splu(jac, **kwargs):
        lu = spla.splu(jac, **kwargs)

        def solve(rhs):
            dx = lu.solve(rhs)
            residuals.append(np.linalg.norm(jac @ dx - rhs) / np.linalg.norm(rhs))
            return dx
        return SimpleNamespace(solve=solve, perm_c=lu.perm_c)

    with mock.patch.object(powerflow, "spla", SimpleNamespace(splu=splu)):
        sol = solve_powerflow(case9_with_bus10(ties, rel))
    assert sol.iterations == len(residuals) > 0
    assert max(residuals) <= 1e-9


def test_singular_jacobian_after_the_first_iteration_reads_its_jacobian(case9):
    # a factorization that fails at iteration 1 reports the suspect bus from
    # that iteration's Jacobian, in the unknowns' own order, not from the
    # relabelled matrix or iteration 0's values
    calls, seen = [], []

    def splu(jac, **kwargs):
        calls.append(kwargs["permc_spec"])
        if len(calls) == 2:
            raise RuntimeError("Factor is exactly singular")
        return spla.splu(jac, **kwargs)

    def suspect(case, jac, pvpq, pq):
        seen.append(jac.copy())
        return 7

    with mock.patch.object(powerflow, "spla", SimpleNamespace(splu=splu)), \
            mock.patch.object(powerflow, "_suspect_bus", suspect):
        with pytest.raises(SingularJacobian, match="suspect bus 7"):
            solve_powerflow(case9)
    assert calls == ["MMD_AT_PLUS_A", "NATURAL"]
    assert_same_jacobian(seen[0], reference_newton(case9)[1][1])


def test_singular_jacobian_exits_2_naming_the_bus(tmp_path, capsys):
    # a case without a branch to bus 7 fails validation (an island with no
    # slack, exit 1), so the command runs on the cancelling-branch variant
    from rocofscreen.cli import main
    path = tmp_path / "isolated.json"
    write_case(isolated_bus_case(cancelling_branches=True), path)
    assert main(["powerflow", "--case", str(path)]) == 2
    assert "suspect bus 7" in capsys.readouterr().err
