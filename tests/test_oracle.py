"""The screen against extended-precision oracles.

``oracle_rocof`` takes the model's and the states' arrays as exact binary
numbers and screens the loss in mpmath at 40 significant digits: the dense
matrix y_dyn plus the outage diagonal (the lost machines' -y_norton), solved
exactly for the post-disturbance voltages, the machines' accelerations from
them, and solved again for the voltage second derivatives. Its bus ROCOF is
the screen's to about 1e-35 of its size, so the library's error against it
is the library's own rounding: a single screen, which adds up the responses
the model keeps (NetworkModel.responses), and a batch, which makes solve 2.

A dense mpmath solve is out of reach at grid scale, so ``refined_rocof``
evaluates the same equations in long double (eps 1.1e-19), solving each
system by mixed-precision iterative refinement: SuperLU's solution in
double, corrected by residuals formed in ``np.clongdouble`` (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002, ch. 12).
It is checked against ``oracle_rocof`` where both run.
"""

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rocofscreen import (Contingency, build_model, load_case9, locational_rocof,
                         locational_rocof_batch)
from rocofscreen.powerflow import SUPERLU_OPTIONS
from rocofscreen.scenarios import dispatch_heuristic, generate_contingencies

from conftest import make_fleet_case

DIGITS = 40
REFINEMENT_STEPS = 3


def mp_complex(z) -> mpmath.mpc:
    return mpmath.mpc(float(z.real), float(z.imag))


def oracle_rocof(model, states, gen_ids) -> list:
    """Bus ROCOF, Hz/s, for the loss of gen_ids as mpmath numbers; the loss
    must leave every island a machine."""
    lost = set(model.machine_positions(gen_ids).tolist())
    assert not model.dead_island_mask(np.array(
        [p not in lost for p in range(len(model.machine_ids))])).any()
    n = model.n_bus
    with mpmath.workdps(DIGITS):
        y = mpmath.zeros(n, n)
        dense = model.y_dyn.toarray()
        for i, j in zip(*np.nonzero(dense)):
            y[int(i), int(j)] = mp_complex(dense[i, j])
        for p in lost:
            b = int(model.machine_bus[p])
            y[b, b] -= mp_complex(model.norton_y[p])
        active = [p for p in range(len(model.machine_ids)) if p not in lost]
        injection = mpmath.zeros(n, 1)
        for p in active:
            injection[int(model.machine_bus[p])] += mp_complex(states.currents[p])
        v = mpmath.lu_solve(y, injection)
        v_ddot_rhs = mpmath.zeros(n, 1)
        for p in active:
            vb = v[int(model.machine_bus[p])]
            stator = mp_complex(states.currents[p]) - mp_complex(model.norton_y[p]) * vb
            t_e = mpmath.re(vb * mpmath.conj(stator)) * model.s_base / mpmath.mpf(
                float(model.s_mach[p]))
            accel = (mpmath.mpf(float(states.t_m[p])) - t_e) / (
                2 * mpmath.mpf(float(model.h_sec[p])))
            v_ddot_rhs[int(model.machine_bus[p])] += mp_complex(states.di_ddelta[p]) * accel
        v_ddot = mpmath.lu_solve(y, v_ddot_rhs)
        return [model.f_base * (mpmath.re(v[i]) * mpmath.im(v_ddot[i])
                                - mpmath.im(v[i]) * mpmath.re(v_ddot[i])) / abs(v[i]) ** 2
                for i in range(n)]


def _refined_solve(y, lu, rhs):
    """y x = rhs in long double: lu (y rounded to double) solves, then
    REFINEMENT_STEPS corrections by the residual rhs - y x in long double."""
    x = lu.solve(rhs.astype(complex)).astype(np.clongdouble)
    for _ in range(REFINEMENT_STEPS):
        x += lu.solve((rhs - y @ x).astype(complex))
    return x


def refined_rocof(model, states, gen_ids) -> np.ndarray:
    """Bus ROCOF, Hz/s, for the loss of gen_ids as long doubles: the
    equations of oracle_rocof, with y_dyn plus the outage diagonal solved by
    iterative refinement; the loss must leave every island a machine."""
    lost = model.machine_positions(gen_ids)
    active = np.ones(len(model.machine_ids), dtype=bool)
    active[lost] = False
    assert not model.dead_island_mask(active).any()
    n, bus = model.n_bus, model.machine_bus
    outage = np.zeros(n, dtype=np.clongdouble)
    np.add.at(outage, bus[lost], -model.norton_y[lost].astype(np.clongdouble))
    y = (model.y_dyn.astype(np.clongdouble)
         + sp.csc_matrix((outage, np.arange(n), np.arange(n + 1)), shape=(n, n))).tocsc()
    lu = spla.splu(y.astype(complex), **SUPERLU_OPTIONS)
    currents = states.currents[active].astype(np.clongdouble)
    injection = np.zeros(n, dtype=np.clongdouble)
    np.add.at(injection, bus[active], currents)
    v = _refined_solve(y, lu, injection)
    vb = v[bus[active]]
    stator = currents - model.norton_y[active].astype(np.clongdouble) * vb
    t_e = (vb * np.conj(stator)).real * np.longdouble(model.s_base) / model.s_mach[active]
    accel = (states.t_m[active] - t_e) / (2 * model.h_sec[active].astype(np.longdouble))
    v_ddot_rhs = np.zeros(n, dtype=np.clongdouble)
    np.add.at(v_ddot_rhs, bus[active], states.di_ddelta[active] * accel)
    v_ddot = _refined_solve(y, lu, v_ddot_rhs)
    return np.longdouble(model.f_base) * (v.real * v_ddot.imag - v.imag * v_ddot.real) / (
        v.real ** 2 + v.imag ** 2)


def errors(rocof, exact) -> np.ndarray:
    """|rocof - exact| at each bus, for exact as mpmath numbers or long
    doubles."""
    if isinstance(exact, np.ndarray):
        return np.abs(np.asarray(rocof, dtype=np.longdouble) - exact).astype(float)
    with mpmath.workdps(DIGITS):
        return np.array([float(abs(mpmath.mpf(float(r)) - e))
                         for r, e in zip(rocof, exact)])


def bus_errors(model, states, contingencies, oracle):
    """The single and the batch screen's bus ROCOF errors against the
    oracle, one row per contingency; each single screen warm (its buses
    screened before), and each oracle value computed once."""
    for ctg in contingencies:
        locational_rocof(model, states, ctg)
    batch = locational_rocof_batch(model, states, contingencies)
    single, batched = [], []
    for j, ctg in enumerate(contingencies):
        exact = oracle(model, states, ctg.outaged_generator_ids)
        single.append(errors(locational_rocof(model, states, ctg).bus_rocof_hz_s, exact))
        batched.append(errors(batch.bus_rocof_hz_s[:, j], exact))
    return np.array(single), np.array(batched)


def assert_near_oracle(single, batched):
    # the single screen's error is its rounding, well inside the screen's
    # 1e-9 Hz/s, and of the batch's order
    assert single.max() < 1e-12
    assert single.max() <= 10 * batched.max()


NINE_BUS_LOSSES = [["gen1"], ["gen2"], ["gen3"], ["gen1", "gen2"],
                   ["gen1", "gen3"], ["gen2", "gen3"]]


def nine_bus_set():
    """The 9-bus model and states, and every loss of one or two units."""
    _, model, states = build_model(load_case9())
    return model, states, [Contingency.of(f"c{k}", g) for k, g in enumerate(NINE_BUS_LOSSES)]


def fleet_set():
    """The fleet's base dispatch and six of its contingencies (seed 1):
    plants of two to four units, so a bus sums up to four lost machines."""
    base = dispatch_heuristic(make_fleet_case(), 50000.0, 15000.0)
    _, model, states = build_model(base)
    return model, states, generate_contingencies(base, 6, np.random.default_rng(1))


def grid_set(grid):
    """The grid's model and states, and four losses of units at 1, 2, 3 and
    4 distinct plant buses (a plant's two units share its bus)."""
    _, model, states = grid
    units = model.machine_ids
    return model, states, [Contingency.of(f"k{len(p)}", [units[2 * i + 1] for i in p])
                           for p in ([3], [5, 60], [7, 90, 150], [11, 120, 200, 280])]


@pytest.fixture(scope="module")
def fleet_exact():
    """The fleet set and the mpmath oracle of each of its contingencies."""
    model, states, ctgs = fleet_set()
    return model, states, ctgs, {c.id: oracle_rocof(model, states, c.outaged_generator_ids)
                                 for c in ctgs}


def test_nine_bus_losses_near_oracle():
    assert_near_oracle(*bus_errors(*nine_bus_set(), oracle_rocof))


def test_fleet_contingencies_near_oracle(fleet_exact):
    model, states, ctgs, exact = fleet_exact
    by_units = {c.outaged_generator_ids: exact[c.id] for c in ctgs}
    assert_near_oracle(*bus_errors(model, states, ctgs,
                                   lambda m, s, units: by_units[units]))


@pytest.mark.parametrize("network", ["case9", "fleet"])
def test_refined_oracle_matches_mpmath(network, fleet_exact):
    # the refined oracle lies within 6e-18 Hz/s of mpmath's, far below the
    # library's errors (up to 1.5e-14), so it ranks the screen at grid
    # scale as mpmath does here
    model, states, ctgs, exact = (
        (*nine_bus_set(), None) if network == "case9" else fleet_exact)
    for ctg in ctgs:
        refined = refined_rocof(model, states, ctg.outaged_generator_ids)
        hi = refined.astype(float)
        lo = (refined - hi).astype(float)
        with mpmath.workdps(DIGITS):
            truth = exact[ctg.id] if exact else oracle_rocof(
                model, states, ctg.outaged_generator_ids)
            gap = max(float(abs(mpmath.mpf(float(h)) + mpmath.mpf(float(l)) - e))
                      for h, l, e in zip(hi, lo, truth))
        assert gap < 1e-16


def test_grid_losses_near_refined_oracle(grid71):
    assert_near_oracle(*bus_errors(*grid_set(grid71), refined_rocof))
