"""The screen against an extended-precision oracle.

``oracle_rocof`` takes the model's and the states' arrays as exact binary
numbers and screens the loss in mpmath at 40 significant digits: the dense
matrix y_dyn plus the outage diagonal (the lost machines' -y_norton), solved
exactly for the post-disturbance voltages, the machines' accelerations from
them, and solved again for the voltage second derivatives. Its bus ROCOF is
the screen's to about 1e-35 of its size, so the library's error against it
is the library's own rounding: a single screen, which adds up the responses
the model keeps (NetworkModel.responses), and a batch, which makes solve 2.
"""

import mpmath
import numpy as np

from rocofscreen import Contingency, build_model, locational_rocof, locational_rocof_batch
from rocofscreen.scenarios import dispatch_heuristic, generate_contingencies

DIGITS = 40


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


def errors(rocof, exact) -> np.ndarray:
    with mpmath.workdps(DIGITS):
        return np.array([float(abs(mpmath.mpf(float(r)) - e))
                         for r, e in zip(rocof, exact)])


def single_and_batch_errors(model, states, contingencies):
    """Each contingency's largest bus ROCOF error against the oracle, singly
    (each screen warm: its buses screened before) and in one batch."""
    for ctg in contingencies:
        locational_rocof(model, states, ctg)
    batch = locational_rocof_batch(model, states, contingencies)
    single, batched = [], []
    for j, ctg in enumerate(contingencies):
        exact = oracle_rocof(model, states, ctg.outaged_generator_ids)
        single.append(errors(locational_rocof(model, states, ctg).bus_rocof_hz_s,
                             exact).max())
        batched.append(errors(batch.bus_rocof_hz_s[:, j], exact).max())
    return np.array(single), np.array(batched)


def assert_near_oracle(single, batched):
    # the single screen's error is its rounding, well inside the screen's
    # 1e-9 Hz/s, and of the batch's order
    assert single.max() < 1e-12
    assert single.max() <= 10 * batched.max()


NINE_BUS_LOSSES = [["gen1"], ["gen2"], ["gen3"], ["gen1", "gen2"],
                   ["gen1", "gen3"], ["gen2", "gen3"]]


def test_nine_bus_losses_near_oracle(case9):
    _, model, states = build_model(case9)
    assert_near_oracle(*single_and_batch_errors(model, states, [
        Contingency.of(f"c{k}", g) for k, g in enumerate(NINE_BUS_LOSSES)]))


def test_fleet_contingencies_near_oracle(fleet_case):
    # plants of two to four units: a bus sums up to four lost machines
    base = dispatch_heuristic(fleet_case, 50000.0, 15000.0)
    _, model, states = build_model(base)
    assert_near_oracle(*single_and_batch_errors(
        model, states, generate_contingencies(base, 6, np.random.default_rng(1))))
