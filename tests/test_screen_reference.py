"""The screen against a frozen copy of its n-wide implementation.

``reference_screen`` is the screen as it was before it built its outaged
(contingency, bus) pairs from the lost machines: it scatters the outaged
machines' -y_norton and Norton currents into a 2m x n array with
``NetworkModel.to_buses``, scans that with ``np.nonzero`` and gathers Z's
rows for every contingency, also a single one. As a batch the library must
give the same bytes: bus ROCOF, machine accelerations, post-disturbance
voltages, MW lost and system ROCOF, and the same undefined islands, errors
and solve counts, for a batch of one too. Singly it adds up the acceleration
responses the model keeps (NetworkModel.responses) instead of making
solve 2, so its bus ROCOF agrees within 1e-9 Hz/s; it sums the stored rows
slot by slot in elementwise multiply-adds where the reference contracts
them with einsum, so its post-disturbance voltages and machine
accelerations agree within 1e-13 (pu, pu/s), and MW lost and system ROCOF
keep their bytes.
"""

import dataclasses
import logging

import numpy as np
import pytest

from rocofscreen import (Contingency, SingularOutageError, ZeroInertiaError,
                         build_model, locational_rocof, locational_rocof_batch)
from rocofscreen.netdyn import UnknownIdError, electrical_torque, norton_currents
from rocofscreen.rocof import angle_second_derivative, injection_derivatives
from rocofscreen.scenarios import dispatch_heuristic, generate_contingencies

from conftest import case9_with_bus10
from test_rocof import refactor_reference, two_island_case

log = logging.getLogger("rocofscreen.rocof")


def reference_screen(model, states, contingencies, single=False):
    """The batch screen: (MW lost, system ROCOF, bus ROCOF, machine
    accelerations, post-disturbance voltages, undefined islands, errors,
    solves). Arrays hold one row per contingency, machines or buses on the
    last axis; with single=True (one contingency) the row axis is left out
    of the per-machine and per-bus arithmetic, which is then done on
    vectors, and the stacked parts see one row."""
    solves_before = model.solve_count
    n, m, nm = model.n_bus, len(contingencies), len(model.machine_ids)
    ids = [c.id for c in contingencies]
    errors: list[Exception | None] = [None] * m
    active = np.ones((nm,) if single else (m, nm), dtype=bool)
    active_rows = active.reshape(m, nm)
    for j, ctg in enumerate(contingencies):
        try:
            active_rows[j, model.machine_positions(ctg.outaged_generator_ids)] = False
        except KeyError as exc:
            errors[j] = exc

    dead = model.dead_island_mask(active)
    dead_rows = dead.reshape(m, n)
    any_dead = dead.any()
    undefined_islands: list[list[list[int]]] = [[] for _ in range(m)]
    for j in np.flatnonzero(dead_rows.any(axis=1)) if any_dead else ():
        undefined_islands[j] = [
            [model.bus_ids[i] for i in np.flatnonzero(model.islands == isl)]
            for isl in sorted(set(model.islands[dead_rows[j]].tolist()))]
        log.warning("contingency %s leaves %d island(s) without a machine; "
                    "ROCOF reported as undefined there",
                    ids[j], len(undefined_islands[j]))

    # contingency j adds d to the diagonal at its buses b, the sum of the
    # -y_norton of its outaged machines there (live islands only: a dead
    # island carries no injection and is decoupled, so it solves to zero).
    # That is the rank-k update E D E^T with E the unit columns at b. By
    # Woodbury, (Y + E D E^T)^-1 r = x - Z C^-1 D x[b] with x = Y^-1 r,
    # Z = Y^-1 E and C = I + D Z[b]. Z has one column per bus of U, the
    # union of all b. Pairs (j, b) run by contingency, then bus; slot is b's
    # place among the k_j buses of j, and blocks are padded to the largest k.
    # Solve 1's right-hand side would be I_all - E i, with i the outaged
    # machines' Norton currents at b (summed in the same pass as d). Its x
    # is v_bus - Z i, v_bus = Y^-1 I_all being kept on the states, so
    # V = v_bus - Z w with w = i + C^-1 D x[b] = C^-1 (i + D v_bus[b]), and
    # solve 1 is [e_U] alone.
    currents = norton_currents(states.e_prime / model.xdp_sys, states.delta)
    lost = ~active
    if any_dead:
        lost &= ~dead.T[model.machine_bus].T
    d_bus, i_bus = model.to_buses(np.where(
        lost.reshape(m, nm), np.array((-model.norton_y, currents))[:, None],
        0.0).reshape(2 * m, nm)).reshape(2, m, n)
    row, bus = np.nonzero(d_bus)
    k = np.bincount(row, minlength=m)
    k_max = max(k.tolist(), default=0)
    slot = np.arange(row.size) - np.searchsorted(row, row)
    union = np.flatnonzero(np.bincount(bus, minlength=n))
    bus_of = np.zeros((m, k_max), dtype=np.int64)        # padded with bus 0
    bus_of[row, slot] = bus
    d = d_bus[row, bus]
    d_of = np.zeros((m, k_max), dtype=complex)            # padded with 0
    d_of[row, slot] = d
    # the right-hand sides [D | i + D v_bus[b]] of the capacitance solve
    d_rhs = np.zeros((m, k_max, k_max + 1), dtype=complex)
    d_rhs[row, slot, slot] = d
    d_rhs[row, slot, k_max] = i_bus[row, bus] + d * states.v_bus[bus]
    z_of = np.searchsorted(union, bus_of)

    z = model.unit_columns(union)           # solve 1, for buses not yet cached
    # a padded row of C is a unit row (d = 0), so the padding solves to
    # zero: C^-1 D vanishes outside j's k_j x k_j block, and C is singular
    # only if that block is. z_j[j, s] is the column of Z at j's slot s (a
    # padded slot reads U's first column, with a zero coefficient).
    cap = np.eye(k_max) + d_of[:, :, None] * z[z_of[:, None, :], bus_of[:, :, None]]
    try:
        c_inv = np.linalg.solve(cap, d_rhs)
    except np.linalg.LinAlgError:
        # find the singular ones; the others solve exactly as in the stack
        c_inv = np.zeros_like(d_rhs)
        for j in range(m):
            try:
                c_inv[j] = np.linalg.solve(cap[j], d_rhs[j])
            except np.linalg.LinAlgError as exc:
                if errors[j] is None:
                    errors[j] = SingularOutageError(
                        f"contingency {ids[j]}: removing the outaged machines "
                        f"leaves a singular network at buses "
                        f"{[model.bus_ids[b] for b in bus_of[j, :k[j]]]}")
                    errors[j].__cause__ = exc
    c_inv_d, w = c_inv[:, :, :k_max], c_inv[:, :, k_max]
    z_j = z[z_of]

    # einsum, not a matrix product: BLAS threads its n-long products, which
    # costs more than the k_j x n work itself
    v_post = states.v_bus - np.einsum("js,jsn->jn", w, z_j)
    if any_dead:
        v_post[dead_rows] = 0.0
    v_post = v_post.reshape(dead.shape)

    vb_post = v_post.T[model.machine_bus].T
    accel = (states.t_m - electrical_torque(model, currents, vb_post)) / (
        2.0 * model.h_sec)
    wdot = np.where(active, accel, np.nan)
    # an outaged machine has zero acceleration here, so no injection
    idd = model.to_buses(injection_derivatives(currents, states.delta,
                                               np.where(active, accel, 0.0)))
    v_ddot = model.factorize().solve(idd.reshape(m, n).T).T    # solve 2
    coef = np.einsum("jst,jt->js", c_inv_d, v_ddot[np.arange(m)[:, None], bus_of])
    v_ddot = v_ddot - np.einsum("js,jsn->jn", coef, z_j)
    if any_dead:
        v_ddot[dead_rows] = 0.0
    v_ddot = v_ddot.reshape(dead.shape)

    ok = np.abs(v_post) > 1e-9
    if any_dead:
        ok &= ~dead
    rocof_pu = np.full(dead.shape, np.nan)
    rocof_pu[ok] = angle_second_derivative(v_post[ok], v_ddot[ok])
    bus_rocof = model.f_base * rocof_pu

    # a running sum adds the outaged machines in machine order
    mw_lost = np.where(active, 0.0, states.t_m * model.s_mach).cumsum(axis=-1)[..., -1]
    remaining_mws = np.where(active, model.h_sec * model.s_mach, 0.0).sum(axis=-1)
    lossy, inertia_left = mw_lost != 0.0, remaining_mws > 0
    for j in () if inertia_left.all() else np.flatnonzero(lossy & ~inertia_left):
        errors[j] = errors[j] or ZeroInertiaError(
            f"contingency {ids[j]} removes all synchronous inertia")
    sys_rocof = np.divide(-model.f_base * mw_lost, 2.0 * remaining_mws,
                          out=np.zeros(mw_lost.shape), where=lossy & inertia_left)

    failed = [j for j, e in enumerate(errors) if e is not None]
    for block in (mw_lost, sys_rocof, bus_rocof, wdot, v_post) if failed else ():
        block.reshape(m, -1)[failed] = np.nan
    return (mw_lost, sys_rocof, bus_rocof, wdot, v_post, undefined_islands,
            errors, model.solve_count - solves_before)


def cold_copy(model):
    """The model as built: no factorization and no stored unit columns, so
    its first screens make solve 1."""
    return dataclasses.replace(model, solve_count=0, factor_count=0, _lu=None,
                               _unit={})


def same_bytes(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def same_error(got, expected):
    assert type(got) is type(expected) and str(got) == str(expected)


def close_rocof(got, expected):
    """Bus ROCOF within 1e-9 Hz/s, NaN at the same buses."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


def close_values(got, expected):
    """Within 1e-13, NaN at the same places: a single screen's
    post-disturbance voltages (pu) and machine accelerations (pu/s), which
    round otherwise than the reference's einsum (by up to 3.2e-16 pu and
    1.6e-16 pu/s on the 9-bus, fleet and grid cases)."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)


def off_equilibrium(states):
    """The states with every mechanical torque moved off its electrical
    one, so the screen's responses carry the residual's own term R0."""
    return dataclasses.replace(states, t_m=states.t_m * (
        1.0 + 0.05 * np.cos(np.arange(len(states.t_m)))))


def single_solves(model, states, ref_solves, first):
    """A single screen's solves, given reference_screen's on a model with
    the same history: the unit columns and responses of the buses new to
    the model when the reference makes solve 1 with its solve 2, else
    none; but the first screen of states off equilibrium solves R0's column
    even without a new bus."""
    residual = (states.t_m != electrical_torque(
        model, states.currents, states.v_bus[model.machine_bus])).any()
    return 2 if ref_solves == 2 else int(first and bool(residual))


def assert_same_screens(model, states, contingencies):
    """Each contingency singly and as a batch of one, in order, then all of
    them as one batch, by the library and by reference_screen, each on its
    own cold copy of the model. A batch, of one too, gives the same bytes,
    islands, errors and solve counts; singly, bus ROCOF within 1e-9 Hz/s,
    voltages and accelerations within close_values' 1e-13 and the solves
    of single_solves."""
    lib, ref = cold_copy(model), cold_copy(model)
    lib_one, ref_one = cold_copy(model), cold_copy(model)
    for k, ctg in enumerate(contingencies):
        expected = reference_screen(ref_one, states, [ctg])
        assert_same_batch(locational_rocof_batch(lib_one, states, [ctg]), expected)
        (mw_lost, sys_rocof, bus_rocof, wdot, v_post, islands, errors,
         n_solves) = reference_screen(ref, states, [ctg], single=True)
        try:
            got = locational_rocof(lib, states, ctg)
        except Exception as exc:
            same_error(exc, errors[0])
            continue
        assert errors[0] is None
        same_bytes(got.mw_lost, mw_lost)
        same_bytes(got.system_rocof_hz_s, sys_rocof)
        close_rocof(got.bus_rocof_hz_s, bus_rocof)
        close_values(got.machine_accel, wdot)
        close_values(got.post_disturbance_voltages, v_post)
        assert got.undefined_islands == islands[0]
        assert got.n_solves == single_solves(model, states, n_solves, k == 0)

    lib, ref = cold_copy(model), cold_copy(model)
    batch = locational_rocof_batch(lib, states, contingencies)
    assert_same_batch(batch, reference_screen(ref, states, contingencies))
    return batch


def assert_same_batch(got, expected):
    """A RocofBatch against reference_screen's output for the batch, byte
    for byte."""
    (mw_lost, sys_rocof, bus_rocof, wdot, v_post, islands, errors,
     n_solves) = expected
    same_bytes(got.mw_lost, mw_lost)
    same_bytes(got.system_rocof_hz_s, sys_rocof)
    same_bytes(got.bus_rocof_hz_s, bus_rocof.T)
    same_bytes(got.machine_accel, wdot.T)
    same_bytes(got.post_disturbance_voltages, v_post.T)
    assert got.undefined_islands == islands
    assert [e is None for e in got.errors] == [e is None for e in errors]
    for new, old in zip(got.errors, errors):
        if old is not None:
            same_error(new, old)
    assert got.n_solves == n_solves


NINE_BUS_LOSSES = [[], ["gen1"], ["gen2"], ["gen3"], ["gen1", "gen2"],
                   ["gen1", "gen3"], ["gen2", "gen3"], ["gen1", "gen2", "gen3"],
                   ["gen9"]]


def test_nine_bus_losses_match_reference(case9):
    _, model, states = build_model(case9)
    batch = assert_same_screens(model, states, [
        Contingency.of(f"c{k}", g) for k, g in enumerate(NINE_BUS_LOSSES)])
    assert [type(e) for e in batch.errors[-2:]] == [ZeroInertiaError,
                                                   UnknownIdError]


@pytest.mark.parametrize("load_on_island_b", [True, False])
def test_dead_islands_match_reference(load_on_island_b):
    _, model, states = build_model(two_island_case(load_on_island_b))
    batch = assert_same_screens(model, states, [
        Contingency.of("a", ["gA"]), Contingency.of("b", ["gB"]),
        Contingency.of("none", []), Contingency.of("x", ["gX"]),
        Contingency.of("ab", ["gA", "gB"])])
    assert [len(i) for i in batch.undefined_islands] == [1, 1, 0, 0, 2]


@pytest.mark.parametrize("ties, unit_mw, outage", [
    ("weak", 0.0, "gen4"), ("charging", 5.0, "gen3")])
def test_near_singular_outages_match_reference(ties, unit_mw, outage):
    _, model, states = build_model(case9_with_bus10(ties, 1e-12, unit_mw))
    assert_same_screens(model, states, [
        Contingency.of("c", [outage]), Contingency.of("pair", [outage, "gen1"])])


def test_singular_capacitance_matches_reference(case9, monkeypatch):
    # the stacked solve fails, and then the solves of rows 1 and 4, which
    # both screens make one row at a time, in row order
    _, model, states = build_model(case9)
    ctgs = [Contingency.of(f"c{k}", g) for k, g in enumerate(NINE_BUS_LOSSES)]
    solve, rows = np.linalg.solve, []

    def failing(a, b):
        if a.ndim == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        rows.append(None)
        if (len(rows) - 1) % len(ctgs) in (1, 4):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)
    monkeypatch.setattr(np.linalg, "solve", failing)
    lib, ref = cold_copy(model), cold_copy(model)
    batch = locational_rocof_batch(lib, states, ctgs)
    assert_same_batch(batch, reference_screen(ref, states, ctgs))
    assert len(rows) == 2 * len(ctgs)
    assert [type(e) for e in batch.errors] == [
        type(None), SingularOutageError, type(None), type(None),
        SingularOutageError, type(None), type(None), ZeroInertiaError,
        UnknownIdError]


def test_grid_losses_match_reference(grid71):
    # a cold model, so solve 1 runs; one- to four-unit losses, a two-unit
    # plant, so a bus sums two machines, and an unknown machine
    _, model, states = grid71
    units = model.machine_ids
    rng = np.random.default_rng(24)
    contingencies = [Contingency.of(f"c{j}", rng.choice(units, j % 4 + 1,
                                                        replace=False))
                     for j in range(21)]
    contingencies += [Contingency.of("plant", units[8:10]),
                      Contingency.of("plant+1", [*units[8:10], units[40]]),
                      Contingency.of("unknown", ["nope"])]
    batch = assert_same_screens(model, states, contingencies)
    assert [e is None for e in batch.errors] == [True] * 23 + [False]


def test_fleet_bank_batch_matches_reference(fleet_case):
    # the fleet's plants hold two to four units, so a lost plant sums up to
    # four machines at one bus
    base = dispatch_heuristic(fleet_case, 50000.0, 15000.0)
    contingencies = generate_contingencies(base, 163, np.random.default_rng(1))
    _, model, states = build_model(base)
    batch = assert_same_screens(model, states, contingencies)
    assert all(e is None for e in batch.errors)


@pytest.mark.parametrize("build", ["case9", "two_islands", "grid"])
def test_off_equilibrium_states_match_reference(build, case9, grid71):
    # mechanical torques off the electrical ones: the single screens add
    # R0, the residual's own response, which the first screen solves
    if build == "case9":
        model, states = build_model(case9)[1:]
        ctgs = [Contingency.of(f"c{k}", g) for k, g in enumerate(NINE_BUS_LOSSES)]
    elif build == "two_islands":
        model, states = build_model(two_island_case(True))[1:]
        ctgs = [Contingency.of(k, g) for k, g in
                (("none", []), ("a", ["gA"]), ("b", ["gB"]), ("ab", ["gA", "gB"]))]
    else:
        model, states = grid71[1:]
        rng = np.random.default_rng(29)
        ctgs = [Contingency.of("none", [])] + [
            Contingency.of(f"c{j}", rng.choice(model.machine_ids, j % 4 + 1,
                                               replace=False)) for j in range(8)]
    off = off_equilibrium(states)
    assert_same_screens(model, off, ctgs)
    lib = cold_copy(model)
    for ctg in ctgs:
        try:
            res = locational_rocof(lib, off, ctg)
        except (ZeroInertiaError, UnknownIdError):
            continue
        rocof, _, _, islands = refactor_reference(lib, off, ctg)
        np.testing.assert_allclose(res.bus_rocof_hz_s, rocof, rtol=0, atol=1e-9)
        assert res.undefined_islands == islands
    assert lib._r0 is not None


def screen_bytes(model, states, ctg):
    res = locational_rocof(model, states, ctg)
    return [getattr(res, name).tobytes() for name in
            ("bus_rocof_hz_s", "machine_accel", "post_disturbance_voltages")]


@pytest.mark.parametrize("network", ["fleet", "grid"])
def test_single_screen_does_not_depend_on_the_screens_before(network, fleet_case,
                                                               grid71):
    # the target's buses solved together on a cold model, against solved
    # beside other buses: their unit columns by a batch, their responses
    # stacked with another bus's, after a screen under other states
    if network == "fleet":
        base = dispatch_heuristic(fleet_case, 50000.0, 15000.0)
        model, states = build_model(base)[1:]
        ctgs = generate_contingencies(base, 40, np.random.default_rng(3))
    else:
        model, states = grid71[1:]
        rng = np.random.default_rng(30)
        ctgs = [Contingency.of(f"c{j}", rng.choice(model.machine_ids, j % 4 + 1,
                                                   replace=False)) for j in range(12)]

    def buses(ids):
        return set(model.machine_bus[model.machine_positions(ids)].tolist())
    target = next(c for c in ctgs if len(buses(c.outaged_generator_ids)) > 1)
    target_buses = buses(target.outaged_generator_ids)
    others = [c for c in ctgs if not buses(c.outaged_generator_ids) & target_buses]
    extra = next(u for u in model.machine_ids if not buses([u]) & target_buses)
    cold = screen_bytes(cold_copy(model), states, target)
    warm = cold_copy(model)
    locational_rocof(warm, off_equilibrium(states), target)
    locational_rocof_batch(warm, states, [target, *others[:3]])
    locational_rocof(warm, states, Contingency.of(
        "stacked", [*target.outaged_generator_ids, extra]))
    for ctg in others:
        locational_rocof(warm, states, ctg)
    solves = warm.solve_count
    assert screen_bytes(warm, states, target) == cold
    assert warm.solve_count == solves


def test_cancelling_norton_shunts_match_refactoring(case9):
    # a unit with the opposite reactance beside gen2: losing both leaves
    # their bus's diagonal as it was, but their currents still leave, singly
    # and in a batch
    gen2 = next(g for g in case9.generators if g.id == "gen2")
    twin = dataclasses.replace(gen2, id="twin", p_mw=10.0, xdp_pu=-gen2.xdp_pu)
    _, model, states = build_model(case9.with_generators([*case9.generators, twin]))
    ctgs = [Contingency.of("pair", ["gen2", "twin"]), Contingency.of("twin", ["twin"]),
            Contingency.of("three", ["gen1", "gen2", "twin"])]
    batch = locational_rocof_batch(model, states, ctgs)
    for j, ctg in enumerate(ctgs):
        rocof = refactor_reference(model, states, ctg)[0]
        for got in (locational_rocof(model, states, ctg).bus_rocof_hz_s,
                    batch.bus_rocof_hz_s[:, j]):
            np.testing.assert_allclose(got, rocof, rtol=0, atol=1e-9)
