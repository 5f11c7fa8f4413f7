"""The benchmark's three workloads and the loop that measures them.

Every workload is a closed loop with one caller and no think time, on one
network, in three phases:

* map: the ``rocof-local`` path without file I/O, from an in-memory case to
  the first per-bus map (power flow, Y-bus, dynamic augmentation, machine
  initialization, one screen);
* screen: warm ``locational_rocof`` calls over the seeded contingencies,
  on the model the map built;
* main: the workload's own job, if it has one besides screening.

Why each workload exists (README.md has the layer-by-layer predictions):

grid5041-screen
    The paper's headline path: one operating point of the 71x71 grid, then
    at least 100 distinct warm contingencies of 1-4 units. About 88% of a
    scenario is the ``splu`` of the outage-updated matrix, so this stresses
    netdyn's factor/solve layer and rocof; the power flow runs once per map
    and bank set-up is bypassed entirely.
fleet40-bank
    ``run_bank`` in locational mode on the 40-bus fleet, 25 loading cases
    over 15-75 GW demand and 10-30 GW wind times 163 contingencies, the
    table streamed to a file, twice with one worker, then once with two. The
    40-bus factorizations are tiny, so per-loading-case set-up (two power
    flows each today) and the thread pool dominate: this stresses scenarios
    and powerflow and bypasses large-matrix factorization.
case9-shed-sim
    A 10 s simulation at dt = 1/240 s of the gen2 trip on the 9-bus case
    with demo 05's shedding plan (damping 2.0): about 9600 solves against a
    handful of factorizations, refactoring mid-run at each load trip. It
    uses netdyn's factor/solve layer the opposite way from the grid screen,
    so a factor/update change that helps screens but costs the simulator
    shows here.
"""

from __future__ import annotations

import contextlib
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calib
import inputs
import oracle
from rocofscreen import case_io, netdyn, powerflow, rocof, scenarios, swingsim
from rocofscreen.rocof import Contingency
from rocofscreen.swingsim import SimOptions

SETUP_REPEATS = 7
SIM_OPTS = SimOptions(t_end=10.0, dt=1.0 / 240.0, damping_d=2.0)
FAILED_STATUS = ("error:", "loading case failed")


@dataclass
class State:
    """A workload's generated inputs plus the model its warm-up built."""

    case: object                      # the network the map and screens run on
    map_ctg: Contingency
    ctgs: list[Contingency]           # screened in this order, cyclically
    extra: dict = field(default_factory=dict)
    model: object = None
    states: object = None


@dataclass
class Phase:
    runs: list = field(default_factory=list)    # (seconds, value or exception)
    starts: list = field(default_factory=list)  # perf_counter() at each start
    ref: list = field(default_factory=list)     # the runs' reference seconds
    busy: float = 0.0                           # sum of the runs' seconds

    @property
    def seconds(self) -> list[float]:
        return [dt for dt, _ in self.runs]

    def times(self, ref: bool) -> list[float]:
        """Reference seconds (see calib.py), or wall seconds."""
        return self.ref if ref else self.seconds


@dataclass
class Samples:
    map: Phase = field(default_factory=Phase)
    screen: Phase = field(default_factory=Phase)
    main: Phase = field(default_factory=Phase)


def first_map(case, ctg):
    sol = powerflow.solve_powerflow(case)
    model = netdyn.augment_dynamic(netdyn.build_ybus(case), case, sol)
    states = netdyn.init_machines(model, case, sol)
    return model, states, rocof.locational_rocof(model, states, ctg)


class Workload:
    """A workload's inputs, warm-up, main job and the check of that job.

    A phase's share is the part of the run it gets and its minimum the
    fewest operations it makes, however long they take.
    """

    name = ""
    ref = ""
    map_share, map_min = 0.1, 20
    screen_share, screen_min = 0.1, 100
    main_min, main_per_pass = 0, 0

    def prepare(self, seed: int) -> State:
        raise NotImplementedError

    def warm(self, st: State, tmp: Path) -> None:
        pass

    def main(self, st: State, i: int, tmp: Path):
        raise NotImplementedError

    def check_main(self, st: State, phase: Phase, refs: dict, tracer):
        return 0, 0, {}

    def work(self, s: Samples, ref: bool = True) -> tuple[float, int]:
        """Work items per second at the median time per item with one
        worker, and the number of items timed."""
        raise NotImplementedError

    def report(self, s: Samples) -> dict:
        return {}


class GridScreen(Workload):
    name = "grid5041-screen"
    ref = "grid5041"
    map_share, map_min = 0.5, 3
    screen_share = 0.5

    def prepare(self, seed):
        case = inputs.grid_case()
        units = [g.id for g in case.generators]
        # both units of the second plant; the first plant's unit 0 is idle
        return State(case, Contingency.of("map", units[2:4]),
                     inputs.grid_contingencies(case, seed))

    def work(self, s, ref=True):
        return 1.0 / median(s.screen.times(ref)), len(s.screen.runs)


class FleetBank(Workload):
    name = "fleet40-bank"
    ref = "fleet40"
    map_share, screen_share = 0.05, 0.05
    # two passes with one worker (the gated rate) to each with two
    main_min, main_per_pass = 3, 3
    anchor = ("g02u0",)       # a nuclear unit: must-run in every loading case

    def prepare(self, seed):
        fleet = inputs.fleet_case()
        base = scenarios.dispatch_heuristic(fleet, inputs.FLEET_BASE_LOAD_MW,
                                            inputs.FLEET_BASE_WIND_MW)
        lcs = scenarios.generate_loading_cases(
            fleet, inputs.FLEET_N_LOADING, inputs.FLEET_LOAD_RANGE_MW,
            inputs.FLEET_WIND_RANGE_MW)
        # A loss of every committed synchronous unit has no ROCOF: the
        # library reports it as an ``error:`` row (ZeroInertiaError). About
        # one bank in forty contains such a loss for a low-demand loading
        # case, so the bank is drawn again from the same stream until it
        # has none, and every row of the workload is a defined screen.
        synchronous = {g.id for g in fleet.generators if g.synchronous}
        machines = [lc.committed & synchronous for lc in lcs]
        rng = np.random.default_rng(seed)
        while True:
            ctgs = scenarios.generate_contingencies(
                base, inputs.FLEET_N_CONTINGENCIES, rng)
            if not any(m and m <= c.outaged_generator_ids for c in ctgs for m in machines):
                break
        return State(base, Contingency.of("map", self.anchor), ctgs,
                     {"fleet": fleet, "lcs": lcs})

    def warm(self, st, tmp):
        scenarios.run_bank(st.extra["fleet"], st.extra["lcs"][:2], st.ctgs,
                           out_path=tmp / "warm.csv", workers=2)

    def main(self, st, i, tmp):
        workers = 2 if i % 3 == 2 else 1
        path = tmp / f"bank-{i}.csv"
        scenarios.run_bank(st.extra["fleet"], st.extra["lcs"], st.ctgs,
                           mode="locational", out_path=path, workers=workers)
        return workers, path, len(st.extra["lcs"]) * len(st.ctgs)

    def check_main(self, st, phase, refs, tracer):
        """Check the first table against the independent screen and every
        other table, at either worker count, for the same bytes."""
        n_rows = len(st.extra["lcs"]) * len(st.ctgs)
        tables = [v[1] for _, v in phase.runs if not isinstance(v, Exception)]
        failed = n_rows * (len(phase.runs) - len(tables))
        if not tables:
            return n_rows * len(phase.runs), failed, {}
        first = tables[0].read_bytes()
        with enabled(tracer):
            recs = case_io.read_scenario_table(tables[0])
        expected, bad_setup = oracle.expected_bank(
            st.extra["fleet"], st.extra["lcs"], st.ctgs, refs["anchors"], self.anchor)
        lines = first.splitlines()
        if len(recs) != len(expected) or len(lines) != n_rows + 1:
            return n_rows * len(phase.runs), n_rows * len(phase.runs), {}
        row_ok = [oracle.row_matches(r, e) and r.loading_id not in bad_setup
                  and not r.status.startswith(FAILED_STATUS)
                  for r, e in zip(recs, expected)]
        for path in tables:
            other = path.read_bytes().splitlines()
            if len(other) != len(lines) or other[0] != lines[0]:
                failed += n_rows
                continue
            failed += sum(not (ok and a == b)
                          for ok, a, b in zip(row_ok, lines[1:], other[1:]))
        facts = {"rows_screened_share": sum(r.status == "ok" for r in recs) / max(len(recs), 1),
                 "table_bytes": len(first)}
        return n_rows * len(phase.runs), failed, facts

    def _rates(self, s, workers, ref=True):
        return [v[2] / dt for dt, (_, v) in zip(s.main.times(ref), s.main.runs)
                if not isinstance(v, Exception) and v[0] == workers]

    def work(self, s, ref=True):
        rates = self._rates(s, 1, ref)
        return median(rates), len(rates)

    def report(self, s):
        w1, w2 = self._rates(s, 1), self._rates(s, 2)
        return {"bank_per_s": (median(w1), "1/s", len(w1)),
                "bank_w2_per_s": (median(w2), "1/s", len(w2))}


class Case9ShedSim(Workload):
    name = "case9-shed-sim"
    ref = "case9"
    main_min, main_per_pass = 3, 1

    def prepare(self, seed):
        case = inputs.case9_shed_plan()
        return State(case, Contingency.of("gen2-trip", ["gen2"]),
                     inputs.case9_contingencies(case, seed))

    def warm(self, st, tmp):
        swingsim.simulate(st.model, st.states, st.map_ctg,
                          SimOptions(t_end=0.5, dt=SIM_OPTS.dt, damping_d=SIM_OPTS.damping_d))

    def main(self, st, i, tmp):
        sim = swingsim.simulate(st.model, st.states.copy(), st.map_ctg, SIM_OPTS)
        events = [[e.time_s, e.kind, e.stage, e.load_id, e.bus_id] for e in sim.events]
        return events, float(np.nanmin(sim.bus_freq_hz))

    def check_main(self, st, phase, refs, tracer):
        ref = refs["sim"]
        failed = sum(isinstance(v, Exception) or v[0] != ref["events"]
                     or abs(v[1] - ref["nadir_hz"]) > oracle.TOL_HZ_S
                     for _, v in phase.runs)
        return len(phase.runs), failed, {}

    def work(self, s, ref=True):
        return SIM_OPTS.t_end / median(s.main.times(ref)), len(s.main.runs)

    def report(self, s):
        rate, n = self.work(s)
        return {"sim_x_realtime": (rate, "s/s", n)}


WORKLOADS = {w.name: w for w in (GridScreen(), FleetBank(), Case9ShedSim())}


def median(xs) -> float:
    """Median, or 0 when nothing completed (a rate with no completed work)."""
    return float(np.median(xs)) if len(xs) else 0.0


def screen_rate(s: Samples) -> float:
    return len(s.screen.runs) / sum(s.screen.ref)


@contextlib.contextmanager
def enabled(tracer):
    if tracer is None:
        yield
        return
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = False


def _attempt(op, i, phase: Phase, cal: calib.Calibration):
    cal.tick()
    t0 = time.perf_counter()
    try:
        value = op(i)
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        if not any(isinstance(v, Exception) for _, v in phase.runs):
            traceback.print_exc(file=sys.stderr)
        value = exc
    dt = time.perf_counter() - t0
    phase.runs.append((dt, value))
    phase.starts.append(t0)
    phase.busy += dt


def calibrate(s: Samples, cal: calib.Calibration) -> None:
    """Give every run its reference seconds, from the calibrations on
    either side of it."""
    cal.tick(force=True)
    for phase in (s.map, s.screen, s.main):
        phase.ref = [dt * cal.scale(t0, t0 + dt)
                     for t0, dt in zip(phase.starts, phase.seconds)]


def setup(wl: Workload, seed: int, tmp: Path) -> tuple[State, float]:
    """Generate the inputs, build the model and warm every path once."""
    t0 = time.perf_counter()
    st = wl.prepare(seed)
    st.model, st.states, _ = first_map(st.case, st.map_ctg)
    rocof.locational_rocof(st.model, st.states, st.ctgs[0])
    wl.warm(st, tmp)
    return st, time.perf_counter() - t0


@dataclass
class Setup:
    state: State
    wall_s: list[float]       # the first includes the imports
    ref_s: list[float]


def setups(wl: Workload, seed: int, tmp: Path, cal: calib.Calibration,
           import_s: float) -> Setup:
    """SETUP_REPEATS set-ups, each between two calibrations; the last
    one's state is measured."""
    wall, ref = [], []
    for i in range(SETUP_REPEATS):
        cal.tick(force=True)
        t0 = time.perf_counter()
        st, dt = setup(wl, seed, tmp)
        cal.tick(force=True)
        wall.append(dt + (import_s if i == 0 else 0.0))
        ref.append(wall[-1] * cal.scale(t0, t0 + dt))
    return Setup(st, wall, ref)


def ops(wl: Workload, st: State, tmp: Path):
    def map_op(i):
        return first_map(st.case, st.map_ctg)[2].bus_rocof_hz_s

    def screen_op(i):
        return rocof.locational_rocof(st.model, st.states,
                                      st.ctgs[i % len(st.ctgs)]).bus_rocof_hz_s

    return map_op, screen_op, lambda i: wl.main(st, i, tmp)


def measure(wl: Workload, st: State, seconds: float, tmp: Path,
            cal: calib.Calibration) -> Samples:
    """Untraced run. The phases are interleaved for the whole run: the next
    operation always comes from the phase furthest behind its share of the
    time so far, so every metric samples the machine over the same window
    (the neighbours' load on a shared host changes over seconds). After the
    time is up, phases below their minimum count keep going. The machine's
    speed is calibrated between operations, at most TICK_S apart."""
    s = Samples()
    map_op, screen_op, main_op = ops(wl, st, tmp)
    plan = [(s.map, map_op, wl.map_share, wl.map_min),
            (s.screen, screen_op, wl.screen_share, wl.screen_min)]
    if wl.main_per_pass:
        plan.append((s.main, main_op, 1.0 - wl.map_share - wl.screen_share, wl.main_min))
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        due = plan if elapsed < seconds else [p for p in plan if len(p[0].runs) < p[3]]
        if not due:
            calibrate(s, cal)
            return s
        phase, op, _, _ = max(due, key=lambda p: p[2] * elapsed - p[0].busy)
        _attempt(op, len(phase.runs), phase, cal)


def one_pass(wl: Workload, st: State, s: Samples, tmp: Path,
             cal: calib.Calibration) -> None:
    """One map, every seeded contingency once, and the main job once per
    worker setting: a fixed amount of work, so per-pass counts repeat."""
    map_op, screen_op, main_op = ops(wl, st, tmp)
    for phase, op, n in ((s.map, map_op, 1), (s.screen, screen_op, len(st.ctgs)),
                         (s.main, main_op, wl.main_per_pass)):
        for _ in range(n):
            _attempt(op, len(phase.runs), phase, cal)


def measure_traced(wl: Workload, st: State, seconds: float, tmp: Path,
                   cal: calib.Calibration, tracer):
    """Traced run: one untraced pass, then traced passes for the run time.
    Returns the samples, the pass windows and the tracing overhead as a
    share of the untraced pass."""
    s = Samples()
    t0 = time.perf_counter()
    one_pass(wl, st, s, tmp, cal)
    untraced = time.perf_counter() - t0
    passes = []
    start = time.perf_counter()
    with enabled(tracer):
        while not passes or time.perf_counter() - start < seconds:
            a, c0 = time.perf_counter(), tracer.totals()
            one_pass(wl, st, s, tmp, cal)
            passes.append((a, time.perf_counter(), c0, tracer.totals()))
    traced = median([b - a for a, b, _, _ in passes])
    calibrate(s, cal)
    return s, passes, traced / untraced - 1.0


def check(wl: Workload, st: State, s: Samples, tracer) -> tuple[int, int, dict]:
    """Attempted and failed operations, and facts read from the outputs.

    A failure is an exception, a failed bank row, or an output that differs
    from its reference; it is counted, never fatal.
    """
    refs = oracle.load_ref(wl.ref)
    ref_map = np.array(refs["map_rocof"], dtype=float)
    failed = sum(isinstance(v, Exception) or not oracle.same(v, ref_map)
                 for _, v in s.map.runs)
    expected = {}
    for i, (_, v) in enumerate(s.screen.runs):
        k = i % len(st.ctgs)
        if k not in expected:
            expected[k] = oracle.screen(st.model, st.states,
                                        st.ctgs[k].outaged_generator_ids)[0]
        failed += isinstance(v, Exception) or not oracle.same(v, expected[k])
    main_n, main_failed, facts = wl.check_main(st, s.main, refs, tracer)
    attempted = len(s.map.runs) + len(s.screen.runs) + main_n
    return attempted, failed + main_failed, facts


def end_to_end(wl: Workload, s: Samples, setup_s: list[float], ref: bool = True) -> dict:
    """The gated metrics: name -> (value, unit, sample count).

    Each is a median of reference times (see calib.py), which the
    neighbours' load on a shared machine moves least; work_per_s is work
    items per second at the median time per item. With ``ref`` false, and
    wall-clock ``setup_s``, the same figures in wall time.
    """
    work, n_work = wl.work(s, ref)
    return {
        "setup_s": (median(setup_s), "s", len(setup_s)),
        "map_s": (median(s.map.times(ref)), "s", len(s.map.runs)),
        "screen_ms_p50": (median(s.screen.times(ref)) * 1e3, "ms", len(s.screen.runs)),
        "work_per_s": (work, "1/s", n_work),
    }


def wall_name(name: str) -> str:
    head, _, unit = name.partition("_")
    return f"{head}_wall_{unit}"


REPORTED_METRICS = ("setup_s", "map_s", "screen_per_s", "screen_ms_p50", "screen_ms_p90",
                 "bank_per_s", "bank_w2_per_s", "sim_x_realtime", "failed_share")


def reported(wl: Workload, s: Samples, setup: Setup, cal: calib.Calibration,
             attempted: int, failed: int) -> dict:
    """Every figure the report prints: name -> (value or None, unit, count).

    None marks a figure this workload does not produce. Times are reference
    times, except the ``*_wall`` figures, the gated ones in wall time, and
    ``setup_cold_s``, the wall time of the first set-up.
    """
    screen_ms = np.array(s.screen.ref) * 1e3
    wall = end_to_end(wl, s, setup.wall_s, ref=False)
    figures = {"screen_per_s": (screen_rate(s), "1/s", len(screen_ms)),
               "screen_ms_p90": (float(np.percentile(screen_ms, 90)), "ms", len(screen_ms)),
               **wl.report(s),
               "failed_share": (failed / attempted, "share", attempted),
               "setup_cold_s": (setup.wall_s[0], "s", 1),
               **{wall_name(k): v for k, v in wall.items()},
               "calib_kernel_ms": (cal.kernel_s() * 1e3, "ms", len(cal.ticks))}
    e2e = end_to_end(wl, s, setup.ref_s)
    names = REPORTED_METRICS + tuple(k for k in {**e2e, **figures} if k not in REPORTED_METRICS)
    return {k: e2e.get(k) or figures.get(k) or (None, "", 0) for k in names}
