"""Spans and counters around calls into the library, kept in memory.

``install()`` wraps the public functions of powerflow, netdyn, rocof,
scenarios, swingsim and case_io and rebinds every name the package imported
them under (``scenarios.solve_powerflow``, ``rocofscreen.run_bank``, ...),
in this process only. Two private boundaries are wrapped as well, because
the layers they measure have no public name: ``netdyn.spla.splu`` (one
sparse factorization, named ``netdyn.factorize``) and
``scenarios._eval_loading_case`` (one loading case of a bank). Each linear
solve through ``CountingLU`` is counted, without a span, per thread.

A span records its name, start, end, the span that caused it and the root
span it belongs to. Spans opened on a worker thread with nothing open on
that thread take the innermost span open on the main thread as parent, so a
bank's loading cases hang under ``run_bank`` at any worker count.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    root: int
    name: str
    t0: float
    t1: float
    data: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._all_counters: list[dict] = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def counters(self) -> dict:
        """This thread's solve and factorization counts."""
        c = getattr(self._local, "counters", None)
        if c is None:
            c = self._local.counters = {"solves": 0, "factorizations": 0}
            with self._lock:
                self._all_counters.append(c)
        return c

    def totals(self) -> dict:
        with self._lock:
            return {k: sum(c[k] for c in self._all_counters)
                    for k in ("solves", "factorizations")}

    def wrap(self, name, fn, annotate=None, counted=False):
        """fn with a span around each call while the tracer is enabled.

        annotate(result) adds facts about the result to the span; counted
        adds the solves and factorizations the call made on its thread.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            outer = stack or self._main_stack
            parent, root = outer[-1] if outer else (None, None)
            sid = next(self._ids)
            stack.append((sid, root or sid))
            c = self.counters()
            before = dict(c) if counted else None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            data = annotate(out) if annotate else {}
            if counted:
                data.update({k: c[k] - before[k] for k in c})
            self.spans.append(Span(sid, parent, root or sid, name, t0, t1, data))
            return out
        return traced


def install(tracer: Tracer) -> None:
    import rocofscreen
    from rocofscreen import case_io, netdyn, powerflow, rocof, scenarios, swingsim

    splu = netdyn.spla.splu

    def factorize(matrix, *args, **kwargs):
        if tracer.enabled:
            tracer.counters()["factorizations"] += 1
        return splu(matrix, *args, **kwargs)

    functions = [
        (powerflow.solve_powerflow, "powerflow.solve_powerflow",
         lambda sol: {"iterations": sol.iterations}, False),
        (netdyn.build_ybus, "netdyn.build_ybus", None, False),
        (netdyn.augment_dynamic, "netdyn.augment_dynamic", None, False),
        (netdyn.init_machines, "netdyn.init_machines", None, False),
        (rocof.locational_rocof, "rocof.locational_rocof", None, True),
        (scenarios.apply_loading_case, "scenarios.apply_loading_case", None, False),
        (scenarios.generate_loading_cases, "scenarios.generate_loading_cases", None, False),
        (scenarios.generate_contingencies, "scenarios.generate_contingencies", None, False),
        (scenarios.run_bank, "scenarios.run_bank", None, False),
        (scenarios._eval_loading_case, "scenarios.eval_loading_case", None, False),
        (swingsim.simulate, "swingsim.simulate",
         lambda sim: {"steps": len(sim.time_s) - 1, "trip_events": len(sim.events)}, True),
        (case_io.read_scenario_table, "case_io.read_scenario_table", None, False),
    ]
    modules = [rocofscreen, case_io, netdyn, powerflow, rocof, scenarios, swingsim]
    for fn, name, annotate, counted in functions:
        wrapped = tracer.wrap(name, fn, annotate, counted)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, wrapped)

    model_cls = netdyn.NetworkModel
    model_cls.y_with_diag_update = tracer.wrap(
        "netdyn.y_with_diag_update", model_cls.y_with_diag_update)

    solve = netdyn.CountingLU.solve

    def counting_solve(self, rhs):
        if tracer.enabled:
            tracer.counters()["solves"] += 1
        return solve(self, rhs)
    netdyn.CountingLU.solve = counting_solve

    # netdyn calls splu through its module alias; give netdyn alone a copy
    spla = netdyn.spla
    netdyn.spla = types.SimpleNamespace(**{k: getattr(spla, k) for k in dir(spla)
                                           if not k.startswith("__")})
    # SuperLU's nnz is the computed fill of L + U, not a measured byte count
    netdyn.spla.splu = tracer.wrap("netdyn.factorize", factorize,
                                   lambda lu: {"lu_nnz": int(lu.nnz)})


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its children cover."""
    covered, end = 0.0, span.t0
    for c in sorted(children, key=lambda c: c.t0):
        lo, hi = max(c.t0, end), min(c.t1, span.t1)
        if hi > lo:
            covered += hi - lo
            end = hi
    return span.dur - covered


LOADING_CASE_SETUP = {"scenarios.apply_loading_case", "powerflow.solve_powerflow",
                      "netdyn.build_ybus", "netdyn.augment_dynamic",
                      "netdyn.init_machines"}


def layer_metrics(tracer: Tracer, passes: list[tuple[float, float, dict, dict]],
                  facts: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the measured passes.

    passes holds (start, end, counter totals at start, at end) for each
    pass. Timings (``.s``, ``.self_s``) are medians per call; ``.cold_s`` is
    the first call in the process, made during set-up; counts are per pass.
    facts carries numbers the workload observed in its outputs.
    """
    n = len(passes)
    inside = [s for s in tracer.spans
              if any(a <= s.t0 and s.t1 <= b for a, b, _, _ in passes)]
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in inside:
        by_name[s.name].append(s)
        children[s.parent].append(s)
    first: dict[str, Span] = {}
    for s in sorted(tracer.spans, key=lambda s: s.t0):
        first.setdefault(s.name, s)

    def dur(name):
        return _median([s.dur for s in by_name[name]])

    def cold(name):
        return first[name].dur if name in first else 0.0

    def calls(name):
        return len(by_name[name]) / n

    def total(name, key):
        return sum(s.data[key] for s in by_name[name]) / n

    def per_call(name, key):
        spans = by_name[name]
        return sum(s.data[key] for s in spans) / len(spans) if spans else 0.0

    def self_s(name):
        return _median([_self_time(s, children[s.id]) for s in by_name[name]])

    setup = [sum(c.dur for c in children[s.id] if c.name in LOADING_CASE_SETUP)
             for s in by_name["scenarios.eval_loading_case"]]
    solves = sum(end["solves"] - start["solves"] for _, _, start, end in passes) / n
    nnz = [s.data["lu_nnz"] for s in by_name["netdyn.factorize"]]

    return {
        "powerflow.solve_powerflow.s": (dur("powerflow.solve_powerflow"), "s"),
        "powerflow.solve_powerflow.calls": (calls("powerflow.solve_powerflow"), "count"),
        "powerflow.solve_powerflow.cold_s": (cold("powerflow.solve_powerflow"), "s"),
        "powerflow.iterations": (total("powerflow.solve_powerflow", "iterations"), "count"),
        "netdyn.build_ybus.s": (dur("netdyn.build_ybus"), "s"),
        "netdyn.build_ybus.calls": (calls("netdyn.build_ybus"), "count"),
        "netdyn.augment_dynamic.s": (dur("netdyn.augment_dynamic"), "s"),
        "netdyn.augment_dynamic.cold_s": (cold("netdyn.augment_dynamic"), "s"),
        "netdyn.init_machines.s": (dur("netdyn.init_machines"), "s"),
        "netdyn.factorize.s": (dur("netdyn.factorize"), "s"),
        "netdyn.factorize.calls": (calls("netdyn.factorize"), "count"),
        "netdyn.factorize.cold_s": (cold("netdyn.factorize"), "s"),
        "netdyn.y_with_diag_update.s": (dur("netdyn.y_with_diag_update"), "s"),
        "netdyn.solves": (solves, "count"),
        "netdyn.lu_nnz": (_median(nnz), "count"),
        "rocof.locational_rocof.s": (dur("rocof.locational_rocof"), "s"),
        "rocof.locational_rocof.self_s": (self_s("rocof.locational_rocof"), "s"),
        "rocof.solves_per_scenario": (per_call("rocof.locational_rocof", "solves"), "count"),
        "rocof.factorizations_per_scenario":
            (per_call("rocof.locational_rocof", "factorizations"), "count"),
        "scenarios.apply_loading_case.s": (dur("scenarios.apply_loading_case"), "s"),
        "scenarios.apply_loading_case.calls": (calls("scenarios.apply_loading_case"), "count"),
        "scenarios.loading_case_setup.s": (_median(setup), "s"),
        "scenarios.run_bank.self_s": (self_s("scenarios.run_bank"), "s"),
        "scenarios.rows_screened_share": (facts.get("rows_screened_share", 0.0), "share"),
        "scenarios.generate_loading_cases.s": (_median_all(tracer, "scenarios.generate_loading_cases"), "s"),
        "scenarios.generate_contingencies.s": (_median_all(tracer, "scenarios.generate_contingencies"), "s"),
        "swingsim.simulate.s": (dur("swingsim.simulate"), "s"),
        "swingsim.steps": (total("swingsim.simulate", "steps"), "count"),
        "swingsim.solves": (total("swingsim.simulate", "solves"), "count"),
        "swingsim.factorizations": (total("swingsim.simulate", "factorizations"), "count"),
        "swingsim.trip_events": (total("swingsim.simulate", "trip_events"), "count"),
        "case_io.table_bytes": (facts.get("table_bytes", 0), "bytes"),
        "case_io.read_scenario_table.s": (_median_all(tracer, "case_io.read_scenario_table"), "s"),
    }


def _median_all(tracer: Tracer, name: str) -> float:
    """Median over every call in the process, for calls made only outside
    the passes: the input generators run once per set-up repetition and the
    table is read back by the output check."""
    return _median([s.dur for s in tracer.spans if s.name == name])
