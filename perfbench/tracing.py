"""Passive span tracing of the program's layers, installed from outside ``src/``.

:func:`install` wraps the public entry points of each layer — module
functions, methods and one property — and :func:`uninstall` restores the
originals.  Every wrapped call opens a span (name, start, end, parent span,
thread); spans stay in memory until the run ends.  A span's *self time* is
its duration minus the time of the spans it directly encloses, so the
per-layer self times of one thread add up to the time its root spans cover.

The evaluator's methods run hundreds of thousands of times per sweep, so
their spans are aggregated (count, total and self seconds) instead of being
kept one by one; they are leaves and never enclose another span, which
keeps every self time exact.

Wrappers only observe arguments and return values: they never change what a
call computes, and the benchmark checks that traced and untraced runs write
identical records.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import weakref
from collections import defaultdict
from time import perf_counter

#: Span-name prefix -> layer (the repository module the span is timed in).
LAYERS = (
    ("api.", "api"),
    ("generators.", "generators"),
    ("solve.", "solvers+heuristics"),
    ("evaluator.", "core.evaluator"),
    ("simulation.", "simulation"),
    ("backends.", "experiments.backends"),
    ("store.", "experiments.store"),
    ("memo.", "experiments.memo"),
    ("service.", "service"),
)


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    raise KeyError(name)


class _ThreadState:
    """The spans and aggregates of one thread (merged when the run ends)."""

    __slots__ = ("thread", "stack", "spans", "names", "counters")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.stack: list = []  # frames: [start, child seconds, span id]
        self.spans: list = []  # (id, parent id, name, start, end)
        self.names: dict = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.counters: dict = defaultdict(float)


class Tracer:
    """In-memory spans and counters, one private buffer per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def call(self, name: str, fn, args, kwargs, *, keep: bool = True):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        state = self._state()
        stack = state.stack
        parent = stack[-1] if stack else None
        frame = [perf_counter(), 0.0, next(self._ids) if keep else 0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - frame[0]
            if parent is not None:
                parent[1] += duration
            entry = state.names[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]
            if keep:
                state.spans.append(
                    (frame[2], parent[2] if parent is not None else 0, name, frame[0], end)
                )

    def count(self, name: str, amount: float = 1.0) -> None:
        self._state().counters[name] += amount

    # -- results ---------------------------------------------------------- #
    def names(self) -> dict:
        """name -> [calls, total seconds, self seconds], over all threads."""
        merged: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for state in self._states:
            for name, (calls, total, self_s) in list(state.names.items()):
                entry = merged[name]
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
        return dict(merged)

    def counters(self) -> dict:
        merged: dict = defaultdict(float)
        for state in self._states:
            for name, value in list(state.counters.items()):
                merged[name] += value
        return dict(merged)

    def layer_self_seconds(self) -> dict:
        totals: dict = defaultdict(float)
        for name, (_, _, self_s) in self.names().items():
            totals[layer_of(name)] += self_s
        return dict(totals)

    def covered_seconds(self, start: float, end: float) -> float:
        """Length of [start, end] that at least one kept span covers."""
        intervals = sorted(
            (max(s, start), min(e, end))
            for state in self._states
            for (_, _, _, s, e) in state.spans
            if e > start and s < end
        )
        covered, reach = 0.0, start
        for s, e in intervals:
            if e <= reach:
                continue
            covered += e - max(s, reach)
            reach = e
        return covered

    def write(self, path) -> None:
        """Write every kept span as one JSON line (times relative to the first)."""
        import json

        origin = min((s for state in self._states for (_, _, _, s, _) in state.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for state in self._states:
                for span_id, parent, name, s, e in state.spans:
                    handle.write(json.dumps({
                        "id": span_id, "parent": parent, "name": name,
                        "thread": state.thread,
                        "start": round(s - origin, 6), "end": round(e - origin, 6),
                    }) + "\n")


# --------------------------------------------------------------------------- #
# installing the wrappers
# --------------------------------------------------------------------------- #


class _Patches:
    """The replaced attributes, so :func:`uninstall` can put the originals back."""

    def __init__(self) -> None:
        self.entries: list = []

    def set(self, owner, attr: str, value) -> None:
        # vars() keeps a class's own descriptor (a property, not its value)
        self.entries.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def function(self, original, replacement) -> None:
        """Rebind ``original`` in every loaded ``repro`` module that imported it."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.entries):
            setattr(owner, attr, original)
        self.entries.clear()


def _timed(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tracer: Tracer) -> _Patches:
    """Wrap every layer's public entry points; returns the handle to undo it."""
    from repro.api import StudyResult
    from repro.core.evaluator import SplitEvaluator
    from repro.experiments import backends, runner, validation
    from repro.experiments.memo import ResultMemoStore
    from repro.experiments.store import JsonlCheckpointStore
    from repro.generators import workload
    from repro.service.jobs import JobManager
    from repro.service.routes import Router
    from repro.simulation import StreamSimulator
    from repro.solvers.base import Solver

    patches = _Patches()

    # api: the pipeline stages Study.run drives
    patches.function(runner.run_plan, _timed(tracer, "api.sweep", runner.run_plan))
    patches.function(
        validation.run_validation,
        _timed(tracer, "api.validation", validation.run_validation),
    )
    series = StudyResult.__dict__["series"]
    patches.set(StudyResult, "series", property(_timed(tracer, "api.series", series.fget)))

    # generators
    generate = workload.generate_configuration_at

    def generate_configuration_at(*args, **kwargs):
        tracer.count("generators.configs")
        return tracer.call("generators.configuration", generate, args, kwargs)

    patches.function(generate, generate_configuration_at)

    # solvers + heuristics: one span name per algorithm
    solve = Solver.solve

    def solver_solve(self, *args, **kwargs):
        result = tracer.call(f"solve.{self.name}", solve, (self, *args), kwargs)
        tracer.count(f"solve.{self.name}.iters", result.iterations)
        return result

    patches.set(Solver, "solve", solver_solve)

    # core.evaluator: aggregated leaf spans, rows scored, memo hits/misses
    def evaluator_method(method: str, memo_aware: bool, batched: bool):
        original = SplitEvaluator.__dict__[method]

        def wrapper(self, *args, **kwargs):
            if memo_aware:
                before = self.cache_info()
            result = tracer.call("evaluator." + method, original, (self, *args), kwargs, keep=False)
            tracer.count("evaluator.rows", len(result) if batched else 1)
            if memo_aware:
                after = self.cache_info()
                tracer.count("evaluator.memo_hits", after["hits"] - before["hits"])
                tracer.count("evaluator.memo_misses", after["misses"] - before["misses"])
            return result

        patches.set(SplitEvaluator, method, wrapper)

    evaluator_method("evaluate", True, False)
    evaluator_method("evaluate_batch", False, True)
    evaluator_method("score_exchange", True, False)
    evaluator_method("score_exchanges", False, True)
    evaluator_method("apply_exchange", False, False)

    # simulation
    simulate = StreamSimulator.run

    def simulator_run(self, horizon: float = 50.0, **kwargs):
        report = tracer.call("simulation.run", simulate, (self, horizon), kwargs)
        counters = report.metadata.get("event_counters") or {}
        tracer.count("simulation.events", counters.get("heappush", 0) + counters.get("heappop", 0))
        tracer.count("simulation.sim_time", float(horizon))
        return report

    patches.set(StreamSimulator, "run", simulator_run)

    # experiments.backends: the generators are timed per next(), so time the
    # consumer spends between units (checkpoints, memo puts) is not theirs
    def backend_run(cls):
        original = cls.__dict__["run"]

        def run(self, *args, **kwargs):
            started = perf_counter()
            units = original(self, *args, **kwargs)
            first = True
            try:
                while True:
                    try:
                        item = tracer.call("backends.next", next, (units,), {})
                    except StopIteration:
                        return
                    if first:
                        tracer.count("backends.runs")
                        tracer.count("backends.first_unit_s", perf_counter() - started)
                        first = False
                    tracer.count("backends.units")
                    yield item
            finally:
                units.close()

        patches.set(cls, "run", run)

    backend_run(backends.SerialBackend)
    backend_run(backends.ProcessPoolBackend)

    # experiments.store
    initialize = JsonlCheckpointStore.initialize
    append = JsonlCheckpointStore.append

    def store_append(self, *args, **kwargs):
        size = _file_size(self.path)
        tracer.call("store.append", append, (self, *args), kwargs)
        tracer.count("store.bytes", _file_size(self.path) - size)

    patches.set(JsonlCheckpointStore, "initialize", _timed(tracer, "store.initialize", initialize))
    patches.set(JsonlCheckpointStore, "append", store_append)

    # experiments.memo: the store loads its file lazily on first use, so
    # each instance's first call is timed as the load
    loaded: "weakref.WeakSet" = weakref.WeakSet()

    def memo_method(method: str):
        original = ResultMemoStore.__dict__[method]

        def wrapper(self, *args, **kwargs):
            tracer.count(f"memo.{method}s")
            name = f"memo.{method}" if self in loaded else "memo.load"
            loaded.add(self)
            result = tracer.call(name, original, (self, *args), kwargs)
            if method == "lookup":
                tracer.count("memo.hits", result is not None)
            return result

        patches.set(ResultMemoStore, method, wrapper)

    memo_method("lookup")
    memo_method("put")

    # service: request dispatch and job submission, server side
    patches.set(Router, "dispatch", _timed(tracer, "service.dispatch", Router.dispatch))
    patches.set(JobManager, "submit", _timed(tracer, "service.submit", JobManager.submit))
    return patches


def uninstall(patches: _Patches) -> None:
    patches.restore()
