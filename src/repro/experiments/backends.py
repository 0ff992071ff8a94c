"""Execution backends: how a sweep's work units get run.

A sweep (:class:`~repro.experiments.config.ExperimentPlan`) is sharded into
:class:`WorkUnit` s — one (configuration, throughput-chunk) couple each.  A
work unit is a small picklable value object: it carries indices only, and the
executing side regenerates the configuration from the plan's seeds
(:func:`repro.generators.workload.generate_configuration_at`) and rebuilds the
solvers from their :class:`~repro.experiments.config.AlgorithmSpec`.  That
makes units cheap to ship to worker processes and guarantees that the serial
and parallel backends produce identical records (up to wall-clock timings)
for deterministic solvers.  The one caveat is time-limited solvers (e.g. the
ILP with ``time_limit``, Figure 8): they return their best incumbent when the
wall-clock limit fires, so their cost depends on how much CPU the worker got
— the runner warns when such a plan is parallelised.

Two backends are provided:

* :class:`SerialBackend` — the paper's original nested loop, streaming each
  unit's records as it completes;
* :class:`ProcessPoolBackend` — a :class:`concurrent.futures.ProcessPoolExecutor`
  fan-out that yields results in completion order.  The driver
  (:func:`run_units`) reassembles records in canonical unit order, so
  completion order never leaks into results.  A process keeps one warm
  executor per width: the first run that has work creates it, and every
  later run of that width (both stages of a study, every job of ``serve``)
  reuses it until :func:`shutdown_pools` or interpreter exit.

:func:`run_units` is the one fan-out driver: resume from a checkpoint store,
serve memoised units, stream the rest through a backend, checkpoint and
memoise each unit as it completes.  The sweep
(:func:`~repro.experiments.runner.run_plan`) and the validation campaigns
(:func:`~repro.experiments.validation.run_validation`) are thin adapters over
it; any picklable unit with an ``execute(plan, **options)`` method rides the
same machinery.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import os
import pickle
import shutil
import tempfile
import threading
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Protocol, Sequence, runtime_checkable

from ..core.exceptions import ConfigurationError
from ..generators.workload import generate_configuration_at
from ..solvers.registry import ensure_default_solvers
from .config import ExperimentPlan
from .memo import MemoStats, ResultMemoStore
from .runner import RunRecord, run_configuration

__all__ = [
    "WorkUnit",
    "plan_work_units",
    "run_units",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "make_backend",
    "shutdown_pools",
]

#: The pid of the process that imported this module.  A forkserver worker
#: whose server preloaded the package inherits the server's pid here; a
#: worker that finds its own pid had to import the package itself.
_IMPORTED_BY = os.getpid()


def make_backend(workers: int | None) -> "ExecutionBackend | None":
    """The backend a worker count asks for (the CLI/spec convention).

    ``None`` means "caller's default" (the drivers fall back to a fresh
    :class:`SerialBackend`), ``1`` is an explicit serial run and anything
    larger a :class:`ProcessPoolBackend` of that width.  Invalid counts raise
    :class:`~repro.core.exceptions.ConfigurationError`.
    """
    if workers is None:
        return None
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return SerialBackend()
    return ProcessPoolBackend(workers)


@dataclass(frozen=True, slots=True)
class WorkUnit:
    """One shard of a sweep: a configuration index and a throughput chunk.

    ``index`` is the unit's position in the canonical unit order of the plan
    (the order :func:`plan_work_units` returns); it keys checkpointing and
    the deterministic reassembly of streamed results.
    """

    index: int
    configuration: int
    throughputs: tuple[float, ...]

    def __reduce__(self):
        # frozen+slots dataclasses need an explicit constructor-based reduce
        # on Python 3.10 (default slot-state restore setattr's into a frozen
        # instance); units cross process boundaries constantly, so be exact
        return (self.__class__, (self.index, self.configuration, self.throughputs))

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "configuration": self.configuration,
            "throughputs": list(self.throughputs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkUnit":
        return cls(
            index=int(data["index"]),
            configuration=int(data["configuration"]),
            throughputs=tuple(float(rho) for rho in data["throughputs"]),
        )

    def execute(
        self, plan: ExperimentPlan, *, capture_allocations: bool = False
    ) -> list[RunRecord]:
        """Run this unit against its plan (worker-process entry point).

        Regenerates the unit's configuration from the plan seeds, so the only
        state shipped across a process boundary is (plan, unit) — both plain
        picklable dataclasses.
        """
        ensure_default_solvers()
        configuration = generate_configuration_at(
            plan.setting, base_seed=plan.base_seed, index=self.configuration
        )
        return list(
            run_configuration(
                configuration,
                plan.algorithms,
                self.throughputs,
                base_seed=plan.base_seed,
                capture_allocations=capture_allocations,
            )
        )


def plan_work_units(plan: ExperimentPlan, *, chunk_size: int | None = None) -> list[WorkUnit]:
    """Shard a plan into its canonical list of work units.

    ``chunk_size`` bounds the number of throughputs per unit; the default
    (``None``) keeps a configuration's whole throughput sweep in one unit,
    which matches the paper's outer loop and keeps checkpoint granularity at
    one configuration.  Smaller chunks expose more parallelism for plans with
    few configurations.
    """
    throughputs = tuple(plan.target_throughputs)
    if chunk_size is None:
        chunk_size = len(throughputs)
    if chunk_size <= 0:
        raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")
    units: list[WorkUnit] = []
    for configuration in range(plan.num_configurations):
        for start in range(0, len(throughputs), chunk_size):
            units.append(
                WorkUnit(
                    index=len(units),
                    configuration=configuration,
                    throughputs=throughputs[start : start + chunk_size],
                )
            )
    return units


#: The plan this worker process last loaded, as ``(digest, plan)``.  A task
#: names its plan by digest and spill-file path, and the worker unpickles the
#: file only when the digest changes, so the plan and the context a campaign
#: derives from it (``_plan_context`` in :mod:`repro.experiments.validation`)
#: stay warm across every unit, and every run, of one plan.
_LOADED_PLAN: tuple[str, Any] = ("", None)


def _execute_spilled(digest: str, spill: str, unit, **options) -> tuple[list, bool]:
    """Worker entry point: run ``unit`` against the plan spilled at ``spill``.

    The second value is true when this worker imported the package itself,
    that is when the forkserver's preload did not take.
    """
    global _LOADED_PLAN
    if _LOADED_PLAN[0] != digest:
        with open(spill, "rb") as handle:
            _LOADED_PLAN = (digest, pickle.load(handle))
    return unit.execute(_LOADED_PLAN[1], **options), _IMPORTED_BY == os.getpid()


@runtime_checkable
class ExecutionBackend(Protocol):
    """Executes work units, streaming ``(unit, records)`` as units complete.

    ``options`` are the driver's execution options, passed through verbatim
    to every ``unit.execute(plan, **options)`` call (``capture_allocations``
    for a sweep, none for a campaign).
    """

    def run(
        self, plan: Any, units: Sequence, **options: Any
    ) -> Iterator[tuple[Any, list]]:  # pragma: no cover - protocol
        ...


class SerialBackend:
    """In-process execution, one unit at a time, in canonical order."""

    def run(self, plan, units: Sequence, **options) -> Iterator[tuple]:
        for unit in units:
            yield unit, unit.execute(plan, **options)


def _mp_context():
    """The start method for pool workers, forkserver where it can work."""
    import multiprocessing
    import sys

    methods = multiprocessing.get_all_start_methods()
    # forkserver (like spawn) re-imports __main__ in the server; a driver
    # run from stdin / `python -c` / a REPL has no importable main module,
    # so fall back to plain fork there rather than crash the pool
    main = sys.modules.get("__main__")
    main_file = getattr(main, "__file__", None)
    main_importable = main_file is not None and Path(main_file).exists()
    if "forkserver" in methods and main_importable:
        context = multiprocessing.get_context("forkserver")
        # the server imports this package and scipy once, and every worker
        # forks from that warmed-up image instead of importing them again
        context.set_forkserver_preload(["repro.experiments.backends", "scipy.optimize"])
        return context
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return None  # platform default (spawn on Windows/macOS)


def _exit_with_driver() -> None:
    """Pool-worker initializer: end this worker when its driver process dies.

    An idle worker blocks reading its call queue, whose write end it holds
    itself, so it never sees EOF when the driver is killed outright (SIGKILL,
    the OOM killer); and the forkserver lives as long as a worker holds its
    alive pipe.  The parent's sentinel (for a forkserver worker, a pipe the
    driver holds open for it) becomes ready when the driver dies, however it
    dies; a daemon thread waits on it and exits the worker.
    """
    import multiprocessing.connection

    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="repro-driver-watch", daemon=True).start()


class _Pool:
    """A process's warm executor of one width and the directory its runs spill to."""

    def __init__(self, workers: int) -> None:
        context = _mp_context()
        self.forkserver = context is not None and context.get_start_method() == "forkserver"
        self.executor = ProcessPoolExecutor(
            max_workers=workers, mp_context=context, initializer=_exit_with_driver
        )
        self.spill_dir = tempfile.mkdtemp(prefix="repro-pool-")

    def close(self, *, wait: bool = True) -> None:
        self.executor.shutdown(wait=wait, cancel_futures=True)
        shutil.rmtree(self.spill_dir, ignore_errors=True)


#: Warm pools by (creating pid, width).  A forked child looks up its own pid,
#: so it never reuses, nor closes, an executor its parent created.
_POOLS: dict[tuple[int, int], _Pool] = {}
_POOLS_LOCK = threading.Lock()  # serve's job threads share the registry
_PRELOAD_WARNED = False


def _pool(workers: int) -> _Pool:
    key = (os.getpid(), workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            pool = _POOLS[key] = _Pool(workers)
        return pool


def _evict(workers: int, pool: _Pool) -> None:
    key = (os.getpid(), workers)
    with _POOLS_LOCK:
        if _POOLS.get(key) is pool:
            del _POOLS[key]
    pool.close(wait=False)


def shutdown_pools() -> None:
    """Close this process's warm pools and wait for their workers to exit.

    The next pool run creates a fresh pool.  ``serve``'s drain calls this
    once its jobs have stopped; interpreter exit calls it too.
    """
    with _POOLS_LOCK:
        pools = [_POOLS.pop(key) for key in list(_POOLS) if key[0] == os.getpid()]
    for pool in pools:
        pool.close()


atexit.register(shutdown_pools)


def _warn_preload_failed() -> None:
    global _PRELOAD_WARNED
    with _POOLS_LOCK:
        if _PRELOAD_WARNED:
            return
        _PRELOAD_WARNED = True
    warnings.warn(
        "process-pool workers import repro themselves because the forkserver "
        "could not preload it: repro is importable here only through a "
        "runtime sys.path edit, which the forkserver does not apply, so every "
        "worker pays the package import; set PYTHONPATH to the directory "
        "holding repro, or install the package",
        RuntimeWarning,
        stacklevel=3,
    )


class ProcessPoolBackend:
    """Process-pool execution: units are farmed out to worker processes.

    Results are yielded in completion order (so checkpointing and progress
    track real progress); the driver reassembles them in canonical unit
    order.  At most ``4 * workers`` tasks of a run are in flight, so a
    100-configuration sweep does not queue every unit up front.

    The executor is shared: a process keeps one per width, created by the
    first run that has work and kept warm for every later run — both stages
    of a study, every job of ``serve``.  A run pickles its plan once, into a
    spill file; each task carries only its unit, the plan's digest and the
    file's path, and a worker keeps the last plan it loaded (and the
    plan-derived configurations, problems and allocations) until a task
    names another digest.  The default start method is ``forkserver``
    (where available) with this package and scipy preloaded, so workers
    fork from a small warmed-up server instead of the full driver process.
    Only the first pool of a process pays the server's start-up.

    Abandoning a run (Ctrl-C, a raising progress hook, ``serve``'s drain)
    cancels that run's queued units and leaves the pool up; a worker that
    dies breaks the pool, which that run raises and the next run replaces.
    A driver that dies, even by SIGKILL, takes its workers and forkserver
    with it (see :func:`_exit_with_driver`).
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    def run(self, plan, units: Sequence, **options) -> Iterator[tuple]:
        queue = tuple(units)
        if not queue:  # e.g. resuming an already-complete checkpoint
            return
        pool = _pool(self.workers)
        data = pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(data).hexdigest()
        handle, spill = tempfile.mkstemp(suffix=".plan", dir=pool.spill_dir)
        with os.fdopen(handle, "wb") as file:
            file.write(data)
        pending: dict = {}

        def submit(unit) -> None:
            pending[pool.executor.submit(_execute_spilled, digest, spill, unit, **options)] = unit

        try:
            position = 0
            while position < len(queue) and len(pending) < 4 * self.workers:
                submit(queue[position])
                position += 1
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    unit = pending.pop(future)
                    records, imported_in_worker = future.result()
                    if imported_in_worker and pool.forkserver:
                        _warn_preload_failed()
                    yield unit, records
                    if position < len(queue):
                        submit(queue[position])
                        position += 1
        except BrokenProcessPool:
            _evict(self.workers, pool)
            raise
        finally:
            # finished, failed or abandoned: drop this run's queued units
            # (the checkpoint already holds every unit that was yielded)
            for future in pending:
                future.cancel()
            with contextlib.suppress(FileNotFoundError):  # gone with a broken pool
                os.unlink(spill)


def run_units(
    plan,
    units: Sequence,
    *,
    backend: "ExecutionBackend | None" = None,
    store=None,
    resume: bool = False,
    progress: Callable[[str], None] | None = None,
    memo: "ResultMemoStore | str | Path | None" = None,
    study_key: str,
    cell_keys: Callable[[Any], list[str]],
    record_from_dict: Callable[[Mapping], Any],
    label: Callable[[Any, list], str],
    options: Mapping[str, Any] | None = None,
) -> tuple[list, "MemoStats | None"]:
    """Execute ``units`` of ``plan``; return every record and the memo counts.

    The one fan-out loop behind :func:`~repro.experiments.runner.run_plan`
    and :func:`~repro.experiments.validation.run_validation`:

    1. with a ``store``, initialise it (``resume`` skips the units it already
       holds, and is refused without a store);
    2. with a ``memo``, serve every pending unit whose cells all hit
       (``cell_keys(unit)`` under ``study_key``; hits and misses are counted
       per cell);
    3. stream the rest through ``backend.run(plan, pending, **options)``;
    4. per completed unit, in this order: checkpoint it to the store, write
       its records back to the memo (split evenly over its cell keys), then
       report ``progress`` — so a unit is durable before anyone hears of it.

    ``record_from_dict`` rebuilds memoised records and ``label(unit,
    records)`` describes a unit in progress messages.  Records come back in
    canonical unit order, whatever order the backend completed them in.  The
    second value is ``None`` unless a memo was consulted.
    """
    if resume and store is None:
        raise ConfigurationError("resume=True requires a store (the checkpoint to resume from)")
    memo_store = ResultMemoStore(memo) if isinstance(memo, (str, Path)) else memo
    if backend is None:
        backend = SerialBackend()
    total = len(units)
    completed: dict[int, list] = {}
    if store is not None:
        completed = store.initialize(plan, resume=resume, units=units)
        if completed and progress is not None:
            progress(f"[{plan.name}] resumed {len(completed)}/{total} work units from {store.path}")
    pending = [unit for unit in units if unit.index not in completed]
    unit_cell_keys: dict[int, list[str]] = {}

    def finish(unit, records: list, how: str) -> None:
        completed[unit.index] = records
        if store is not None:
            store.append(unit, records)
        keys = unit_cell_keys.get(unit.index)
        if memo_store is not None and keys:
            per_cell, rest = divmod(len(records), len(keys))
            if per_cell and not rest:
                for position, key in enumerate(keys):
                    cell = records[position * per_cell : (position + 1) * per_cell]
                    memo_store.put(study_key, key, [record.as_dict() for record in cell])
        if progress is not None:
            progress(
                f"[{plan.name}] work unit {len(completed)}/{total} {how} "
                f"({label(unit, records)})"
            )

    memo_stats: MemoStats | None = None
    if memo_store is not None and pending:
        memo_stats = MemoStats()
        still_pending: list = []
        for unit in pending:
            keys = cell_keys(unit)
            cached = [memo_store.lookup(study_key, key) for key in keys]
            if keys and all(entry is not None for entry in cached):
                memo_stats.hits += len(keys)
                records = [record_from_dict(data) for entry in cached for data in entry]
                finish(unit, records, "served from memo")
            else:
                memo_stats.misses += len(keys)
                unit_cell_keys[unit.index] = keys
                still_pending.append(unit)
        pending = still_pending

    for unit, records in backend.run(plan, pending, **(options or {})):
        finish(unit, records, "done")
    missing = [unit.index for unit in units if unit.index not in completed]
    if missing:
        raise ConfigurationError(
            f"backend returned no result for {len(missing)} work unit(s) "
            f"(indices {missing[:10]}{'...' if len(missing) > 10 else ''}); "
            f"a conforming backend must yield every unit or raise"
        )
    return [record for unit in units for record in completed[unit.index]], memo_stats
