"""Sweep runner: algorithms x configurations x target throughputs.

This is the reproduction of the paper's "cloud renting simulator"
(Section VIII-A): for each randomly generated (application, cloud)
configuration and each target throughput, every algorithm is run and its cost
and wall-clock time recorded.  The result is a flat list of
:class:`RunRecord` rows that the metric and figure modules aggregate.

:func:`run_plan` is a thin adapter over the fan-out driver
:func:`~repro.experiments.backends.run_units`, which joins two layers:

* an :class:`~repro.experiments.backends.ExecutionBackend` that executes the
  sweep's picklable work units (serially or across a process pool) and streams
  records back as units complete;
* an optional :class:`~repro.experiments.store.SweepStore` that checkpoints
  every completed unit to an append-only JSONL file so an interrupted sweep
  can be resumed with ``resume=True``.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import parent_process
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from ..core.allocation import Allocation, ThroughputSplit
from ..generators.workload import Configuration
from ..solvers.base import SolverResult
from ..solvers.milp import MilpSolver
from ..utils.rng import derive_seed, stable_text_digest
from .config import AlgorithmSpec, ExperimentPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .backends import ExecutionBackend
    from .store import SweepStore

__all__ = ["AllocationPayload", "RunRecord", "SweepResult", "run_plan", "run_configuration"]

#: Tolerance for matching float throughput keys: two rho values closer than
#: this belong to the same sweep point (guards against float drift introduced
#: by serialisation or by callers passing ``50.000000001`` for ``50``).
RHO_REL_TOL = 1e-9
RHO_ABS_TOL = 1e-6


@dataclass(frozen=True)
class AllocationPayload:
    """Compact, JSON-round-trippable image of an :class:`~repro.core.Allocation`.

    Carried (optionally) by a :class:`RunRecord` so downstream consumers — the
    validation campaigns of :mod:`repro.experiments.validation` in particular —
    can replay exactly the allocation the solver produced.  Machine counts are
    stored as ``(type, count)`` pairs rather than a mapping because JSON
    object keys are always strings, which would not round-trip the paper's
    integer type identifiers.
    """

    split: tuple[float, ...]
    machines: tuple[tuple[Any, int], ...]
    cost: float

    @classmethod
    def from_allocation(cls, allocation: Allocation) -> "AllocationPayload":
        return cls(
            split=tuple(float(v) for v in allocation.split.values),
            machines=tuple(
                (type_id, int(count)) for type_id, count in allocation.machines.items()
            ),
            cost=float(allocation.cost),
        )

    def to_allocation(self) -> Allocation:
        return Allocation(
            split=ThroughputSplit.from_sequence(self.split),
            machines=dict(self.machines),
            cost=self.cost,
        )

    def as_dict(self) -> dict:
        return {
            "split": list(self.split),
            "machines": [[type_id, count] for type_id, count in self.machines],
            "cost": self.cost,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AllocationPayload":
        return cls(
            split=tuple(float(v) for v in data["split"]),
            machines=tuple((entry[0], int(entry[1])) for entry in data["machines"]),
            cost=float(data["cost"]),
        )


@dataclass(frozen=True)
class RunRecord:
    """One (configuration, throughput, algorithm) measurement.

    ``allocation`` is an optional :class:`AllocationPayload` captured when the
    sweep runs with ``capture_allocations=True``; records written without it
    carry ``None`` — they load, but a validation campaign refuses them.
    """

    configuration: int
    rho: float
    algorithm: str
    cost: float
    time: float
    optimal: bool
    iterations: int
    allocation: AllocationPayload | None = None

    def as_dict(self) -> dict:
        data = {
            "configuration": self.configuration,
            "rho": self.rho,
            "algorithm": self.algorithm,
            "cost": self.cost,
            "time": self.time,
            "optimal": self.optimal,
            "iterations": self.iterations,
        }
        if self.allocation is not None:
            data["allocation"] = self.allocation.as_dict()
        return data

    def identity(self) -> tuple:
        """The reproducible fields — everything except wall-clock time.

        The authoritative definition of "identical sweep results": two runs
        agree iff their records' identities match pairwise.  The sweep
        benchmark and the backend tests both compare through this.  The
        optional allocation payload is also excluded, so a captured sweep
        stays identity-equal to the same sweep recorded without payloads.
        """
        return (
            self.configuration,
            self.rho,
            self.algorithm,
            self.cost,
            self.optimal,
            self.iterations,
        )

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunRecord":
        payload = data.get("allocation")
        return cls(
            configuration=int(data["configuration"]),
            rho=float(data["rho"]),
            algorithm=str(data["algorithm"]),
            cost=float(data["cost"]),
            time=float(data["time"]),
            optimal=bool(data["optimal"]),
            iterations=int(data["iterations"]),
            allocation=AllocationPayload.from_dict(payload) if payload is not None else None,
        )


@dataclass
class SweepResult:
    """All records of a sweep plus the plan that produced them.

    Lookups by (algorithm, throughput) go through keyed indices that are
    built incrementally as records are appended, so the per-point accessors
    used by the figure aggregations are O(1) in the sweep size instead of a
    linear scan per call.  Throughput keys are matched with a small tolerance
    (:data:`RHO_REL_TOL` / :data:`RHO_ABS_TOL`).

    Treat ``records`` as append-only: appends, truncation and wholesale
    replacement are detected and re-indexed, but swapping an interior record
    in place while keeping the tail is not, and would serve stale lookups.
    """

    plan: ExperimentPlan
    records: list[RunRecord] = field(default_factory=list)
    memo_stats: Any = field(default=None, repr=False, compare=False)

    # keyed indices, maintained lazily by _refresh_index()
    _indexed: int = field(default=0, init=False, repr=False, compare=False)
    _last_indexed: RunRecord | None = field(default=None, init=False, repr=False, compare=False)
    _rhos: list[float] = field(default_factory=list, init=False, repr=False, compare=False)
    _rho_lookup: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _by_algorithm: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _by_rho: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _by_key: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # index maintenance
    # ------------------------------------------------------------------ #
    def _resolve_rho(self, rho: float) -> float | None:
        """Map a query throughput to its canonical stored key (or ``None``)."""
        rho = float(rho)
        hit = self._rho_lookup.get(rho)
        if hit is not None:
            return hit
        for canonical in self._rhos:
            if math.isclose(canonical, rho, rel_tol=RHO_REL_TOL, abs_tol=RHO_ABS_TOL):
                self._rho_lookup[rho] = canonical
                return canonical
        return None

    def _refresh_index(self) -> None:
        # Supported mutation patterns are append/extend, truncation and
        # wholesale replacement; the identity probe on the last indexed
        # record catches those.  Swapping an interior record in place while
        # keeping the tail is not detected — treat records as append-only.
        replaced = self._indexed > 0 and (
            len(self.records) < self._indexed
            or self.records[self._indexed - 1] is not self._last_indexed
        )
        if replaced:
            self._indexed = 0
            self._rhos.clear()
            self._rho_lookup.clear()
            self._by_algorithm.clear()
            self._by_rho.clear()
            self._by_key.clear()
        for record in self.records[self._indexed :]:
            canonical = self._resolve_rho(record.rho)
            if canonical is None:
                canonical = float(record.rho)
                self._rhos.append(canonical)
                self._rhos.sort()
                self._rho_lookup[canonical] = canonical
            self._by_algorithm.setdefault(record.algorithm, []).append(record)
            self._by_rho.setdefault(canonical, []).append(record)
            self._by_key.setdefault((record.algorithm, canonical), []).append(record)
        self._indexed = len(self.records)
        self._last_indexed = self.records[-1] if self.records else None

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def algorithms(self) -> list[str]:
        return [spec.name for spec in self.plan.algorithms]

    def throughputs(self) -> list[float]:
        self._refresh_index()
        return list(self._rhos)

    def canonical_rho(self, rho: float) -> float | None:
        """The stored throughput key matching ``rho`` within tolerance."""
        self._refresh_index()
        return self._resolve_rho(rho)

    def filter(self, *, algorithm: str | None = None, rho: float | None = None) -> list[RunRecord]:
        self._refresh_index()
        if algorithm is not None and rho is not None:
            canonical = self._resolve_rho(rho)
            return list(self._by_key.get((algorithm, canonical), [])) if canonical is not None else []
        if algorithm is not None:
            return list(self._by_algorithm.get(algorithm, []))
        if rho is not None:
            canonical = self._resolve_rho(rho)
            return list(self._by_rho.get(canonical, [])) if canonical is not None else []
        return list(self.records)

    def costs_by(self, algorithm: str, rho: float) -> np.ndarray:
        return np.array([r.cost for r in self.filter(algorithm=algorithm, rho=rho)], dtype=float)

    def times_by(self, algorithm: str, rho: float) -> np.ndarray:
        return np.array([r.time for r in self.filter(algorithm=algorithm, rho=rho)], dtype=float)

    def extend(self, records: Iterable[RunRecord]) -> None:
        self.records.extend(records)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    @classmethod
    def load(cls, path: str | Path, *, allow_partial: bool = False) -> "SweepResult":
        """Read the checkpoint file a ``run_plan(store=...)`` wrote.

        Records come back in canonical unit order.  An incomplete checkpoint
        (fewer records than its plan calls for) is refused unless
        ``allow_partial``.
        """
        from .store import load_sweep_result

        return load_sweep_result(path, allow_partial=allow_partial)


def run_configuration(
    configuration: Configuration,
    algorithms: Iterable[AlgorithmSpec],
    target_throughputs: Iterable[float],
    *,
    base_seed: int = 2016,
    capture_allocations: bool = False,
) -> Iterator[RunRecord]:
    """Run every algorithm on one configuration for every target throughput.

    Records come in canonical order: throughput-major, then the algorithms'
    order.  HiGHS releases the GIL while it solves, so a call may first solve
    its ILP cells (:class:`~repro.solvers.milp.MilpSolver`) side by side on a
    thread pool that is shut down before the first record is yielded; every
    other cell is solved in the calling thread, in order.  The pool has
    ``min(ILP cells, spare CPUs)`` threads and starts only if that is two or
    more.  Spare CPUs are the CPUs the process may use, divided by the calls
    running in it at once (``serve`` runs one per job); a process that
    :mod:`multiprocessing` started (a pool worker) has one, since its pool
    already spreads the units over the CPUs.
    Records equal those of an in-order loop except for the ILP's wall-clock
    ``time``, measured while the other solves run, and a time-limited ILP's
    incumbent, which depends on the CPU share it got.

    With ``capture_allocations`` every record carries an
    :class:`AllocationPayload` (split + machine counts), letting validation
    campaigns replay exactly the allocation that was solved.
    """
    with _spare_cpus() as spare:
        cells: list = []  # (rho, spec, solver, problem), in record order
        for rho in target_throughputs:
            problem = configuration.problem(rho)
            for spec in algorithms:
                # stable_text_digest (not hash()) so the seed is identical across
                # interpreter runs and worker processes regardless of PYTHONHASHSEED
                seed = derive_seed(
                    base_seed,
                    configuration.index,
                    int(rho),
                    stable_text_digest(spec.name, bits=16),
                )
                cells.append((rho, spec, spec.build(seed=seed), problem))
        exact = [i for i, (_, _, solver, _) in enumerate(cells) if isinstance(solver, MilpSolver)]
        width = min(len(exact), spare)
        solved: dict[int, SolverResult] = {}
        if width >= 2:
            with ThreadPoolExecutor(width, thread_name_prefix="repro-ilp") as executor:
                results = executor.map(
                    lambda index: cells[index][2].solve(cells[index][3], check=False), exact
                )
                solved = dict(zip(exact, results))
        for index, (rho, spec, solver, problem) in enumerate(cells):
            cells[index] = None  # a problem is freed after its last cell, as in a plain loop
            if index in solved:
                result = solved.pop(index)
            else:
                result = solver.solve(problem, check=False)
            yield RunRecord(
                configuration=configuration.index,
                rho=float(rho),
                algorithm=spec.name,
                cost=float(result.cost),
                time=float(result.solve_time),
                optimal=bool(result.optimal),
                iterations=int(result.iterations),
                allocation=AllocationPayload.from_allocation(result.allocation)
                if capture_allocations
                else None,
            )


#: Calls of :func:`run_configuration` running in this process right now.
_running_units = 0
_running_units_lock = threading.Lock()  # serve runs a unit per job thread


@contextlib.contextmanager
def _spare_cpus() -> Iterator[int]:
    """Count a running unit for the block; yield the CPUs it may solve on at once."""
    global _running_units
    with _running_units_lock:
        _running_units += 1
        running = _running_units
    try:
        # a pool worker gets one: its siblings already use the other CPUs
        yield 1 if parent_process() is not None else _usable_cpus() // running
    finally:
        with _running_units_lock:
            _running_units -= 1


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_memo_study_key(plan: ExperimentPlan, *, capture_allocations: bool) -> str:
    """The memo-cache study fingerprint of a sweep.

    Hashes the workload setting, seeds and algorithm line-up (plus the
    execution switch that changes record content) while dropping the plan's
    name and grid extents — so a renamed or widened sweep reuses the cells of
    an earlier one.  ``"check": False`` stays in the payload so that memos
    written while the sweep still had a ``check`` switch keep hitting.
    """
    from .config import plan_to_dict
    from .memo import memo_key

    data = plan_to_dict(plan)
    for label in ("name", "num_configurations", "target_throughputs"):
        data.pop(label, None)
    return memo_key(
        {
            "kind": "sweep",
            "plan": data,
            "check": False,
            "capture_allocations": bool(capture_allocations),
        }
    )


def run_plan(
    plan: ExperimentPlan,
    *,
    backend: "ExecutionBackend | None" = None,
    store: "SweepStore | str | Path | None" = None,
    resume: bool = False,
    progress: Callable[[str], None] | None = None,
    chunk_size: int | None = None,
    capture_allocations: bool = False,
    memo=None,
) -> SweepResult:
    """Execute a full experiment plan and collect every record.

    A thin adapter over :func:`~repro.experiments.backends.run_units`, the
    fan-out driver it shares with the validation campaigns.

    Parameters
    ----------
    backend:
        Execution backend (default: a fresh
        :class:`~repro.experiments.backends.SerialBackend`).  Pass a
        :class:`~repro.experiments.backends.ProcessPoolBackend` to shard the
        sweep's work units across worker processes; results are identical to
        the serial backend up to wall-clock timings — except for time-limited
        algorithms (``time_limit`` in their params), whose incumbent-at-timeout
        depends on how much CPU each worker gets (a ``RuntimeWarning`` is
        emitted for such plans).  In a serial run a unit may solve its ILP
        cells side by side on threads (see :func:`run_configuration`; pool
        workers start none), so a time-limited incumbent also depends on the
        CPU share of its thread there.
    store:
        Optional :class:`~repro.experiments.store.SweepStore` (or its file
        path) checkpointing each completed work unit to append-only JSONL.
    resume:
        With a store whose file already exists and matches the plan
        fingerprint, skip the work units it has already completed.
    progress:
        Optional callback invoked with a short message after each completed
        work unit (the CLI passes ``print``).
    chunk_size:
        Number of throughputs per work unit (default: all of them, i.e. one
        unit per configuration, matching the paper's outer loop).
    capture_allocations:
        Attach each solved allocation (split + machine counts) to its record
        as an :class:`AllocationPayload`, round-tripped through the checkpoint
        store — the input the ``validate`` campaigns replay.  Off by default
        to keep checkpoint files small.
    memo:
        Optional :class:`~repro.experiments.memo.ResultMemoStore` (or a path
        to one).  Each (configuration, throughput) cell is fingerprinted;
        cells already cached are served without solving, freshly solved cells
        are written back, and the result's ``memo_stats`` reports hits and
        misses (counted per cell).
    """
    from .backends import SerialBackend, plan_work_units, run_units
    from .memo import memo_key
    from .store import SweepStore, as_store

    if (
        backend is not None
        and not isinstance(backend, SerialBackend)
        and any("time_limit" in spec.params for spec in plan.algorithms)
    ):
        import warnings

        warnings.warn(
            "plan contains time-limited algorithms; their incumbent-at-timeout "
            "results depend on wall-clock, so a parallel run may not reproduce "
            "a serial one exactly",
            RuntimeWarning,
            stacklevel=2,
        )
    records, memo_stats = run_units(
        plan,
        plan_work_units(plan, chunk_size=chunk_size),
        backend=backend,
        store=as_store(store, SweepStore),
        resume=resume,
        progress=progress,
        memo=memo,
        study_key=_sweep_memo_study_key(plan, capture_allocations=capture_allocations),
        cell_keys=lambda unit: [
            memo_key({"configuration": unit.configuration, "rho": float(rho)})
            for rho in unit.throughputs
        ],
        record_from_dict=RunRecord.from_dict,
        label=lambda unit, records: (
            f"configuration {unit.configuration + 1}/{plan.num_configurations}, "
            f"{len(records)} runs"
        ),
        options={"capture_allocations": capture_allocations},
    )
    return SweepResult(plan=plan, records=records, memo_stats=memo_stats)
