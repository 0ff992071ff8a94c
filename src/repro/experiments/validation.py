"""Validation campaigns: replay a sweep's allocations through the simulator.

The paper's cost model *claims* that the allocations it prices sustain the
target throughput; the discrete-event simulator of :mod:`repro.simulation`
is the piece that checks the claim.  This module scales that check from a
single ad-hoc run into a **campaign**: every allocation produced by a sweep
(:class:`~repro.experiments.runner.SweepResult`), replayed over a grid of
horizons, arrival-rate multipliers (e.g. ``1.0`` for the design point and
``1.05`` for a 5 % stress test) and injection scenarios
(:class:`~repro.simulation.scenarios.ScenarioSpec`: arrival process, per-type
slowdowns, seeded failure windows), sharded into picklable work units executed
by the same :class:`~repro.experiments.backends.ExecutionBackend` machinery
as the sweep itself, with per-unit JSONL checkpointing and resume under a
plan fingerprint.

The sweep and the campaign supply their own types to one shared machinery:

=====================  ==========================  =============================
role                   sweep                       validation campaign
=====================  ==========================  =============================
plan                   ``ExperimentPlan``          :class:`ValidationPlan` (built
                                                   by :func:`plan_from_sweep`)
work unit              ``WorkUnit``                :class:`ValidationUnit`
record                 ``RunRecord``               :class:`ValidationRecord`
checkpoint store       ``SweepStore``              :class:`ValidationStore`
result                 ``SweepResult``             :class:`CampaignResult`
=====================  ==========================  =============================

``run_plan`` and :func:`run_validation` are adapters over the one driver,
:func:`~repro.experiments.backends.run_units`; ``SweepResult.load`` and
:func:`load_campaign` read through the one checkpoint reader,
:func:`~repro.experiments.store.load_checkpoint`.

Allocations come from the sweep records'
:class:`~repro.experiments.runner.AllocationPayload` (captured with
``capture_allocations=True``), so campaigns simulate *exactly* what was
solved; a sweep record without a payload is refused, never re-solved — a
time-limited solver re-run could return a different incumbent than the one
the sweep priced.  Simulation is
fully deterministic — stochastic scenarios draw from seeds derived per
(configuration, rho, scenario) with :func:`~repro.utils.rng.stable_text_digest`
— so serial, parallel and interrupt-and-resume campaigns produce
byte-identical record lines; ``tests/experiments/test_validation.py`` asserts
this, with and without stochastic scenarios.  The seed leaves the algorithm
out (common random numbers), so every algorithm at a grid point faces the
same arrivals and failures, and a work unit simulates each distinct
allocation once however many algorithms returned it.  The seed leaves the
horizon out too, so a unit covers every horizon of its (multiplier,
scenario, configuration) group and simulates each allocation once, to the
longest horizon, reading the shorter ones off the same run.  Records still
come out in the canonical order (horizon, multiplier, scenario,
configuration, source), whatever the unit shape.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..analysis.fluid import fluid_estimate
from ..core.exceptions import ConfigurationError
from ..generators.workload import generate_configuration_at
from ..simulation.engine import StreamSimulator
from ..simulation.scenarios import DEFAULT_SCENARIO, ScenarioSpec
from ..utils.rng import derive_seed, stable_text_digest
from .backends import run_units
from .config import ExperimentPlan, plan_from_dict, plan_to_dict
from .memo import MemoStats, ResultMemoStore, memo_key
from .metrics import SeriesByAlgorithm
from .runner import RHO_ABS_TOL, RHO_REL_TOL, AllocationPayload, SweepResult
from .store import JsonlCheckpointStore, as_store, load_checkpoint

__all__ = [
    "AllocationSource",
    "scenario_seed",
    "ValidationPlan",
    "ValidationUnit",
    "ValidationRecord",
    "CampaignResult",
    "ValidationStore",
    "plan_from_sweep",
    "plan_validation_units",
    "validation_plan_to_dict",
    "validation_plan_from_dict",
    "validation_fingerprint",
    "run_validation",
    "load_campaign",
    "throughput_ratio_series",
    "latency_series",
    "utilization_series",
    "reorder_peak_series",
    "backlog_series",
]


# --------------------------------------------------------------------------- #
# plan
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class AllocationSource:
    """One allocation to validate: where it came from and what it is.

    ``payload`` is the allocation the sweep solved and captured; the
    campaign replays exactly that, never a re-solve.
    """

    configuration: int
    rho: float
    algorithm: str
    payload: AllocationPayload

    def as_dict(self) -> dict:
        return {
            "configuration": self.configuration,
            "rho": self.rho,
            "algorithm": self.algorithm,
            "allocation": self.payload.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AllocationSource":
        return cls(
            configuration=int(data["configuration"]),
            rho=float(data["rho"]),
            algorithm=str(data["algorithm"]),
            payload=AllocationPayload.from_dict(data["allocation"]),
        )


#: The scenario axis of a plan built without one: the single default
#: (baseline) scenario, the paper's deterministic replay.
_DEFAULT_SCENARIOS: tuple[ScenarioSpec, ...] = (DEFAULT_SCENARIO,)

#: The format of a campaign record: format 2 is the common-random-number
#: seeding with every field written.  The memo's study key carries it, so a
#: record format change never serves old cells; the checkpoint format
#: (``ValidationStore.store_version``) may move without it.
_RECORD_FORMAT = 2


def scenario_seed(base_seed: int, source: AllocationSource, scenario: ScenarioSpec) -> int:
    """The simulation seed of one (allocation source, scenario) cell.

    Derived with :func:`~repro.utils.rng.stable_text_digest` (never ``hash``),
    so it is identical across worker processes and ``PYTHONHASHSEED`` s —
    the byte-identity of serial/parallel/resumed campaigns under stochastic
    scenarios rests on this.  Only the source's (configuration, rho) enters,
    not its algorithm: these are common random numbers, so every algorithm
    at a grid point faces the same arrivals and failure draws, algorithm
    comparisons are paired, and sources sharing an allocation share one
    simulation.  Horizon and rate multiplier are deliberately not folded in
    either: all simulations of one cell share the arrival-sequence prefix, so
    a longer horizon extends a shorter one instead of reshuffling it — which
    is what lets a unit run each cell once, to its longest horizon, and read
    every shorter horizon off that run.
    """
    return derive_seed(
        base_seed,
        stable_text_digest(f"{source.configuration}|{source.rho!r}", bits=32),
        stable_text_digest(scenario.name, bits=32),
    )


@dataclass(frozen=True)
class ValidationPlan:
    """One campaign: allocations x horizons x rate multipliers x scenarios.

    ``rate_multipliers`` scale each source's target throughput into the
    simulated arrival rate: ``1.0`` replays the design point, ``1.05`` injects
    5 % more load than the allocation was dimensioned for (a stress point the
    cost model makes no promise about).  ``scenarios`` replays every
    (source, horizon, multiplier) cell once per injection scenario
    (:class:`~repro.simulation.scenarios.ScenarioSpec`: arrival process,
    per-type slowdowns, seeded failure windows); the default is the single
    baseline scenario, the paper's deterministic replay.

    ``screen`` selects the campaign's fast-screen tier: ``"none"`` (the
    default) runs the exact DES for every grid cell; ``"fluid"`` first bounds
    each cell with the closed-form model of :mod:`repro.analysis.fluid` and
    only escalates to the DES the cells whose fluid peak utilisation reaches
    ``screen_threshold`` (or that the fluid model cannot bound).  Screened-out
    cells still produce one record each — marked ``tier="fluid"`` — so a
    screened campaign covers exactly the same grid, never silently less.
    """

    name: str
    sweep_plan: ExperimentPlan
    sources: tuple[AllocationSource, ...]
    horizons: tuple[float, ...] = (50.0,)
    rate_multipliers: tuple[float, ...] = (1.0,)
    warmup_fraction: float = 0.1
    max_datasets: int | None = None
    scenarios: tuple[ScenarioSpec, ...] = _DEFAULT_SCENARIOS
    screen: str = "none"
    screen_threshold: float = 0.85

    def __post_init__(self) -> None:
        if not self.sources:
            raise ConfigurationError("a validation plan needs at least one allocation source")
        if not self.horizons or any(h <= 0 for h in self.horizons):
            raise ConfigurationError(f"horizons must be positive, got {self.horizons}")
        if not self.rate_multipliers or any(m <= 0 for m in self.rate_multipliers):
            raise ConfigurationError(
                f"rate multipliers must be positive, got {self.rate_multipliers}"
            )
        if not (0 <= self.warmup_fraction < 1):
            raise ConfigurationError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        if self.max_datasets is not None and self.max_datasets <= 0:
            raise ConfigurationError(
                f"max_datasets must be positive (or None for unlimited), "
                f"got {self.max_datasets}"
            )
        if not self.scenarios:
            raise ConfigurationError("a validation plan needs at least one scenario")
        names = [scenario.name for scenario in self.scenarios]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"scenario names must be unique, got {names} "
                f"(the name keys seeds and series)"
            )
        if self.screen not in ("none", "fluid"):
            raise ConfigurationError(
                f"unknown screen tier {self.screen!r} (choose 'none' or 'fluid')"
            )
        if not (0 < self.screen_threshold):
            raise ConfigurationError(
                f"screen_threshold must be positive, got {self.screen_threshold}"
            )

    @property
    def num_simulations(self) -> int:
        return (
            len(self.sources)
            * len(self.horizons)
            * len(self.rate_multipliers)
            * len(self.scenarios)
        )


def plan_from_sweep(
    sweep: SweepResult,
    *,
    horizons: Sequence[float] = (50.0,),
    rate_multipliers: Sequence[float] = (1.0,),
    warmup_fraction: float = 0.1,
    max_datasets: int | None = None,
    algorithms: Sequence[str] | None = None,
    scenarios: Sequence[ScenarioSpec] | None = None,
    screen: str = "none",
    screen_threshold: float = 0.85,
    name: str | None = None,
) -> ValidationPlan:
    """Build the campaign that validates every allocation of ``sweep``.

    ``algorithms`` optionally restricts the campaign to a subset of the
    sweep's algorithms (e.g. skip re-simulating H0).  ``scenarios`` adds the
    injection axis (default: the single baseline scenario).  Every validated
    record must carry its :class:`~repro.experiments.runner.AllocationPayload`
    (a sweep run with ``capture_allocations=True``); one without is refused.
    """
    keep = set(algorithms) if algorithms is not None else None
    records = [r for r in sweep.records if keep is None or r.algorithm in keep]
    if not records:
        raise ConfigurationError(
            "the sweep holds no records to validate"
            + (f" for algorithms {sorted(keep)}" if keep is not None else "")
        )
    uncaptured = next((r for r in records if r.allocation is None), None)
    if uncaptured is not None:
        raise ConfigurationError(
            f"sweep record (configuration {uncaptured.configuration}, rho "
            f"{uncaptured.rho:g}, {uncaptured.algorithm}) carries no allocation to "
            f"validate; re-run the sweep with capture_allocations=True "
            f"(figure --capture-allocations)"
        )
    sources = tuple(
        AllocationSource(
            configuration=record.configuration,
            rho=record.rho,
            algorithm=record.algorithm,
            payload=record.allocation,
        )
        for record in records
    )
    return ValidationPlan(
        name=name if name is not None else f"validate-{sweep.plan.name}",
        sweep_plan=sweep.plan,
        sources=sources,
        horizons=tuple(float(h) for h in horizons),
        rate_multipliers=tuple(float(m) for m in rate_multipliers),
        warmup_fraction=float(warmup_fraction),
        max_datasets=max_datasets,
        scenarios=(
            _DEFAULT_SCENARIOS if scenarios is None else tuple(scenarios)
        ),
        screen=screen,
        screen_threshold=float(screen_threshold),
    )


def validation_plan_to_dict(plan: ValidationPlan) -> dict[str, Any]:
    """Canonical JSON form of a validation plan (fingerprintable).

    Every field is written, defaults included: the screen tier and threshold
    decide which cells ran the exact DES, so they are part of what the
    campaign computed and of its fingerprint.
    """
    return {
        "name": plan.name,
        "sweep_plan": plan_to_dict(plan.sweep_plan),
        "sources": [source.as_dict() for source in plan.sources],
        "horizons": [float(h) for h in plan.horizons],
        "rate_multipliers": [float(m) for m in plan.rate_multipliers],
        "warmup_fraction": plan.warmup_fraction,
        "max_datasets": plan.max_datasets,
        "scenarios": [scenario.as_dict() for scenario in plan.scenarios],
        "screen": plan.screen,
        "screen_threshold": plan.screen_threshold,
    }


def validation_plan_from_dict(data: Mapping[str, Any]) -> ValidationPlan:
    """Inverse of :func:`validation_plan_to_dict`; every field is required."""
    for key in (
        "name", "sweep_plan", "sources", "horizons", "rate_multipliers",
        "warmup_fraction", "max_datasets", "scenarios", "screen", "screen_threshold",
    ):
        if key not in data:
            raise ConfigurationError(f"validation plan data is missing the {key!r} field")
    return ValidationPlan(
        name=str(data["name"]),
        sweep_plan=plan_from_dict(data["sweep_plan"]),
        sources=tuple(AllocationSource.from_dict(entry) for entry in data["sources"]),
        horizons=tuple(float(h) for h in data["horizons"]),
        rate_multipliers=tuple(float(m) for m in data["rate_multipliers"]),
        warmup_fraction=float(data["warmup_fraction"]),
        max_datasets=None if data["max_datasets"] is None else int(data["max_datasets"]),
        scenarios=tuple(ScenarioSpec.from_dict(entry) for entry in data["scenarios"]),
        screen=str(data["screen"]),
        screen_threshold=float(data["screen_threshold"]),
    )


def validation_fingerprint(plan: ValidationPlan) -> str:
    """SHA-256 of the canonical plan serialisation (hex digest)."""
    canonical = json.dumps(
        validation_plan_to_dict(plan), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# records and units
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ValidationRecord:
    """One simulated (allocation, horizon, arrival rate) measurement.

    Every field is a deterministic function of the plan — stochastic
    scenarios draw from :func:`scenario_seed`-derived generators, never the
    wall clock — so serial, parallel and resumed campaigns serialise
    byte-identically.  ``utilization`` holds ``(type, busy fraction)`` pairs
    in a canonical sort order rather than a mapping, for the same JSON-key
    reason as :class:`~repro.experiments.runner.AllocationPayload`.
    ``scenario`` names the plan scenario the simulation ran under.

    ``tier`` records which engine produced the measurement: ``"des"`` (the
    exact discrete-event simulation) or ``"fluid"`` (the closed-form screen
    of :mod:`repro.analysis.fluid`: utilisations and the throughput ratio are
    analytic bounds, latencies are the no-queueing critical-path estimate,
    and the reorder/backlog counters are zero by construction — the fluid
    system never queues in the screened-out regime).
    """

    configuration: int
    rho: float
    algorithm: str
    horizon: float
    rate_multiplier: float
    arrival_rate: float
    arrivals: int
    completed: int
    achieved_throughput: float
    throughput_ratio: float
    mean_latency: float
    max_latency: float
    utilization: tuple[tuple[Any, float], ...]
    reorder_buffer_peak: int
    backlog: int
    peak_in_flight: int
    scenario: str = DEFAULT_SCENARIO.name
    tier: str = "des"

    def sustains_target(self, tolerance: float = 0.05) -> bool:
        """True when the measured throughput is within ``tolerance`` of the rate."""
        return self.throughput_ratio >= 1.0 - tolerance

    @property
    def mean_utilization(self) -> float:
        if not self.utilization:
            return 0.0
        return float(np.mean([u for _, u in self.utilization]))

    @property
    def max_utilization(self) -> float:
        if not self.utilization:
            return 0.0
        return float(max(u for _, u in self.utilization))

    def as_dict(self) -> dict:
        return {
            "configuration": self.configuration,
            "rho": self.rho,
            "algorithm": self.algorithm,
            "horizon": self.horizon,
            "rate_multiplier": self.rate_multiplier,
            "arrival_rate": self.arrival_rate,
            "arrivals": self.arrivals,
            "completed": self.completed,
            "achieved_throughput": self.achieved_throughput,
            "throughput_ratio": self.throughput_ratio,
            "mean_latency": self.mean_latency,
            "max_latency": self.max_latency,
            "utilization": [[type_id, value] for type_id, value in self.utilization],
            "reorder_buffer_peak": self.reorder_buffer_peak,
            "backlog": self.backlog,
            "peak_in_flight": self.peak_in_flight,
            "scenario": self.scenario,
            "tier": self.tier,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ValidationRecord":
        return cls(
            configuration=int(data["configuration"]),
            rho=float(data["rho"]),
            algorithm=str(data["algorithm"]),
            horizon=float(data["horizon"]),
            rate_multiplier=float(data["rate_multiplier"]),
            arrival_rate=float(data["arrival_rate"]),
            arrivals=int(data["arrivals"]),
            completed=int(data["completed"]),
            achieved_throughput=float(data["achieved_throughput"]),
            throughput_ratio=float(data["throughput_ratio"]),
            mean_latency=float(data["mean_latency"]),
            max_latency=float(data["max_latency"]),
            utilization=tuple((entry[0], float(entry[1])) for entry in data["utilization"]),
            reorder_buffer_peak=int(data["reorder_buffer_peak"]),
            backlog=int(data["backlog"]),
            peak_in_flight=int(data["peak_in_flight"]),
            scenario=str(data["scenario"]),
            tier=str(data["tier"]),
        )


@dataclass(frozen=True, slots=True)
class ValidationUnit:
    """One campaign work unit: sources at every horizon of one (multiplier, scenario).

    The sources all belong to one sweep configuration — all of them by
    default, at most ``chunk_size`` of them when
    :func:`plan_validation_units` is given one; this is the campaign's only
    unit shape.  Every unit covers all of ``plan.horizons``, in listed order
    (duplicates and unsorted lists kept), and its records are horizon-major:
    every source at the first horizon, then every source at the next.  Like
    the sweep's :class:`~repro.experiments.backends.WorkUnit` it carries
    indices only; the executing side looks the sources and the scenario up
    in the (pickled) plan and regenerates each source's configuration from
    the sweep seeds.  ``scenario`` indexes ``plan.scenarios``.
    """

    index: int
    rate_multiplier: float
    sources: tuple[int, ...]
    scenario: int = 0

    def __reduce__(self):
        # frozen+slots dataclasses need an explicit constructor-based reduce
        # on Python 3.10 (default slot-state restore setattr's into a frozen
        # instance); units cross process boundaries constantly, so be exact
        return (
            self.__class__,
            (self.index, self.rate_multiplier, self.sources, self.scenario),
        )

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "rate_multiplier": self.rate_multiplier,
            "sources": list(self.sources),
            "scenario": self.scenario,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ValidationUnit":
        return cls(
            index=int(data["index"]),
            rate_multiplier=float(data["rate_multiplier"]),
            sources=tuple(int(s) for s in data["sources"]),
            scenario=int(data["scenario"]),
        )

    def execute(self, plan: ValidationPlan) -> list[ValidationRecord]:
        """Simulate this unit's allocations (worker-process entry point).

        Each distinct allocation is simulated once, for all horizons: sources
        of one (configuration, rho) whose allocations match in everything the
        simulator reads — the split, and the machine counts in their own
        order (instances are numbered in it) — share the first one's records
        with only ``algorithm`` changed.  The seed leaves the algorithm out,
        so those records are exactly what simulating each of them would give.
        """
        context = _plan_context(plan)
        shared: dict[tuple, list[ValidationRecord]] = {}
        columns: list[list[ValidationRecord]] = []  # per source, one record per horizon
        for source_index in self.sources:
            source = plan.sources[source_index]
            allocation = context.allocation(source_index)
            key = (
                source.configuration,
                source.rho,
                tuple(allocation.split.values),
                tuple(allocation.machines.items()),
            )
            column = shared.get(key)
            if column is None:
                column = shared[key] = _simulate_cell(
                    plan, context, self.rate_multiplier, self.scenario, source_index
                )
            else:
                column = [replace(record, algorithm=source.algorithm) for record in column]
            columns.append(column)
        return [record for row in zip(*columns) for record in row]  # horizon-major


class _ExecutionContext:
    """Per-process cache of the deterministic objects a plan's cells share.

    Built once per (process, plan) by :func:`_plan_context` and reused across
    every work unit the process executes — this is the persistent worker
    state behind the :class:`~repro.experiments.backends.ProcessPoolBackend`
    (whose workers keep the last plan they loaded, across units and runs),
    and an equal win for serial runs.  Everything cached here is a pure
    function of the plan: configurations regenerate from the sweep seeds,
    problems from the configuration, allocations from the captured payload
    — so reuse cannot change a single record byte.
    """

    def __init__(self, plan: ValidationPlan) -> None:
        self.plan = plan
        self._configurations: dict[int, Any] = {}
        self._problems: dict[tuple[int, float], Any] = {}
        self._allocations: dict[int, Any] = {}

    def configuration(self, index: int):
        configuration = self._configurations.get(index)
        if configuration is None:
            configuration = generate_configuration_at(
                self.plan.sweep_plan.setting,
                base_seed=self.plan.sweep_plan.base_seed,
                index=index,
            )
            self._configurations[index] = configuration
        return configuration

    def problem(self, source: AllocationSource):
        key = (source.configuration, source.rho)
        problem = self._problems.get(key)
        if problem is None:
            problem = self.configuration(source.configuration).problem(source.rho)
            self._problems[key] = problem
        return problem

    def allocation(self, source_index: int):
        allocation = self._allocations.get(source_index)
        if allocation is None:
            allocation = self.plan.sources[source_index].payload.to_allocation()
            self._allocations[source_index] = allocation
        return allocation


_CONTEXT: "_ExecutionContext | None" = None


def _plan_context(plan: ValidationPlan) -> _ExecutionContext:
    """The process-wide execution context of ``plan`` (one live slot).

    Keyed by object identity: a pool worker keeps the plan it loaded from a
    run's spill file until a task names another plan's digest, so every unit
    of that plan the worker executes, in this run or a later one, shares a
    context; a serial driver running several plans in turn rebuilds the slot
    per plan.
    """
    global _CONTEXT
    if _CONTEXT is None or _CONTEXT.plan is not plan:
        _CONTEXT = _ExecutionContext(plan)
    return _CONTEXT


def _simulate_cell(
    plan: ValidationPlan,
    context: _ExecutionContext,
    rate_multiplier: float,
    scenario_index: int,
    source_index: int,
) -> list[ValidationRecord]:
    """Run one source of a :class:`ValidationUnit`: one record per horizon.

    With the fluid screen each horizon is screened on its own.  The horizons
    left for the DES cost one simulation, run to the longest of them, and
    each is read off that run (:meth:`StreamSimulator.run`'s ``prefixes``),
    equal to an independent run to it.  The simulation seed depends
    only on (configuration, rho, scenario), so how sources are grouped into
    units (``chunk_size``) can never change a record.
    """
    source = plan.sources[source_index]
    scenario = plan.scenarios[scenario_index]
    problem = context.problem(source)
    allocation = context.allocation(source_index)
    arrival_rate = source.rho * rate_multiplier
    horizons = [float(horizon) for horizon in plan.horizons]
    distinct = dict.fromkeys(horizons)  # listed order, each horizon once
    records: dict[float, ValidationRecord] = {}
    if plan.screen == "fluid":
        for horizon in distinct:
            estimate = fluid_estimate(
                problem,
                allocation,
                arrival_rate=arrival_rate,
                horizon=horizon,
                scenario=scenario,
            )
            if not estimate.flagged(plan.screen_threshold):
                records[horizon] = _fluid_record(
                    source, horizon, rate_multiplier, scenario, estimate
                )
    flagged = [horizon for horizon in distinct if horizon not in records]
    if flagged:
        simulator = StreamSimulator(
            problem,
            allocation,
            arrival_rate=arrival_rate,
            warmup_fraction=plan.warmup_fraction,
            scenario=scenario,
            seed=scenario_seed(plan.sweep_plan.base_seed, source, scenario),
        )
        report = simulator.run(
            horizon=max(flagged), max_datasets=plan.max_datasets, prefixes=flagged
        )
        for horizon, snapshot in report.metadata["prefixes"].items():
            records[horizon] = _des_record(
                source, horizon, rate_multiplier, scenario, snapshot
            )
    return [records[horizon] for horizon in horizons]


def _des_record(
    source: AllocationSource,
    horizon: float,
    rate_multiplier: float,
    scenario: ScenarioSpec,
    report,
) -> ValidationRecord:
    """The record of a cell the exact DES measured."""
    return ValidationRecord(
        configuration=source.configuration,
        rho=source.rho,
        algorithm=source.algorithm,
        horizon=horizon,
        rate_multiplier=rate_multiplier,
        arrival_rate=report.target_throughput,
        arrivals=report.arrivals,
        completed=report.completed,
        achieved_throughput=report.achieved_throughput,
        throughput_ratio=report.throughput_ratio,
        mean_latency=report.mean_latency,
        max_latency=report.max_latency,
        utilization=_sorted_utilization(report.utilization),
        reorder_buffer_peak=report.reorder_buffer_peak,
        backlog=report.backlog,
        peak_in_flight=int(report.metadata.get("peak_in_flight", 0)),
        scenario=scenario.name,
    )


def _fluid_record(
    source: AllocationSource,
    horizon: float,
    rate_multiplier: float,
    scenario: ScenarioSpec,
    estimate,
) -> ValidationRecord:
    """The screen-tier record of a cell the fluid model cleared.

    Deterministic in the plan alone (the fluid model draws no randomness),
    so screened campaigns keep the serial/parallel/resume byte-identity
    guarantee.  Arrival and completion counts are the fluid expectation
    ``rate × horizon``; the queueing-born counters (reorder peak, backlog,
    peak in flight beyond the pipeline depth) are zero by construction.
    """
    expected = int(estimate.arrival_rate * horizon)
    return ValidationRecord(
        configuration=source.configuration,
        rho=source.rho,
        algorithm=source.algorithm,
        horizon=horizon,
        rate_multiplier=rate_multiplier,
        arrival_rate=estimate.arrival_rate,
        arrivals=expected,
        completed=expected,
        achieved_throughput=estimate.throughput_ratio * estimate.arrival_rate,
        throughput_ratio=estimate.throughput_ratio,
        mean_latency=estimate.latency,
        max_latency=estimate.latency,
        utilization=tuple((type_id, value) for type_id, value in estimate.utilization),
        reorder_buffer_peak=0,
        backlog=0,
        peak_in_flight=0,
        scenario=scenario.name,
        tier="fluid",
    )


def _sorted_utilization(utilization: Mapping) -> tuple:
    """Canonical (type, busy fraction) pairs: natural key order when the type
    ids are mutually comparable (the paper's integers), string order otherwise."""
    try:
        return tuple(sorted(utilization.items()))
    except TypeError:
        return tuple(sorted(utilization.items(), key=lambda kv: str(kv[0])))


def plan_validation_units(
    plan: ValidationPlan, *, chunk_size: int | None = None
) -> list[ValidationUnit]:
    """Shard a campaign into its canonical list of work units.

    One :class:`ValidationUnit` per (multiplier, scenario, configuration)
    group, covering every horizon of the plan: a source is simulated once,
    to the longest horizon, and the shorter ones are read off the same run.
    ``chunk_size`` optionally bounds the number of sources per unit.  The
    scenario loop sits innermost of the grid axes.
    """
    if chunk_size is not None and chunk_size <= 0:
        raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")
    units: list[ValidationUnit] = []
    for multiplier in plan.rate_multipliers:
        for scenario_index in range(len(plan.scenarios)):
            for chunk in _source_chunks(plan, chunk_size):
                units.append(
                    ValidationUnit(
                        index=len(units),
                        rate_multiplier=float(multiplier),
                        sources=chunk,
                        scenario=scenario_index,
                    )
                )
    return units


def _canonical_records(
    plan: ValidationPlan,
    units: Sequence[ValidationUnit],
    records: Iterable[ValidationRecord],
) -> list[ValidationRecord]:
    """The records of ``units`` in the campaign's canonical order.

    ``records`` holds each unit's records in unit order, each unit's
    horizon-major.  The canonical order — horizon, multiplier, scenario,
    configuration, source — takes every unit's block at the first horizon,
    then every unit's block at the next.  :func:`run_validation` and
    :func:`load_campaign` both reassemble through here.
    """
    blocks: list[list[ValidationRecord]] = [[] for _ in plan.horizons]
    remaining = iter(records)
    for unit in units:
        for block in blocks:
            block.extend(islice(remaining, len(unit.sources)))
    return [record for block in blocks for record in block]


def _source_chunks(plan: ValidationPlan, chunk_size: int | None) -> list[tuple[int, ...]]:
    """Source indices grouped per sweep configuration, optionally re-chunked."""
    by_configuration: dict[int, list[int]] = {}
    for index, source in enumerate(plan.sources):
        by_configuration.setdefault(source.configuration, []).append(index)
    chunks: list[tuple[int, ...]] = []
    for configuration in sorted(by_configuration):
        group = by_configuration[configuration]
        size = len(group) if chunk_size is None else chunk_size
        for start in range(0, len(group), size):
            chunks.append(tuple(group[start : start + size]))
    return chunks


# --------------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------------- #


@dataclass
class CampaignResult:
    """All records of a validation campaign plus the plan that produced them."""

    plan: ValidationPlan
    records: list[ValidationRecord] = field(default_factory=list)
    memo_stats: "MemoStats | None" = field(default=None, repr=False, compare=False)

    def algorithms(self) -> list[str]:
        seen: dict[str, None] = {}
        for source in self.plan.sources:
            seen.setdefault(source.algorithm, None)
        return list(seen)

    def throughputs(self) -> list[float]:
        seen: list[float] = []
        for source in self.plan.sources:
            if _match_float(source.rho, seen) is None:
                seen.append(float(source.rho))
        return sorted(seen)

    def horizons(self) -> list[float]:
        return [float(h) for h in self.plan.horizons]

    def rate_multipliers(self) -> list[float]:
        return [float(m) for m in self.plan.rate_multipliers]

    def scenarios(self) -> list[str]:
        return [scenario.name for scenario in self.plan.scenarios]

    def filter(
        self,
        *,
        algorithm: str | None = None,
        rho: float | None = None,
        horizon: float | None = None,
        rate_multiplier: float | None = None,
        scenario: str | None = None,
    ) -> list[ValidationRecord]:
        out = []
        for record in self.records:
            if algorithm is not None and record.algorithm != algorithm:
                continue
            if rho is not None and not _close(record.rho, rho):
                continue
            if horizon is not None and not _close(record.horizon, horizon):
                continue
            if rate_multiplier is not None and not _close(
                record.rate_multiplier, rate_multiplier
            ):
                continue
            if scenario is not None and record.scenario != scenario:
                continue
            out.append(record)
        return out

    def worst_ratio(self) -> float:
        """The campaign's weakest achieved/target ratio (1.0 = all sustained)."""
        if not self.records:
            return float("nan")
        return min(record.throughput_ratio for record in self.records)

    def extend(self, records: Iterable[ValidationRecord]) -> None:
        self.records.extend(records)


def _close(a: float, b: float) -> bool:
    return math.isclose(float(a), float(b), rel_tol=RHO_REL_TOL, abs_tol=RHO_ABS_TOL)


def _match_float(value: float, seen: Sequence[float]) -> float | None:
    for candidate in seen:
        if _close(candidate, value):
            return candidate
    return None


# --------------------------------------------------------------------------- #
# aggregation series (the campaign counterparts of experiments.metrics)
# --------------------------------------------------------------------------- #


def _scenario_series(
    campaign: CampaignResult,
    value: Callable[[ValidationRecord], float],
    reduce: Callable[[list[float]], float],
    *,
    horizon: float | None,
    rate_multiplier: float | None,
    scenario: str | None,
    ylabel: str,
    title: str,
) -> SeriesByAlgorithm:
    algorithms = campaign.algorithms()
    throughputs = campaign.throughputs()
    # one pass over the records, bucketing by (algorithm, canonical rho) —
    # not a filter() scan per series cell, which would be O(cells x records)
    buckets: dict[tuple[str, float], list[float]] = {}
    for record in campaign.records:
        if horizon is not None and not _close(record.horizon, horizon):
            continue
        if rate_multiplier is not None and not _close(record.rate_multiplier, rate_multiplier):
            continue
        if scenario is not None and record.scenario != scenario:
            continue
        rho = _match_float(record.rho, throughputs)
        if rho is None:
            continue
        buckets.setdefault((record.algorithm, rho), []).append(value(record))
    series: dict[str, list[float]] = {name: [] for name in algorithms}
    for rho in throughputs:
        for name in algorithms:
            values = buckets.get((name, rho))
            series[name].append(reduce(values) if values else float("nan"))
    return SeriesByAlgorithm(
        throughputs=throughputs, series=series, ylabel=ylabel, title=title
    )


def _mean(values: list[float]) -> float:
    return float(np.mean(values))


def _max(values: list[float]) -> float:
    return float(max(values))


def throughput_ratio_series(
    campaign: CampaignResult,
    *,
    horizon: float | None = None,
    rate_multiplier: float | None = None,
    scenario: str | None = None,
) -> SeriesByAlgorithm:
    """Mean achieved/target throughput ratio per sweep point (1.0 = sustained)."""
    return _scenario_series(
        campaign,
        lambda r: r.throughput_ratio,
        _mean,
        horizon=horizon,
        rate_multiplier=rate_multiplier,
        scenario=scenario,
        ylabel="achieved / target throughput",
        title="Measured throughput relative to the allocation's target",
    )


def latency_series(
    campaign: CampaignResult,
    *,
    stat: str = "mean",
    horizon: float | None = None,
    rate_multiplier: float | None = None,
    scenario: str | None = None,
) -> SeriesByAlgorithm:
    """Data-set latency per sweep point: mean of means or max of maxima."""
    if stat not in ("mean", "max"):
        raise ConfigurationError(f"stat must be 'mean' or 'max', got {stat!r}")
    if stat == "mean":
        return _scenario_series(
            campaign, lambda r: r.mean_latency, _mean,
            horizon=horizon, rate_multiplier=rate_multiplier, scenario=scenario,
            ylabel="mean data-set latency", title="Mean data-set latency",
        )
    return _scenario_series(
        campaign, lambda r: r.max_latency, _max,
        horizon=horizon, rate_multiplier=rate_multiplier, scenario=scenario,
        ylabel="max data-set latency", title="Maximum data-set latency",
    )


def utilization_series(
    campaign: CampaignResult,
    *,
    horizon: float | None = None,
    rate_multiplier: float | None = None,
    scenario: str | None = None,
) -> SeriesByAlgorithm:
    """Mean busy fraction over the rented machine types, per sweep point."""
    return _scenario_series(
        campaign,
        lambda r: r.mean_utilization,
        _mean,
        horizon=horizon,
        rate_multiplier=rate_multiplier,
        scenario=scenario,
        ylabel="mean per-type utilization",
        title="Mean utilization of the rented machines",
    )


def reorder_peak_series(
    campaign: CampaignResult,
    *,
    horizon: float | None = None,
    rate_multiplier: float | None = None,
    scenario: str | None = None,
) -> SeriesByAlgorithm:
    """Worst reorder-buffer occupancy per sweep point (the paper's buffer size)."""
    return _scenario_series(
        campaign,
        lambda r: float(r.reorder_buffer_peak),
        _max,
        horizon=horizon,
        rate_multiplier=rate_multiplier,
        scenario=scenario,
        ylabel="peak reorder-buffer occupancy",
        title="Reorder buffer needed for in-order output",
    )


def backlog_series(
    campaign: CampaignResult,
    *,
    horizon: float | None = None,
    rate_multiplier: float | None = None,
    scenario: str | None = None,
) -> SeriesByAlgorithm:
    """Mean in-flight backlog at the horizon per sweep point."""
    return _scenario_series(
        campaign,
        lambda r: float(r.backlog),
        _mean,
        horizon=horizon,
        rate_multiplier=rate_multiplier,
        scenario=scenario,
        ylabel="data sets in flight at the horizon",
        title="Backlog at the end of the simulation",
    )


# --------------------------------------------------------------------------- #
# checkpoint store
# --------------------------------------------------------------------------- #


class ValidationStore(JsonlCheckpointStore):
    """Append-only JSONL checkpoint store for one validation campaign.

    The whole initialize/resume/append/parse flow lives in
    :class:`~repro.experiments.store.JsonlCheckpointStore`; this class only
    binds the campaign's plan/unit/record types to the base hooks.  The
    header carries ``"store": "validation"`` so the two checkpoint kinds can
    never be resumed against each other.  Format 3 is the unit that covers
    every horizon of a (multiplier, scenario, configuration) group (its row
    carries no horizon), over format 2's common-random-number seeding with
    every plan, unit and record field written.  Older files are refused,
    never resumed or loaded: a format-2 file's units are one horizon each,
    and a format-1 file holds records of the old seeds.  A format-2 run's
    memo still serves every cell of the re-run: the record format
    (``_RECORD_FORMAT``) did not change.
    """

    data_description = "validation"
    store_marker = "validation"
    store_version = 3
    rerun_note = "; a result memo written by a format-2 run still serves every cell"
    run_noun = "campaign"
    plan_noun = "validation plan"

    _fingerprint = staticmethod(validation_fingerprint)
    _plan_to_dict = staticmethod(validation_plan_to_dict)
    _plan_from_dict = staticmethod(validation_plan_from_dict)
    _unit_from_dict = staticmethod(ValidationUnit.from_dict)
    _record_from_dict = staticmethod(ValidationRecord.from_dict)


def load_campaign(path: str | Path, *, allow_partial: bool = False) -> CampaignResult:
    """Load a campaign checkpoint file.

    Reads through :func:`~repro.experiments.store.load_checkpoint`.  A
    checkpoint holding fewer records than its plan calls for (an
    interrupted, never-resumed campaign) is refused unless ``allow_partial``.
    """
    plan, units, records = load_checkpoint(path, ValidationStore)
    # compare record counts, not unit counts: the unit count depends on the
    # chunk_size the checkpointing run used, the record count only on the plan
    expected = plan.num_simulations
    if len(records) != expected and not allow_partial:
        raise ConfigurationError(
            f"{path} holds {len(records)} of the {expected} simulations its "
            f"plan calls for (incomplete campaign); resume it, or pass "
            f"allow_partial=True to load it anyway"
        )
    return CampaignResult(plan=plan, records=_canonical_records(plan, units, records))


# --------------------------------------------------------------------------- #
# driver
# --------------------------------------------------------------------------- #


def _memo_study_key(plan: ValidationPlan) -> str:
    """The memo-cache study fingerprint of a validation campaign.

    Hashes everything that determines how one cell's records are computed:
    the sweep plan the campaign replays (minus its name and grid extents —
    labels and outer-loop bounds never change a cell) plus the campaign's
    warm-up fraction, data-set cap and screen tier, and the record format
    (``_RECORD_FORMAT``), so cells cached under an older seeding always
    miss.  Horizons / multipliers / scenarios are cell coordinates, not
    study parameters, so they live in the cell key: more multipliers or
    scenarios reuse the cells of a narrower grid, but a unit spans every
    horizon and is served only when all its cells hit, so a wider horizon
    list recomputes whole units.  The checkpoint format is not hashed: how
    cells are grouped into units never changes a cell.
    """
    sweep = plan_to_dict(plan.sweep_plan)
    for label in ("name", "num_configurations", "target_throughputs"):
        sweep.pop(label, None)
    return memo_key(
        {
            "kind": "validation",
            "format": _RECORD_FORMAT,
            "sweep_plan": sweep,
            "warmup_fraction": plan.warmup_fraction,
            "max_datasets": plan.max_datasets,
            "screen": plan.screen,
            "screen_threshold": plan.screen_threshold,
        }
    )


def _memo_cell_keys(plan: ValidationPlan, unit: ValidationUnit) -> list[str]:
    """The memo-cache fingerprints of a unit's grid cells, in record order.

    One cell per (horizon, source), horizon-major like the unit's records.
    The source dict carries the captured allocation payload, so a cell solved
    to a different allocation can never be served another allocation's
    records; the scenario dict carries the full injection spec, so a
    renamed-but-identical scenario still hits while any parameter change
    misses.
    """
    scenario = plan.scenarios[unit.scenario].as_dict()
    sources = [plan.sources[source_index].as_dict() for source_index in unit.sources]
    return [
        memo_key(
            {
                "source": source,
                "horizon": float(horizon),
                "rate_multiplier": unit.rate_multiplier,
                "scenario": scenario,
            }
        )
        for horizon in plan.horizons
        for source in sources
    ]


def _unit_label(plan: ValidationPlan, unit: ValidationUnit) -> str:
    horizons = "/".join(f"{horizon:g}" for horizon in plan.horizons)
    return (
        f"horizons {horizons}, rate x{unit.rate_multiplier:g}, "
        f"scenario {plan.scenarios[unit.scenario].name}"
    )


def run_validation(
    plan: ValidationPlan,
    *,
    backend=None,
    store: "ValidationStore | str | Path | None" = None,
    resume: bool = False,
    progress: Callable[[str], None] | None = None,
    chunk_size: int | None = None,
    memo: "ResultMemoStore | str | Path | None" = None,
) -> CampaignResult:
    """Execute a validation campaign and collect every record.

    The campaign counterpart of :func:`~repro.experiments.runner.run_plan`,
    and like it an adapter over
    :func:`~repro.experiments.backends.run_units`: the campaign is sharded
    into work units, streamed through an
    :class:`~repro.experiments.backends.ExecutionBackend` (serial by default,
    pass a :class:`~repro.experiments.backends.ProcessPoolBackend` to
    parallelise), optionally checkpointed per unit into a
    :class:`ValidationStore` (or its file path) and resumable with
    ``resume=True``.  Records are reassembled in the canonical order
    (horizon, multiplier, scenario, configuration, source), so unit shape,
    backend choice and completion order never change the result — the
    simulation itself is deterministic.

    ``chunk_size`` caps the sources per unit (see
    :func:`plan_validation_units`); record bytes are identical for any value,
    but a resumed run must use the value the checkpoint was written with.
    ``memo`` attaches a
    :class:`~repro.experiments.memo.ResultMemoStore`: cells whose
    ``(study, cell)`` fingerprints are cached are served without simulating,
    freshly computed cells are written back, and the result's ``memo_stats``
    reports hits/misses.
    """
    units = plan_validation_units(plan, chunk_size=chunk_size)
    records, memo_stats = run_units(
        plan,
        units,
        backend=backend,
        store=as_store(store, ValidationStore),
        resume=resume,
        progress=progress,
        memo=memo,
        study_key=_memo_study_key(plan),
        cell_keys=lambda unit: _memo_cell_keys(plan, unit),
        record_from_dict=ValidationRecord.from_dict,
        label=lambda unit, records: (
            f"{_unit_label(plan, unit)}, {len(records)} simulations"
        ),
    )
    return CampaignResult(
        plan=plan, records=_canonical_records(plan, units, records), memo_stats=memo_stats
    )
