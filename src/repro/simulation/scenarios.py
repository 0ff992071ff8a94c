"""Seeded scenario injection for the stream simulator.

The paper's cost model promises feasibility under a *smooth, deterministic*
arrival stream served by machines that never slow down or fail.  This module
describes everything a validation campaign can inject to probe where that
promise bends:

* an :class:`ArrivalProcess` — how data-set arrival times are generated at a
  mean rate (the deterministic stride of the paper, a Poisson process, an
  on/off bursty stream, or batched arrivals);
* per-type **slowdowns** — a factor applied to the service rate of every
  rented instance of a type (``0.5`` = machines of that type run at half
  speed);
* seeded transient **failure windows** — during ``[start, start + duration)``
  a seeded choice of ``count`` instances of a type stops taking work (tasks
  already in service drain; queued tasks wait for the window to end).

A :class:`ScenarioSpec` bundles the three axes under a name.  Every spec is a
plain frozen value object that round-trips through ``as_dict``/``from_dict``
(JSONL-serialisable), so scenarios ride inside
:class:`~repro.experiments.validation.ValidationPlan` checkpoints and their
fingerprints.  All randomness is drawn from generators the *caller* seeds —
the campaign layer derives one seed per (allocation source, scenario) with
:func:`repro.utils.rng.stable_text_digest`, which keeps serial, parallel and
resumed campaigns byte-identical.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Any, ClassVar, Iterator, Mapping

import numpy as np

from ..core.exceptions import SimulationError
from ..core.task import TaskType

__all__ = [
    "ArrivalProcess",
    "DeterministicArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
    "BatchArrivals",
    "arrival_process_from_dict",
    "parse_arrival_spec",
    "FailureWindow",
    "ScenarioSpec",
    "DEFAULT_SCENARIO",
]


# --------------------------------------------------------------------------- #
# arrival processes
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ArrivalProcess:
    """How data-set arrival times are generated at a mean rate.

    Sub-classes carry their shape parameters as dataclass fields (so equality,
    hashing and serialisation come for free) and implement :meth:`times`: an
    infinite non-decreasing stream of arrival times starting at ``t = 0`` —
    every process injects its first data set immediately, like the
    deterministic stream always has.

    Arrival *indices* are assigned by the consumer in stream order, so the
    process only decides *when* data sets arrive, never how they are routed.
    """

    kind: ClassVar[str] = ""

    def times(self, rate: float, rng: np.random.Generator) -> Iterator[float]:
        """Yield arrival times forever; deterministic given ``rate`` and ``rng``."""
        raise NotImplementedError

    def peak_rate_factor(self) -> float:
        """Sustained peak rate over the mean rate (``>= 1``).

        The factor by which the process concentrates its mean rate into its
        busiest sustained phase: ``1.0`` for processes whose rate never
        departs from the mean over any on-phase-length window (deterministic,
        Poisson, batch — batches burst instantaneously but not over a
        sustained window).  The fluid screen multiplies utilisations by this
        before comparing against its escalation threshold.
        """
        return 1.0

    def as_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"kind": self.kind}
        for spec in dataclasses.fields(self):
            data[spec.name] = getattr(self, spec.name)
        return data


@dataclass(frozen=True)
class DeterministicArrivals(ArrivalProcess):
    """The paper's smooth stream: arrival ``n`` at exactly ``n / rate``.

    Computed by index, never by accumulating ``+= 1/rate`` — over long
    horizons the accumulated floating-point error of the latter can drop (or
    invent) the final arrival, which is exactly the drift bug this process
    replaced in the engine.
    """

    kind: ClassVar[str] = "deterministic"

    def times(self, rate: float, rng: np.random.Generator) -> Iterator[float]:
        for index in itertools.count():
            yield index / rate


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: i.i.d. exponential gaps with mean ``1 / rate``."""

    kind: ClassVar[str] = "poisson"

    def times(self, rate: float, rng: np.random.Generator) -> Iterator[float]:
        now = 0.0
        while True:
            yield now
            now += rng.exponential(1.0 / rate)


@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """On/off-modulated Poisson arrivals preserving the mean rate.

    The stream alternates ``on`` time units of Poisson arrivals and ``off``
    silent time units; during the on-phase the instantaneous rate is scaled by
    ``(on + off) / on`` so the long-run mean stays at ``rate``.  Internally
    the process draws a plain Poisson stream in *on-time* and maps it onto the
    absolute axis by inserting the off-gaps.
    """

    kind: ClassVar[str] = "bursty"

    on: float = 1.0
    off: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "on", float(self.on))
        object.__setattr__(self, "off", float(self.off))
        if self.on <= 0 or self.off <= 0:
            raise SimulationError(
                f"bursty on/off durations must be positive, got on={self.on}, off={self.off}"
            )

    def times(self, rate: float, rng: np.random.Generator) -> Iterator[float]:
        burst_rate = rate * (self.on + self.off) / self.on
        cycle = self.on + self.off
        on_time = 0.0
        while True:
            cycles, within = divmod(on_time, self.on)
            yield cycles * cycle + within
            on_time += rng.exponential(1.0 / burst_rate)

    def peak_rate_factor(self) -> float:
        """The on-phase rate scaling, ``(on + off) / on`` — the whole mean
        rate is delivered inside the on-fraction of each cycle."""
        return (self.on + self.off) / self.on


@dataclass(frozen=True)
class BatchArrivals(ArrivalProcess):
    """Batched arrivals: ``size`` data sets at once, every ``size / rate``.

    The batch times are computed by batch index (drift-free, like
    :class:`DeterministicArrivals`); within a batch every data set shares the
    same arrival time and is ordered by its stream index.
    """

    kind: ClassVar[str] = "batch"

    size: int = 2

    def __post_init__(self) -> None:
        if self.size != int(self.size):
            raise SimulationError(f"batch size must be an integer, got {self.size}")
        object.__setattr__(self, "size", int(self.size))
        if self.size < 1:
            raise SimulationError(f"batch size must be >= 1, got {self.size}")

    def times(self, rate: float, rng: np.random.Generator) -> Iterator[float]:
        spacing = self.size / rate
        for index in itertools.count():
            yield (index // self.size) * spacing


_ARRIVAL_KINDS: dict[str, type[ArrivalProcess]] = {
    cls.kind: cls
    for cls in (DeterministicArrivals, PoissonArrivals, BurstyArrivals, BatchArrivals)
}


def arrival_process_from_dict(data: Mapping[str, Any]) -> ArrivalProcess:
    """Inverse of :meth:`ArrivalProcess.as_dict` (dispatches on ``"kind"``)."""
    kind = data.get("kind")
    cls = _ARRIVAL_KINDS.get(kind)
    if cls is None:
        raise SimulationError(
            f"unknown arrival process kind {kind!r} (choose from {sorted(_ARRIVAL_KINDS)})"
        )
    params = {key: value for key, value in data.items() if key != "kind"}
    names = {spec.name for spec in dataclasses.fields(cls)}
    unknown = set(params) - names
    if unknown:
        raise SimulationError(
            f"arrival process {kind!r} does not take parameter(s) {sorted(unknown)}"
        )
    return cls(**params)


def parse_arrival_spec(text: str) -> ArrivalProcess:
    """Parse a CLI arrival token: ``kind`` or ``kind:key=value,key=value``.

    Examples: ``deterministic``, ``poisson``, ``bursty:on=1,off=3``,
    ``batch:size=5``.
    """
    kind, _, params_text = text.strip().partition(":")
    data: dict[str, Any] = {"kind": kind.strip()}
    if params_text:
        for item in params_text.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key.strip():
                raise SimulationError(
                    f"malformed arrival parameter {item!r} in {text!r} "
                    f"(expected key=value)"
                )
            data[key.strip()] = _number(value.strip(), text)
    return arrival_process_from_dict(data)


def _number(text: str, spec: str) -> int | float:
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise SimulationError(
                f"arrival parameter value {text!r} in {spec!r} is not a number"
            ) from None


# --------------------------------------------------------------------------- #
# failures and the scenario bundle
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class FailureWindow:
    """A transient failure: ``count`` instances of a type down for a while.

    During ``[start, start + duration)`` the affected instances accept no new
    work and start no queued task; a task already in service when the window
    opens drains normally (the model is a machine taken out of rotation, not a
    crash that loses work).  *Which* instances of the type fail is drawn from
    the scenario's seeded generator, so campaigns stay reproducible.  A window
    naming a type the simulated allocation does not rent is skipped — one
    scenario is shared by allocations with different machine mixes.
    """

    type_id: TaskType
    start: float
    duration: float
    count: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "duration", float(self.duration))
        object.__setattr__(self, "count", int(self.count))
        if self.start < 0:
            raise SimulationError(f"failure window start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise SimulationError(
                f"failure window duration must be positive, got {self.duration}"
            )
        if self.count < 1:
            raise SimulationError(f"failure count must be >= 1, got {self.count}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": self.type_id,
            "start": self.start,
            "duration": self.duration,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FailureWindow":
        return cls(
            type_id=data["type"],
            start=float(data["start"]),
            duration=float(data["duration"]),
            count=int(data.get("count", 1)),
        )


def _reject_unknown_fields(data: Mapping[str, Any], allowed: tuple, context: str) -> None:
    """Strict-deserialisation guard (the simulation-layer twin of the study
    layer's ``_reject_unknown``): a misspelled scenario field that silently
    deserialises is a silently different experiment."""
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise SimulationError(
            f"{context} holds unknown field(s) {unknown}; allowed: {', '.join(allowed)}"
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One named injection scenario: arrival process + slowdowns + failures.

    ``slowdowns`` holds ``(type, factor)`` pairs — factor ``0.5`` halves the
    service rate of every instance of the type, ``1.0`` is a no-op (pairs
    rather than a mapping, for the same canonical-JSON reason as
    :class:`~repro.experiments.runner.AllocationPayload`).  Types absent from
    a simulated allocation are skipped, like failure windows.

    The default-constructed spec (``baseline``: deterministic arrivals, no
    modifiers) reproduces the paper's assumptions exactly and is what every
    pre-scenario checkpoint implicitly ran.  A scenario is pure scientific
    content: its name seeds the simulation stream
    (:func:`~repro.experiments.validation.scenario_seed`) and every other
    field shapes the injected load.
    """

    name: str = "baseline"
    arrival: ArrivalProcess = DeterministicArrivals()
    slowdowns: tuple[tuple[TaskType, float], ...] = ()
    failures: tuple[FailureWindow, ...] = ()

    _FIELDS = ("name", "arrival", "slowdowns", "failures")

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise SimulationError("a scenario needs a non-empty name")
        object.__setattr__(
            self,
            "slowdowns",
            tuple((type_id, float(factor)) for type_id, factor in self.slowdowns),
        )
        object.__setattr__(self, "failures", tuple(self.failures))
        seen: set = set()
        for type_id, factor in self.slowdowns:
            if factor <= 0:
                raise SimulationError(
                    f"slowdown factor for type {type_id!r} must be positive, got {factor}"
                )
            if type_id in seen:
                raise SimulationError(f"duplicate slowdown for type {type_id!r}")
            seen.add(type_id)

    @property
    def is_default(self) -> bool:
        """True for the spec every pre-scenario checkpoint implicitly used."""
        return self == DEFAULT_SCENARIO

    def slowdown_map(self) -> dict[TaskType, float]:
        return dict(self.slowdowns)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "arrival": self.arrival.as_dict(),
            "slowdowns": [[type_id, factor] for type_id, factor in self.slowdowns],
            "failures": [window.as_dict() for window in self.failures],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        _reject_unknown_fields(data, cls._FIELDS, "scenario spec")
        return cls(
            name=str(data["name"]),
            arrival=arrival_process_from_dict(data.get("arrival", {"kind": "deterministic"})),
            slowdowns=tuple(
                (entry[0], float(entry[1])) for entry in data.get("slowdowns", ())
            ),
            failures=tuple(
                FailureWindow.from_dict(entry) for entry in data.get("failures", ())
            ),
        )


#: The scenario of the paper's cost model — and of every checkpoint written
#: before scenarios existed.
DEFAULT_SCENARIO = ScenarioSpec()
