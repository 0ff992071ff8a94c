"""Registry mapping algorithm names to solver factories.

The experiment harness and the CLI refer to algorithms by the names used in the
paper's tables and figures ("ILP", "H1", "H32Jump", ...); this registry
centralises the mapping so that adding an algorithm automatically makes it
available to every sweep.

Every entry carries, besides its factory:

* a **display name** (the paper's capitalisation, e.g. ``"H32Jump"``), stored
  at registration time so :func:`available_solvers` can list algorithms
  without instantiating a single factory;
* a **typed parameter schema** (:class:`SolverParameter` per accepted option,
  derived from the factory signature unless given explicitly), so a misspelled
  construction option such as ``iteration=...`` raises a
  :class:`~repro.core.exceptions.ConfigurationError` instead of being silently
  dropped — the declarative :class:`~repro.experiments.spec.StudySpec` layer
  validates every algorithm entry through this schema before anything runs;
* a ``seed_sensitive`` default marking stochastic algorithms, used by the
  study layer to decide whether the runner should re-seed the solver per
  sweep point when the spec does not say explicitly.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from ..core.exceptions import ConfigurationError
from .base import Solver

__all__ = [
    "SolverParameter",
    "SolverEntry",
    "register_solver",
    "create_solver",
    "available_solvers",
    "create_solvers",
    "solver_entry",
    "solver_parameters",
    "validate_solver_params",
    "solver_seed_sensitive",
    "ensure_default_solvers",
]


@dataclass(frozen=True)
class SolverParameter:
    """One accepted construction option of a registered solver.

    ``annotation`` is the factory's type annotation rendered as text (empty
    when the factory is unannotated); ``required`` marks parameters without a
    default.  The schema is descriptive — value validation stays with the
    factory, which raises ``ValueError`` for out-of-range values — but the
    *names* are authoritative: anything outside the schema is rejected.
    """

    name: str
    annotation: str = ""
    required: bool = False
    default: Any = None


@dataclass(frozen=True)
class SolverEntry:
    """A registered algorithm: factory plus the metadata the harness needs."""

    key: str
    factory: Callable[..., Solver]
    display_name: str
    parameters: tuple[SolverParameter, ...] = ()
    accepts_any_kwargs: bool = False
    seed_sensitive: bool = False

    def parameter_names(self) -> tuple[str, ...]:
        return tuple(parameter.name for parameter in self.parameters)

    def accepts(self, name: str) -> bool:
        return self.accepts_any_kwargs or name in self.parameter_names()

    def validate_params(self, params: Mapping[str, Any]) -> None:
        """Reject construction options the factory does not accept."""
        if self.accepts_any_kwargs:
            return
        unknown = sorted(set(params) - set(self.parameter_names()))
        if unknown:
            accepted = ", ".join(self.parameter_names()) or "none"
            raise ConfigurationError(
                f"solver {self.display_name!r} does not accept parameter(s) "
                f"{unknown}; accepted: {accepted}"
            )


_REGISTRY: dict[str, SolverEntry] = {}


def _derive_display_name(name: str, factory: Callable[..., Solver]) -> str:
    """The factory's class-level ``name`` attribute, read without instantiating."""
    candidate = inspect.getattr_static(factory, "name", None)
    if isinstance(candidate, str) and candidate != Solver.name:
        return candidate
    return name


def _derive_parameters(
    factory: Callable[..., Solver],
) -> tuple[tuple[SolverParameter, ...], bool]:
    """Read the factory signature into a parameter schema.

    Returns ``(parameters, accepts_any_kwargs)``; an uninspectable factory
    (e.g. a C callable) conservatively accepts everything.
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # pragma: no cover - exotic factories
        return (), True
    parameters: list[SolverParameter] = []
    accepts_any = False
    for parameter in signature.parameters.values():
        if parameter.kind == inspect.Parameter.VAR_KEYWORD:
            accepts_any = True
            continue
        if parameter.kind == inspect.Parameter.VAR_POSITIONAL:
            continue
        if parameter.annotation is inspect.Parameter.empty:
            annotation = ""
        elif isinstance(parameter.annotation, str):  # `from __future__ import annotations`
            annotation = parameter.annotation
        else:
            annotation = inspect.formatannotation(parameter.annotation)
        required = parameter.default is inspect.Parameter.empty
        parameters.append(
            SolverParameter(
                name=parameter.name,
                annotation=annotation,
                required=required,
                default=None if required else parameter.default,
            )
        )
    return tuple(parameters), accepts_any


def register_solver(
    name: str,
    factory: Callable[..., Solver],
    *,
    display_name: str | None = None,
    parameters: Iterable[SolverParameter] | None = None,
    seed_sensitive: bool = False,
    overwrite: bool = False,
) -> None:
    """Register a solver factory under ``name`` (case-insensitive lookup).

    ``display_name`` defaults to the factory's class-level ``name`` attribute
    (falling back to the registered name), read without instantiation.
    ``parameters`` defaults to the schema derived from the factory signature.
    """
    key = name.lower()
    if key in _REGISTRY and not overwrite:
        raise ConfigurationError(f"solver {name!r} is already registered")
    if parameters is None:
        schema, accepts_any = _derive_parameters(factory)
    else:
        schema, accepts_any = tuple(parameters), False
    _REGISTRY[key] = SolverEntry(
        key=key,
        factory=factory,
        display_name=display_name
        if display_name is not None
        else _derive_display_name(name, factory),
        parameters=schema,
        accepts_any_kwargs=accepts_any,
        seed_sensitive=seed_sensitive,
    )


def _entry(name: str) -> SolverEntry:
    key = name.lower()
    if key not in _REGISTRY:
        raise ConfigurationError(
            f"unknown solver {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[key]


def solver_entry(name: str) -> SolverEntry:
    """The full registry entry of ``name`` (case-insensitive)."""
    return _entry(name)


def solver_parameters(name: str) -> tuple[SolverParameter, ...]:
    """The typed parameter schema of the solver registered under ``name``."""
    return _entry(name).parameters


def solver_seed_sensitive(name: str) -> bool:
    """Whether ``name`` is registered as stochastic (re-seeded per sweep point)."""
    return _entry(name).seed_sensitive


def validate_solver_params(name: str, params: Mapping[str, Any]) -> None:
    """Raise :class:`ConfigurationError` for options ``name`` does not accept."""
    _entry(name).validate_params(params)


def available_solvers() -> list[str]:
    """Names of all registered algorithms (canonical capitalisation).

    Reads the display names stored at registration time — no factory is
    instantiated, so listing never runs solver constructors (or their side
    effects) and stays O(registry size).
    """
    return sorted({entry.display_name for entry in _REGISTRY.values()}, key=str.lower)


def create_solver(name: str, **kwargs) -> Solver:
    """Instantiate the solver registered under ``name``.

    Keyword arguments are forwarded to the factory (e.g. ``time_limit`` for the
    ILP, ``iterations`` for the iterative heuristics, ``seed`` for the random
    ones) after validation against the entry's parameter schema: an option the
    factory does not accept raises a :class:`ConfigurationError` naming the
    accepted ones, and so does a value the factory rejects (its
    ``ValueError``, e.g. ``iterations=0``).
    """
    entry = _entry(name)
    entry.validate_params(kwargs)
    try:
        return entry.factory(**kwargs)
    except ValueError as exc:
        raise ConfigurationError(f"solver {entry.display_name!r}: {exc}") from exc


def create_solvers(names: Iterable[str], **common_kwargs) -> list[Solver]:
    """Instantiate several solvers, forwarding only the kwargs each accepts.

    Sharing a kwarg across heterogeneous solvers is the point of this helper
    (``time_limit`` applies to the exact solvers, ``iterations`` to the
    iterative heuristics), so per-solver filtering is intentional — but a
    kwarg accepted by *none* of the requested solvers is a typo, not a
    filter, and raises a :class:`ConfigurationError` instead of being
    silently dropped.
    """
    entries = [_entry(name) for name in names]
    used: set[str] = set()
    solvers: list[Solver] = []
    for entry in entries:
        kwargs = {
            arg: value for arg, value in common_kwargs.items() if entry.accepts(arg)
        }
        used.update(kwargs)
        solvers.append(entry.factory(**kwargs))
    dropped = sorted(set(common_kwargs) - used)
    if dropped:
        accepted = sorted({p for entry in entries for p in entry.parameter_names()})
        raise ConfigurationError(
            f"keyword argument(s) {dropped} are not accepted by any of the "
            f"requested solvers {[entry.display_name for entry in entries]}; "
            f"accepted across them: {', '.join(accepted) or 'none'}"
        )
    return solvers


def ensure_default_solvers() -> None:
    """Make sure the built-in algorithms are registered (idempotent).

    Importing :mod:`repro` registers them once; execution backends call this
    from worker processes so a sweep work unit can rebuild its
    :class:`~repro.experiments.config.AlgorithmSpec` solvers regardless of how
    the worker was started (fork, spawn, forkserver).
    """
    _register_defaults()


def _register_defaults() -> None:
    """Register the built-in algorithms (called on package import)."""
    # Imported lazily to avoid circular imports at module load time.
    from ..heuristics.h0_random import H0RandomSolver
    from ..heuristics.h1_best_graph import H1BestGraphSolver
    from ..heuristics.h2_random_walk import H2RandomWalkSolver
    from ..heuristics.h31_stochastic_descent import H31StochasticDescentSolver
    from ..heuristics.h32_steepest_gradient import H32SteepestGradientSolver
    from ..heuristics.h32_jump import H32JumpSolver
    from ..heuristics.h4_simulated_annealing import H4SimulatedAnnealingSolver
    from .branch_and_bound import BranchAndBoundSolver
    from .dynprog import NonSharedDynamicProgramSolver
    from .exhaustive import ExhaustiveSolver
    from .knapsack import BlackBoxKnapsackSolver
    from .milp import MilpSolver

    # (factory, seed_sensitive): seed-sensitive algorithms are re-seeded per
    # (configuration, throughput) by the runner unless a spec says otherwise
    defaults: dict[str, tuple[Callable[..., Solver], bool]] = {
        "ilp": (MilpSolver, False),
        "milp": (MilpSolver, False),
        "b&b": (BranchAndBoundSolver, False),
        "bnb": (BranchAndBoundSolver, False),
        "dp": (NonSharedDynamicProgramSolver, False),
        "knapsack": (BlackBoxKnapsackSolver, False),
        "knapsack-dp": (BlackBoxKnapsackSolver, False),
        "exhaustive": (ExhaustiveSolver, False),
        "h0": (H0RandomSolver, True),
        "h1": (H1BestGraphSolver, False),
        "h2": (H2RandomWalkSolver, True),
        "h31": (H31StochasticDescentSolver, True),
        "h32": (H32SteepestGradientSolver, False),
        "h32jump": (H32JumpSolver, True),
        "h4": (H4SimulatedAnnealingSolver, True),
        "h4-sa": (H4SimulatedAnnealingSolver, True),
    }
    for name, (factory, seed_sensitive) in defaults.items():
        if name.lower() not in _REGISTRY:
            register_solver(name, factory, seed_sensitive=seed_sensitive)
