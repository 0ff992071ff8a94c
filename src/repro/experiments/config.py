"""Experiment configuration: which algorithms, which sweep, which setting.

The paper compares the ILP against the heuristics H1, H2, H31, H32 and H32Jump
(H0 only appears in the heuristic list of Section VI).  An
:class:`ExperimentPlan` captures one figure-generating sweep: a workload
setting, the list of algorithms, the number of random configurations and the
target-throughput range.  Presets are provided for the paper's experiments and
for fast CI-sized versions of them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

from ..core.exceptions import ConfigurationError
from ..generators.workload import WorkloadSetting, get_setting
from ..solvers.base import Solver
from ..solvers.registry import create_solver

__all__ = [
    "AlgorithmSpec",
    "ExperimentPlan",
    "paper_algorithms",
    "default_plan",
    "plan_to_dict",
    "plan_from_dict",
]

#: Algorithm names used in the paper's figures, in display order.
PAPER_ALGORITHM_NAMES: tuple[str, ...] = ("ILP", "H1", "H2", "H31", "H32", "H32Jump")


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named algorithm plus its construction parameters.

    ``seed_sensitive`` marks stochastic algorithms: the runner re-seeds them
    per (configuration, throughput) so that results are reproducible yet not
    artificially correlated across sweep points.
    """

    name: str
    params: dict = field(default_factory=dict)
    seed_sensitive: bool = False

    def build(self, seed: int | None = None) -> Solver:
        params = dict(self.params)
        if self.seed_sensitive and seed is not None:
            params.setdefault("seed", seed)
        return create_solver(self.name, **params)

    def validate(self) -> None:
        """Fail fast on unknown algorithms, misspelled options or bad values.

        Checks the spec against the registry's typed parameter schema —
        including that a ``seed_sensitive`` algorithm actually accepts a
        ``seed`` — then constructs the solver once through :meth:`build`:
        constructors only validate (``iterations=0``, a negative
        ``time_limit``), so a value the sweep would refuse is refused here,
        before any work runs, by the declarative study layer.
        """
        from ..solvers.registry import solver_entry

        entry = solver_entry(self.name)
        entry.validate_params(self.params)
        if self.seed_sensitive and not entry.accepts("seed"):
            raise ConfigurationError(
                f"algorithm {self.name!r} is marked seed_sensitive but solver "
                f"{entry.display_name!r} does not accept a 'seed' parameter"
            )
        self.build()


def paper_algorithms(
    *,
    ilp_time_limit: float | None = None,
    iterations: int = 1000,
    include_ilp: bool = True,
    include_h0: bool = False,
) -> list[AlgorithmSpec]:
    """The algorithm line-up of the paper's figures.

    Parameters
    ----------
    ilp_time_limit:
        Time limit (seconds) for the exact solver; the paper uses 100 s for the
        Figure 8 stress experiment and no limit elsewhere.
    iterations:
        Iteration budget of the iterative heuristics.
    include_ilp / include_h0:
        Toggle the exact solver and the H0 baseline.
    """
    specs: list[AlgorithmSpec] = []
    if include_ilp:
        params: dict = {}
        if ilp_time_limit is not None:
            params["time_limit"] = ilp_time_limit
        specs.append(AlgorithmSpec("ILP", params))
    if include_h0:
        specs.append(AlgorithmSpec("H0", {}, seed_sensitive=True))
    specs.append(AlgorithmSpec("H1", {}))
    specs.append(AlgorithmSpec("H2", {"iterations": iterations}, seed_sensitive=True))
    specs.append(AlgorithmSpec("H31", {"iterations": iterations}, seed_sensitive=True))
    specs.append(AlgorithmSpec("H32", {"iterations": iterations}))
    specs.append(AlgorithmSpec("H32Jump", {"iterations": iterations}, seed_sensitive=True))
    return specs


@dataclass(frozen=True)
class ExperimentPlan:
    """One sweep: a setting, algorithms, configuration count and throughputs."""

    name: str
    setting: WorkloadSetting
    algorithms: tuple[AlgorithmSpec, ...]
    num_configurations: int
    target_throughputs: tuple[int, ...]
    base_seed: int = 2016  # the paper's publication year, for determinism

    def __post_init__(self) -> None:
        if self.num_configurations <= 0:
            raise ConfigurationError("num_configurations must be positive")
        if not self.target_throughputs:
            raise ConfigurationError("target_throughputs must not be empty")
        if not self.algorithms:
            raise ConfigurationError("at least one algorithm is required")
        # Canonicalise to float so every construction path — presets, CLI
        # int flags, StudySpec JSON — serialises work units and plan headers
        # byte-identically (the fingerprint already normalised to float).
        object.__setattr__(
            self,
            "target_throughputs",
            tuple(float(rho) for rho in self.target_throughputs),
        )

    @property
    def num_records(self) -> int:
        """Number of records a complete sweep of this plan produces."""
        return (
            self.num_configurations
            * len(self.target_throughputs)
            * len(self.algorithms)
        )

    def scaled(
        self,
        *,
        num_configurations: int | None = None,
        target_throughputs: Sequence[int] | None = None,
    ) -> "ExperimentPlan":
        """A smaller copy of the plan (for tests and quick benchmarks)."""
        return replace(
            self,
            num_configurations=self.num_configurations
            if num_configurations is None
            else num_configurations,
            target_throughputs=self.target_throughputs
            if target_throughputs is None
            else tuple(target_throughputs),
        )


def plan_to_dict(plan: ExperimentPlan) -> dict[str, Any]:
    """Serialise a plan to plain JSON data (inverse of :func:`plan_from_dict`).

    The representation is canonical enough to fingerprint: two plans that
    produce the same sweep serialise identically (throughputs are normalised
    to float so ``(40, 80)`` and ``(40.0, 80.0)`` fingerprint the same).
    """
    return {
        "name": plan.name,
        "setting": asdict(plan.setting),
        "algorithms": [
            {"name": spec.name, "params": dict(spec.params), "seed_sensitive": spec.seed_sensitive}
            for spec in plan.algorithms
        ],
        "num_configurations": plan.num_configurations,
        "target_throughputs": [float(rho) for rho in plan.target_throughputs],
        "base_seed": plan.base_seed,
    }


def plan_from_dict(data: Mapping[str, Any]) -> ExperimentPlan:
    """Rebuild an :class:`ExperimentPlan` from :func:`plan_to_dict` data."""
    for key in ("name", "setting", "algorithms", "num_configurations", "target_throughputs"):
        if key not in data:
            raise ConfigurationError(f"plan data is missing the {key!r} field")
    setting_data = dict(data["setting"])
    for tuple_field in ("throughput_range", "cost_range", "target_throughputs"):
        if tuple_field in setting_data:
            setting_data[tuple_field] = tuple(setting_data[tuple_field])
    return ExperimentPlan(
        name=str(data["name"]),
        setting=WorkloadSetting(**setting_data),
        algorithms=tuple(
            AlgorithmSpec(
                name=str(entry["name"]),
                params=dict(entry.get("params", {})),
                seed_sensitive=bool(entry.get("seed_sensitive", False)),
            )
            for entry in data["algorithms"]
        ),
        num_configurations=int(data["num_configurations"]),
        target_throughputs=tuple(float(rho) for rho in data["target_throughputs"]),
        base_seed=int(data.get("base_seed", 2016)),
    )


def default_plan(
    setting_name: str,
    *,
    num_configurations: int | None = None,
    target_throughputs: Sequence[int] | None = None,
    ilp_time_limit: float | None = None,
    iterations: int = 1000,
    include_ilp: bool = True,
    include_h0: bool = False,
    base_seed: int = 2016,
) -> ExperimentPlan:
    """Build the paper's plan for a named setting, optionally scaled down."""
    setting = get_setting(setting_name)
    return ExperimentPlan(
        name=setting_name,
        setting=setting,
        algorithms=tuple(
            paper_algorithms(
                ilp_time_limit=ilp_time_limit,
                iterations=iterations,
                include_ilp=include_ilp,
                include_h0=include_h0,
            )
        ),
        num_configurations=setting.num_configurations
        if num_configurations is None
        else num_configurations,
        target_throughputs=tuple(setting.target_throughputs)
        if target_throughputs is None
        else tuple(target_throughputs),
        base_seed=base_seed,
    )
