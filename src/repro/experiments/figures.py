"""The paper's evaluation figures (Figures 3 to 8) and the ablations as study specs.

Every figure and every ablation is a :class:`~repro.experiments.spec.StudySpec`
— a workload setting, an algorithm line-up and a series aggregation — and
:class:`~repro.api.Study` is the one way to run it:

.. code-block:: python

    from repro.api import Study
    from repro.experiments.figures import figure_spec

    spec = figure_spec("figure3", num_configurations=5)
    result = Study.from_spec(spec).run(progress=print)
    print(spec.description, result.series.series)

Figures 3, 4 and 5 solve the same sweep and differ only in their series, so
``Study.from_spec(figure_spec("figure4", ...)).run(sweep=figure3.sweep)``
aggregates Figure 4 from Figure 3's sweep without solving anything again.

Figure-to-setting mapping (see DESIGN.md):

* Figure 3 / 4 / 5 — "small" setting (20 recipes of 5-8 tasks, 5 types);
* Figure 6 — "medium" setting (10-20 tasks, 8 types);
* Figure 7 — "large" setting (50-100 tasks, 8 types);
* Figure 8 — "xlarge" ILP stress setting (100-200 tasks, 50 types, 100 s limit).

``num_configurations=100`` reproduces the paper-scale experiment.  The
``ablation_*`` constructors build the studies of the design choices DESIGN.md
calls out (iteration budget, exchange granularity, mutation percentage,
machine sharing), one spec per swept value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from ..core.exceptions import ConfigurationError
from ..generators.workload import WorkloadSetting, get_setting
from .config import AlgorithmSpec, paper_algorithms
from .spec import ExecutionSpec, StudySpec, WorkloadSpec

__all__ = [
    "figure_spec",
    "FIGURE_DEFINITIONS",
    "ablation_iterations",
    "ablation_delta",
    "ablation_mutation",
    "ablation_sharing",
]


@dataclass(frozen=True)
class _FigureDefinition:
    """What distinguishes one paper figure: setting, series, defaults."""

    setting: str
    series: str
    description: str
    default_configurations: int = 100
    default_ilp_time_limit: float | None = None


#: The paper's figures as data: the single source :func:`figure_spec` and
#: the CLI's ``figure`` choices draw from.
FIGURE_DEFINITIONS: dict[str, _FigureDefinition] = {
    "figure3": _FigureDefinition(
        setting="small",
        series="normalized_cost",
        description="Normalisation of cost with the optimal solution "
        "(20 alternative graphs, 5-8 tasks per graph)",
    ),
    "figure4": _FigureDefinition(
        setting="small",
        series="best_count",
        description="Number of times each algorithm finds the best solution "
        "(20 alternative graphs, 5-8 tasks per graph)",
    ),
    "figure5": _FigureDefinition(
        setting="small",
        series="mean_time",
        description="Computation time for the heuristics "
        "(20 alternative graphs, 5-8 tasks per graph)",
    ),
    "figure6": _FigureDefinition(
        setting="medium",
        series="normalized_cost",
        description="Normalisation of cost with the optimal solution "
        "(20 alternative graphs, 10-20 tasks per graph)",
    ),
    "figure7": _FigureDefinition(
        setting="large",
        series="normalized_cost",
        description="Normalisation of cost with the optimal solution "
        "(20 alternative graphs, 50-100 tasks per graph)",
    ),
    "figure8": _FigureDefinition(
        setting="xlarge",
        series="mean_time",
        description="Computation time for the heuristics and the time-limited ILP "
        "(10 alternative graphs, 100-200 tasks per graph, 50 machine types)",
        default_configurations=10,
        default_ilp_time_limit=100.0,
    ),
}


def figure_spec(
    name: str,
    *,
    num_configurations: int | None = None,
    target_throughputs: Sequence[float] | None = None,
    iterations: int = 1000,
    ilp_time_limit: float | None = None,
    workers: int | None = None,
    sweep_store=None,
    validation_store=None,
    resume: bool = False,
    capture_allocations: bool = False,
) -> StudySpec:
    """The :class:`StudySpec` equivalent of one ``repro-cloud figure`` invocation.

    This is the canonical arg-to-spec mapping: the CLI builds its spec through
    this function, and a hand-written ``study.json`` with the same content is
    guaranteed to run the identical sweep (the parity tests assert it).
    """
    if name not in FIGURE_DEFINITIONS:
        raise ConfigurationError(
            f"unknown figure {name!r}; available: {', '.join(sorted(FIGURE_DEFINITIONS))}"
        )
    definition = FIGURE_DEFINITIONS[name]
    if ilp_time_limit is None:
        ilp_time_limit = definition.default_ilp_time_limit
    return StudySpec(
        name=name,
        workload=WorkloadSpec(
            setting=definition.setting,
            num_configurations=definition.default_configurations
            if num_configurations is None
            else num_configurations,
            target_throughputs=None
            if target_throughputs is None
            else tuple(target_throughputs),
        ),
        algorithms=tuple(
            paper_algorithms(iterations=iterations, ilp_time_limit=ilp_time_limit)
        ),
        execution=ExecutionSpec(
            workers=workers,
            sweep_store=sweep_store,
            validation_store=validation_store,
            resume=resume,
            capture_allocations=capture_allocations,
        ),
        series=definition.series,
        description=definition.description,
    )


# --------------------------------------------------------------------------- #
# ablations (design choices called out in DESIGN.md, not in the paper)
# --------------------------------------------------------------------------- #

_ABLATION_THROUGHPUTS = (50, 100, 150, 200)


def _ablation_spec(
    name: str,
    setting: WorkloadSetting,
    algorithms: Sequence[AlgorithmSpec],
    *,
    num_configurations: int,
    target_throughputs: Sequence[float],
    description: str,
    series: str = "normalized_cost",
) -> StudySpec:
    return StudySpec(
        name=name,
        workload=WorkloadSpec(
            setting=setting,
            num_configurations=num_configurations,
            target_throughputs=tuple(target_throughputs),
        ),
        algorithms=tuple(algorithms),
        series=series,
        description=description,
    )


def ablation_iterations(
    budgets: Sequence[int] = (10, 100, 1000, 5000),
    *,
    num_configurations: int = 10,
    target_throughputs: Sequence[float] = _ABLATION_THROUGHPUTS,
) -> dict[int, StudySpec]:
    """Effect of the iteration budget on the iterative heuristics (H2/H31/H32Jump)."""
    return {
        int(budget): _ablation_spec(
            f"ablation_iterations_{int(budget)}",
            get_setting("small"),
            paper_algorithms(iterations=int(budget)),
            num_configurations=num_configurations,
            target_throughputs=target_throughputs,
            description=f"Iteration budget ablation (budget={budget})",
        )
        for budget in budgets
    }


def ablation_delta(
    deltas: Sequence[float] = (1.0, 5.0, 10.0),
    *,
    num_configurations: int = 10,
    target_throughputs: Sequence[float] = _ABLATION_THROUGHPUTS,
    iterations: int = 1000,
) -> dict[float, StudySpec]:
    """Effect of the throughput-exchange granularity ``delta`` on the heuristics."""
    specs: dict[float, StudySpec] = {}
    for delta in deltas:
        algorithms = (
            AlgorithmSpec("ILP", {}),
            AlgorithmSpec("H1", {}),
            AlgorithmSpec("H2", {"iterations": iterations, "delta": float(delta)}, seed_sensitive=True),
            AlgorithmSpec("H31", {"iterations": iterations, "delta": float(delta)}, seed_sensitive=True),
            AlgorithmSpec("H32", {"iterations": iterations, "delta": float(delta)}),
            AlgorithmSpec("H32Jump", {"iterations": iterations, "delta": float(delta)}, seed_sensitive=True),
        )
        specs[float(delta)] = _ablation_spec(
            f"ablation_delta_{delta:g}",
            get_setting("small"),
            algorithms,
            num_configurations=num_configurations,
            target_throughputs=target_throughputs,
            description=f"Exchange granularity ablation (delta={delta:g})",
        )
    return specs


def ablation_mutation(
    fractions: Sequence[float] = (0.1, 0.3, 0.5, 1.0),
    *,
    num_configurations: int = 10,
    target_throughputs: Sequence[float] = _ABLATION_THROUGHPUTS,
    iterations: int = 1000,
) -> dict[float, StudySpec]:
    """Effect of the alternative-graph mutation percentage (Section VIII-A remark).

    A fraction of 1.0 approximates the paper's first, fully random generation
    attempt where H1 alone is nearly optimal; smaller fractions create recipe
    sets where mixing graphs pays off.
    """
    base = get_setting("small")
    return {
        float(fraction): _ablation_spec(
            f"ablation_mutation_{fraction:g}",
            replace(base, name=f"small-mut{fraction:g}", mutation_fraction=float(fraction)),
            paper_algorithms(iterations=iterations),
            num_configurations=num_configurations,
            target_throughputs=target_throughputs,
            description=f"Mutation percentage ablation (fraction={fraction:g})",
        )
        for fraction in fractions
    }


def ablation_sharing(
    *,
    num_configurations: int = 10,
    target_throughputs: Sequence[float] = _ABLATION_THROUGHPUTS,
) -> StudySpec:
    """Benefit of sharing machines across recipes.

    Compares the exact shared-machine optimum (ILP) with the best achievable
    when each recipe must use its own machines (the Section V-B DP run in its
    heuristic mode), quantifying how much the general model of Section V-C
    saves.
    """
    return _ablation_spec(
        "ablation_sharing",
        get_setting("small"),
        (
            AlgorithmSpec("ILP", {}),
            AlgorithmSpec("DP", {"allow_shared_types": True}),
            AlgorithmSpec("H1", {}),
        ),
        num_configurations=num_configurations,
        target_throughputs=target_throughputs,
        description="Machine sharing ablation: shared-type optimum (ILP) vs "
        "per-recipe dimensioning (DP without sharing) vs single recipe (H1)",
        series="mean_cost",
    )
