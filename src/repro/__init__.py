"""repro: reproduction of "Minimizing Rental Cost for Multiple Recipe Applications in the Cloud".

The package implements the full system of Hanna et al. (IPDPSW 2016):

* :mod:`repro.core` — typed tasks, recipe DAGs, multi-recipe applications,
  cloud platforms, the cost model and the MinCOST problem (Sections III-IV);
* :mod:`repro.solvers` — exact algorithms: closed forms, the unbounded-knapsack
  DP, the pseudo-polynomial DP for non-shared types, the MILP of Section V-C
  (HiGHS backend) and an in-repo branch-and-bound (Gurobi substitute);
* :mod:`repro.heuristics` — the six heuristics of Section VI;
* :mod:`repro.generators` — random recipe-set and cloud generators following
  the paper's experimental protocol (Section VIII-A);
* :mod:`repro.simulation` — a discrete-event steady-state stream simulator used
  to validate allocations;
* :mod:`repro.experiments` — the sweep harness regenerating Table III and
  Figures 3-8.

Quickstart::

    from repro import Application, CloudPlatform, MinCostProblem
    from repro.solvers import MilpSolver
    from repro.heuristics import H32JumpSolver

    app = Application.from_type_sequences([[2, 4], [3, 4], [1, 2]])
    cloud = CloudPlatform.from_table([(1, 10, 10), (2, 20, 18), (3, 30, 25), (4, 40, 33)])
    problem = MinCostProblem(app, cloud, target_throughput=70)
    print(MilpSolver().solve(problem).summary())
    print(H32JumpSolver(seed=0).solve(problem).summary())
"""

from .core import (
    Allocation,
    Application,
    CloudPlatform,
    MinCostProblem,
    ProblemClass,
    ProcessorType,
    RecipeGraph,
    Task,
    ThroughputSplit,
)
from .solvers.registry import _register_defaults, available_solvers, create_solver

__version__ = "1.0.0"

__all__ = [
    "Allocation",
    "Application",
    "CloudPlatform",
    "MinCostProblem",
    "ProblemClass",
    "ProcessorType",
    "RecipeGraph",
    "Task",
    "ThroughputSplit",
    "available_solvers",
    "create_solver",
    "Study",
    "StudySpec",
    "__version__",
]

# Make the paper's algorithm names ("ILP", "H1", ...) resolvable by name.
_register_defaults()

#: The declarative study layer, loaded lazily (PEP 562) so that plain
#: ``import repro`` keeps its small footprint: the facade pulls in the
#: experiment and simulation stacks, which most solver-only users never touch.
_LAZY_EXPORTS = {
    "Study": ("repro.api", "Study"),
    "StudySpec": ("repro.experiments.spec", "StudySpec"),
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        import importlib

        module_name, attribute = _LAZY_EXPORTS[name]
        return getattr(importlib.import_module(module_name), attribute)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
