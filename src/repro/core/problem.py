"""The MinCOST problem instance (Definition 1 of the paper).

A :class:`MinCostProblem` bundles an application (the ``J`` alternative recipe
graphs), a cloud platform (the ``Q`` processor types with their costs and
throughputs) and a target throughput ``rho``.  It exposes:

* validated, cached numpy views (type-count matrix, cost and rate vectors)
  used by the solvers and heuristics,
* the split-evaluation primitives (``evaluate_split``, ``allocation_for``)
  that all optimisation code funnels through,
* classification helpers (black-box / non-shared / shared) that tell which of
  the paper's algorithms are exact for the instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .allocation import Allocation, ThroughputSplit
from .application import Application
from .cost import cost_scalar_for_split, lower_bound_cost
from .evaluator import SplitEvaluator
from .exceptions import InfeasibleProblemError, ProblemError
from .platform import CloudPlatform
from .task import TaskType

__all__ = ["ProblemClass", "MinCostProblem"]


class ProblemClass:
    """The structural classes distinguished by the paper (Sections IV and V)."""

    SINGLE_RECIPE = "single-recipe"  # Section IV-A
    BLACK_BOX = "black-box"  # Section V-A: one task per recipe, all types distinct
    NO_SHARED_TYPES = "no-shared-types"  # Section V-B
    SHARED_TYPES = "shared-types"  # Section V-C (general case)


@dataclass
class MinCostProblem:
    """A MinCOST instance: minimise rental cost for a target throughput.

    Parameters
    ----------
    application:
        The multi-recipe application ``phi``.
    platform:
        The cloud catalogue (processor types, costs, throughputs).
    target_throughput:
        The required output throughput ``rho`` (strictly positive).
    name:
        Optional label used in experiment reports.
    """

    application: Application
    platform: CloudPlatform
    target_throughput: float
    name: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # NaN compares false with everything, so test for the good case
        if not (math.isfinite(self.target_throughput) and self.target_throughput > 0):
            raise ProblemError(
                "target throughput must be a finite positive number, "
                f"got {self.target_throughput}"
            )
        self.application.validate()
        self.platform.validate()
        missing = self.platform.missing_types(self.application.types_used())
        if missing:
            raise InfeasibleProblemError(
                "the platform offers no processor for task types "
                f"{sorted(map(str, missing))}; no recipe mix can be executed"
            )

    # ------------------------------------------------------------------ #
    # convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def rho(self) -> float:
        """Alias for :attr:`target_throughput` matching the paper's notation."""
        return self.target_throughput

    @property
    def num_recipes(self) -> int:
        return self.application.num_recipes

    @property
    def num_types(self) -> int:
        return self.platform.num_types

    # ------------------------------------------------------------------ #
    # cached vectorised views
    # ------------------------------------------------------------------ #
    @cached_property
    def type_order(self) -> list[TaskType]:
        """Canonical ordering of the platform types used by all arrays below."""
        return self.platform.types()

    @cached_property
    def type_index(self) -> dict[TaskType, int]:
        return {t: k for k, t in enumerate(self.type_order)}

    @cached_property
    def counts(self) -> np.ndarray:
        """``(J, Q)`` matrix of ``n^j_q`` in canonical type order."""
        matrix = self.application.type_count_matrix(self.platform)
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def rates(self) -> np.ndarray:
        """``(Q,)`` throughput vector ``r_q``."""
        vector = self.platform.throughput_vector()
        vector.setflags(write=False)
        return vector

    @cached_property
    def costs(self) -> np.ndarray:
        """``(Q,)`` cost vector ``c_q``."""
        vector = self.platform.cost_vector()
        vector.setflags(write=False)
        return vector

    @cached_property
    def unit_costs_per_recipe(self) -> np.ndarray:
        """``u_j = sum_q n^j_q c_q / r_q``: fractional cost of one unit of throughput."""
        return self.counts @ (self.costs / self.rates)

    @cached_property
    def evaluator(self) -> SplitEvaluator:
        """The incremental/batched/memoised scoring engine over this instance.

        All heuristics and enumeration solvers funnel their candidate scoring
        through this evaluator (see :mod:`repro.core.evaluator`);
        :meth:`evaluate_split` remains the validated slow-path API.  The
        stateless tiers (``evaluate``, ``evaluate_batch``) may be used on this
        shared instance directly; searches that need the stateful incremental
        tier take a ``clone()`` so concurrent solver runs on the same problem
        never share incremental search state (clones do share the immutable
        precomputes and the lazily filled pair cache, whose fills are
        idempotent).  The memo capacity bounds the cache of the
        lattice searches that re-score revisited states (H31 stochastic
        descent, simulated annealing).
        """
        return SplitEvaluator.from_problem(self, memo_capacity=1 << 16)

    # ------------------------------------------------------------------ #
    # classification
    # ------------------------------------------------------------------ #
    def problem_class(self) -> str:
        """Which of the paper's structural cases this instance belongs to."""
        if self.application.num_recipes == 1:
            return ProblemClass.SINGLE_RECIPE
        if all(r.num_tasks == 1 for r in self.application) and not self.application.has_shared_types():
            return ProblemClass.BLACK_BOX
        if not self.application.has_shared_types():
            return ProblemClass.NO_SHARED_TYPES
        return ProblemClass.SHARED_TYPES

    def has_shared_types(self) -> bool:
        return self.application.has_shared_types()

    # ------------------------------------------------------------------ #
    # split evaluation (the single funnel used by heuristics and solvers)
    # ------------------------------------------------------------------ #
    def check_split(self, split: Sequence[float] | ThroughputSplit, *, require_target: bool = True) -> None:
        values = split.values if isinstance(split, ThroughputSplit) else tuple(split)
        if len(values) != self.num_recipes:
            raise ProblemError(
                f"split has {len(values)} entries but the application has {self.num_recipes} recipes"
            )
        if any(v < 0 for v in values):
            raise ProblemError(f"split {values} has negative entries")
        if require_target and sum(values) + 1e-9 < self.target_throughput:
            raise ProblemError(
                f"split {values} sums to {sum(values)} < target {self.target_throughput}"
            )

    def evaluate_split(self, split: Sequence[float] | ThroughputSplit) -> float:
        """Rental cost of a split, with machine sharing (the MIP objective).

        This is the validated slow-path API: shape and sign checks run on every
        call.  Optimisation loops that score many candidates should go through
        :attr:`evaluator`, whose incremental and batched tiers compute the same
        costs without the per-call overhead.
        """
        values = split.as_array() if isinstance(split, ThroughputSplit) else np.asarray(split, dtype=float)
        if values.shape != (self.num_recipes,):
            raise ProblemError(
                f"split has shape {values.shape}, expected ({self.num_recipes},)"
            )
        if np.any(values < 0):
            raise ProblemError("split has negative entries")
        return cost_scalar_for_split(self.counts, self.rates, self.costs, values)

    def allocation_for(self, split: Sequence[float] | ThroughputSplit, metadata: dict | None = None) -> Allocation:
        """Build the full allocation (machines + cost) realising a split."""
        if not isinstance(split, ThroughputSplit):
            split = ThroughputSplit.from_sequence(split)
        return Allocation.from_split(self.application, self.platform, split, metadata=metadata)

    def single_recipe_cost(self, recipe_index: int, rho: float | None = None) -> float:
        """Cost of serving throughput ``rho`` (default: the target) with one recipe."""
        rho = self.target_throughput if rho is None else rho
        split = np.zeros(self.num_recipes)
        split[recipe_index] = rho
        return cost_scalar_for_split(self.counts, self.rates, self.costs, split)

    def lower_bound(self) -> float:
        """Fractional lower bound on the optimal cost (see :func:`lower_bound_cost`)."""
        return lower_bound_cost(self.application, self.platform, self.target_throughput)

    def is_allocation_feasible(self, allocation: Allocation, *, tolerance: float = 1e-9) -> bool:
        return allocation.is_feasible(
            self.application, self.platform, self.target_throughput, tolerance=tolerance
        )

    # ------------------------------------------------------------------ #
    # derived instances
    # ------------------------------------------------------------------ #
    def with_target(self, rho: float) -> "MinCostProblem":
        """Same application and platform, different target throughput."""
        return MinCostProblem(
            application=self.application,
            platform=self.platform,
            target_throughput=rho,
            name=self.name,
            metadata=dict(self.metadata),
        )

    def restricted_to_recipe(self, recipe_index: int) -> "MinCostProblem":
        """Single-recipe sub-problem (used by H1 and the DP base case)."""
        recipe = self.application[recipe_index]
        return MinCostProblem(
            application=Application([recipe.copy()], name=f"{self.application.name}:{recipe.name}"),
            platform=self.platform,
            target_throughput=self.target_throughput,
            name=f"{self.name or 'problem'}[{recipe.name}]",
        )

    def describe(self) -> str:
        """One-paragraph human readable description used by the CLI."""
        summary = self.application.size_summary()
        return (
            f"MinCOST instance {self.name or '(unnamed)'}: "
            f"{self.num_recipes} recipes ({summary['min']}-{summary['max']} tasks each), "
            f"{self.num_types} processor types, target throughput {self.target_throughput:g}, "
            f"class '{self.problem_class()}'"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MinCostProblem(recipes={self.num_recipes}, types={self.num_types}, "
            f"rho={self.target_throughput:g})"
        )
