"""MILP formulation of the general MinCOST problem (Section V-C).

The paper characterises the optimal solution of the general, shared-type case
with the mixed integer program

    minimise    sum_q c_q x_q
    subject to  sum_j rho_j >= rho                        (1)
                sum_j n^j_q rho_j <= x_q r_q   for all q  (2)
                x_q integer >= 0, rho_j >= 0

and solves it with Gurobi.  Gurobi is proprietary and unavailable offline, so
this module builds the exact same matrix formulation and hands it to
``scipy.optimize.milp`` (the bundled HiGHS branch-and-cut solver).  The
substitution is documented in DESIGN.md: any exact MILP solver returns the same
optimal objective values, and HiGHS exposes the same time-limit behaviour the
paper studies in Figure 8.

Variable order: ``[x_1 ... x_Q, rho_1 ... rho_J]``.

scipy is imported by the functions that build and solve, not at module load:
importing the package (the CLI, ``serve``, ``lint``) never pays for it.
:meth:`MilpSolver.solve` imports it before the solve is timed, so no ILP time
holds the import.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.allocation import ThroughputSplit
from ..core.exceptions import SolverError
from ..core.problem import MinCostProblem
from .base import SolverResult, SplitSolver

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["MilpFormulation", "build_formulation", "MilpSolver"]


@dataclass
class MilpFormulation:
    """Matrix form of the Section V-C MIP, ready for a MILP backend.

    Attributes
    ----------
    objective:
        ``(Q + J,)`` cost vector (zeros on the ``rho_j`` block).
    constraint_matrix:
        ``(1 + Q, Q + J)`` sparse matrix ``A`` with the throughput-covering row
        first and one capacity row per type.
    lower, upper:
        Constraint bounds such that ``lower <= A v <= upper``.
    integrality:
        Per-variable integrality flags (1 = integer, 0 = continuous).
    num_types, num_recipes:
        Block sizes, for unpacking solutions.
    """

    objective: np.ndarray
    constraint_matrix: sparse.csr_matrix
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    num_types: int
    num_recipes: int

    def split_variables(self, solution: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split a raw solution vector into ``(x, rho)`` blocks."""
        return solution[: self.num_types], solution[self.num_types :]


def build_formulation(problem: MinCostProblem, *, integer_splits: bool = True) -> MilpFormulation:
    """Build the MIP of Section V-C for a problem instance.

    Parameters
    ----------
    integer_splits:
        When true the per-recipe throughputs ``rho_j`` are integer variables.
        The paper notes that because processor throughputs are integers the
        split can be restricted to integer values; Table III's optimal
        solutions are integral.  Set to ``False`` for the continuous
        relaxation of the split (the machine counts stay integral).
    """
    from scipy import sparse

    Q = problem.num_types
    J = problem.num_recipes
    counts = problem.counts  # (J, Q)
    rates = problem.rates
    costs = problem.costs
    rho = problem.target_throughput

    objective = np.concatenate([costs, np.zeros(J)])

    # Row 0: sum_j rho_j >= rho.
    cover_row = np.concatenate([np.zeros(Q), np.ones(J)])
    # Rows 1..Q: sum_j n^j_q rho_j - x_q r_q <= 0.
    capacity_block = np.hstack([-np.diag(rates), counts.T])  # (Q, Q + J)
    matrix = sparse.csr_matrix(np.vstack([cover_row, capacity_block]))

    lower = np.concatenate([[rho], np.full(Q, -np.inf)])
    upper = np.concatenate([[np.inf], np.zeros(Q)])

    integrality = np.concatenate(
        [np.ones(Q), np.ones(J) if integer_splits else np.zeros(J)]
    )
    return MilpFormulation(
        objective=objective,
        constraint_matrix=matrix,
        lower=lower,
        upper=upper,
        integrality=integrality,
        num_types=Q,
        num_recipes=J,
    )


class MilpSolver(SplitSolver):
    """Exact solver for the general shared-type case via ``scipy.optimize.milp``.

    Parameters
    ----------
    time_limit:
        Wall-clock limit in seconds handed to HiGHS (the paper uses 100 s in
        the Figure 8 experiment).  When the limit is hit the best incumbent is
        returned and ``optimal`` is ``False`` in the result metadata, matching
        the paper's observation that the ILP "returns its current solution
        with smallest cost but cannot guarantee that it is optimal".
    integer_splits:
        See :func:`build_formulation`.
    mip_rel_gap:
        Relative optimality gap tolerance passed to HiGHS (0 = prove optimality).
    """

    name = "ILP"
    exact = True

    def __init__(
        self,
        time_limit: float | None = None,
        *,
        integer_splits: bool = True,
        mip_rel_gap: float = 0.0,
    ) -> None:
        if time_limit is not None and time_limit <= 0:
            raise ValueError(f"time_limit must be positive, got {time_limit}")
        if mip_rel_gap < 0:
            raise ValueError(f"mip_rel_gap must be non-negative, got {mip_rel_gap}")
        self.time_limit = time_limit
        self.integer_splits = bool(integer_splits)
        self.mip_rel_gap = float(mip_rel_gap)

    def solve(self, problem: MinCostProblem, *, check: bool = True) -> SolverResult:
        # the first solve of a process, and the ILPs of a unit started beside
        # it on threads, would otherwise each time scipy's ~0.3 s import
        importlib.import_module("scipy.optimize")
        return super().solve(problem, check=check)

    def solve_split(self, problem: MinCostProblem) -> tuple[ThroughputSplit, dict[str, Any]]:
        from scipy import optimize

        formulation = build_formulation(problem, integer_splits=self.integer_splits)
        options: dict[str, Any] = {"mip_rel_gap": self.mip_rel_gap}
        if self.time_limit is not None:
            options["time_limit"] = float(self.time_limit)
        constraints = optimize.LinearConstraint(
            formulation.constraint_matrix, formulation.lower, formulation.upper
        )
        bounds = optimize.Bounds(lb=0, ub=np.inf)
        result = optimize.milp(
            c=formulation.objective,
            constraints=constraints,
            integrality=formulation.integrality,
            bounds=bounds,
            options=options,
        )
        if result.x is None:
            raise SolverError(
                f"MILP backend failed on {problem!r}: status={result.status} "
                f"message={result.message!r}"
            )
        machines, rho = formulation.split_variables(result.x)
        # HiGHS returns floats; snap the integral variables.
        rho = np.maximum(rho, 0.0)
        if self.integer_splits:
            rho = np.rint(rho)
        # Rounding may leave the cover constraint a hair short; top up the largest entry.
        deficit = problem.target_throughput - rho.sum()
        if deficit > 0:
            rho[int(np.argmax(rho))] += deficit
        split = ThroughputSplit.from_sequence(rho)
        proven_optimal = bool(result.status == 0)
        meta = {
            "optimal": proven_optimal,
            "status": int(result.status),
            "message": str(result.message),
            "mip_gap": float(getattr(result, "mip_gap", 0.0) or 0.0),
            "milp_objective": float(result.fun) if result.fun is not None else None,
            "machines_raw": np.rint(machines).astype(int).tolist(),
            "time_limit": self.time_limit,
        }
        return split, meta
