"""Linear-programming relaxation of the MinCOST MIP.

Used in two places:

* as a certified lower bound on the optimal cost (experiment metrics,
  branch-and-bound pruning),
* as the node relaxation inside :mod:`repro.solvers.branch_and_bound`.

The relaxation drops the integrality of the machine counts ``x_q`` (and of the
splits when integer splits are requested).  Because each ``x_q`` only appears
in its own capacity constraint and in the objective with a positive cost, the
relaxed optimum always sets ``x_q = load_q / r_q`` exactly, hence the closed
form used in :func:`relaxed_cost`; the general :func:`solve_lp_relaxation`
additionally accepts extra bounds on the variables, which is what the
branch-and-bound solver needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.exceptions import SolverError
from ..core.problem import MinCostProblem
from .milp import MilpFormulation, build_formulation

__all__ = ["LpSolution", "relaxed_cost", "solve_lp_relaxation"]


@dataclass
class LpSolution:
    """Solution of the LP relaxation at a branch-and-bound node."""

    cost: float
    machines: np.ndarray  # (Q,) fractional machine counts
    split: np.ndarray  # (J,) fractional throughputs
    feasible: bool


def relaxed_cost(problem: MinCostProblem) -> float:
    """Closed-form optimal value of the full LP relaxation.

    With fractional machines the cost of a split is linear,
    ``sum_j rho_j * u_j`` with ``u_j = sum_q n^j_q c_q / r_q``, so the optimum
    puts the whole throughput on the cheapest recipe per unit.
    """
    return float(problem.target_throughput * problem.unit_costs_per_recipe.min())


def solve_lp_relaxation(
    problem: MinCostProblem,
    *,
    formulation: MilpFormulation | None = None,
    lower_bounds: np.ndarray | None = None,
    upper_bounds: np.ndarray | None = None,
) -> LpSolution:
    """Solve the LP relaxation, optionally with per-variable bound overrides.

    Parameters
    ----------
    formulation:
        A pre-built matrix formulation (avoids rebuilding it at every
        branch-and-bound node).
    lower_bounds, upper_bounds:
        Optional ``(Q + J,)`` vectors of variable bounds (branching decisions).
    """
    from scipy import optimize

    if formulation is None:
        formulation = build_formulation(problem)
    n_vars = formulation.num_types + formulation.num_recipes
    lb = np.zeros(n_vars) if lower_bounds is None else np.asarray(lower_bounds, dtype=float)
    ub = np.full(n_vars, np.inf) if upper_bounds is None else np.asarray(upper_bounds, dtype=float)
    if np.any(lb > ub):
        return LpSolution(cost=np.inf, machines=np.zeros(formulation.num_types),
                          split=np.zeros(formulation.num_recipes), feasible=False)

    result = optimize.linprog(
        c=formulation.objective,
        A_ub=np.vstack(
            [
                -formulation.constraint_matrix.toarray()[0:1],  # -sum rho <= -rho
                formulation.constraint_matrix.toarray()[1:],  # capacity rows <= 0
            ]
        ),
        b_ub=np.concatenate([[-formulation.lower[0]], formulation.upper[1:]]),
        bounds=list(zip(lb, ub)),
        method="highs",
    )
    if result.status == 2:  # infeasible
        return LpSolution(cost=np.inf, machines=np.zeros(formulation.num_types),
                          split=np.zeros(formulation.num_recipes), feasible=False)
    if result.x is None:
        raise SolverError(f"LP relaxation failed: status={result.status} message={result.message!r}")
    machines, split = formulation.split_variables(result.x)
    return LpSolution(cost=float(result.fun), machines=machines, split=split, feasible=True)
