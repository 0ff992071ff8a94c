"""Heuristics of Section VI: H0, H1, H2, H31, H32, H32Jump."""

from .base import BaseHeuristic, HeuristicTrace, IterativeHeuristic, best_single_recipe_split
from .h0_random import H0RandomSolver
from .h1_best_graph import H1BestGraphSolver
from .h2_random_walk import H2RandomWalkSolver
from .h31_stochastic_descent import H31StochasticDescentSolver
from .h32_jump import H32JumpSolver
from .h32_steepest_gradient import H32SteepestGradientSolver, steepest_descent
from .h4_simulated_annealing import H4SimulatedAnnealingSolver
from .neighborhood import (
    all_exchanges,
    exchange_move_arrays,
    exchange_moves,
    random_exchange,
    random_move,
    random_split,
    transfer,
)

__all__ = [
    "BaseHeuristic",
    "HeuristicTrace",
    "IterativeHeuristic",
    "best_single_recipe_split",
    "H0RandomSolver",
    "H1BestGraphSolver",
    "H2RandomWalkSolver",
    "H31StochasticDescentSolver",
    "H32JumpSolver",
    "H32SteepestGradientSolver",
    "H4SimulatedAnnealingSolver",
    "steepest_descent",
    "all_exchanges",
    "exchange_move_arrays",
    "exchange_moves",
    "random_exchange",
    "random_move",
    "random_split",
    "transfer",
]
