"""Tests for the Section V-A unbounded-knapsack dynamic program."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProblemError
from repro.solvers import BlackBoxKnapsackSolver, solve_covering_knapsack


class TestCoveringKnapsack:
    def test_zero_demand_needs_nothing(self):
        cost, counts = solve_covering_knapsack([10, 20], [5, 9], 0)
        assert cost == 0 and counts.sum() == 0

    def test_single_type(self):
        cost, counts = solve_covering_knapsack([10], [7], 35)
        assert counts.tolist() == [4]
        assert cost == 28

    def test_prefers_cheaper_coverage(self):
        # type A: rate 10 cost 10; type B: rate 25 cost 20 (cheaper per unit)
        cost, counts = solve_covering_knapsack([10, 25], [10, 20], 50)
        assert cost == 40 and counts.tolist() == [0, 2]

    def test_mixes_types_when_beneficial(self):
        # demand 35: 1xB (25) + 1xA (10) = 30 beats 2xB = 40 and 4xA = 40
        cost, counts = solve_covering_knapsack([10, 25], [10, 20], 35)
        assert cost == 30
        assert counts.tolist() == [1, 1]

    def test_counts_cover_demand(self):
        rates = np.array([7, 13, 29])
        costs = np.array([3, 8, 11])
        for demand in (1, 10, 50, 97):
            cost, counts = solve_covering_knapsack(rates, costs, demand)
            assert counts @ rates >= demand
            assert cost == pytest.approx(counts @ costs)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            solve_covering_knapsack([], [], 5)
        with pytest.raises(ValueError):
            solve_covering_knapsack([10, -1], [1, 1], 5)
        with pytest.raises(ValueError):
            solve_covering_knapsack([10], [1, 2], 5)

    @given(
        rates=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4),
        costs=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4),
        demand=st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_optimality_against_brute_force(self, rates, costs, demand):
        size = min(len(rates), len(costs))
        rates, costs = rates[:size], costs[:size]
        dp_cost, dp_counts = solve_covering_knapsack(rates, costs, demand)
        assert np.dot(dp_counts, rates) >= demand
        # brute force over every count vector an optimum can take: with
        # positive costs it never holds more than ceil(demand / rate) of a
        # type, and with the other counts fixed the last type's cheapest count
        # is the fewest that cover the rest (at most 81^3 vectors, not 82^4)
        best = None
        for head in itertools.product(*(range(-(-demand // r) + 1) for r in rates[:-1])):
            rest = demand - sum(c * r for c, r in zip(head, rates))
            last = max(0, -(-rest // rates[-1]))
            value = float(sum(c * k for c, k in zip(head, costs)) + last * costs[-1])
            if best is None or value < best:
                best = value
        assert best is not None
        assert dp_cost == pytest.approx(best)


class TestBlackBoxSolver:
    def test_optimal_on_black_box_instance(self, black_box_problem):
        result = BlackBoxKnapsackSolver().solve(black_box_problem)
        assert result.optimal
        # rates (10, 25, 40), costs (10, 22, 30), demand 95:
        # best is 2x type3 (80 units, 60) + ... check against exhaustive below.
        from repro.solvers import ExhaustiveSolver

        exact = ExhaustiveSolver().solve(black_box_problem)
        # The knapsack solution may exceed the target (machines are integral),
        # but its cost equals the split-optimal cost of the instance.
        assert result.cost == pytest.approx(exact.cost)

    def test_split_covers_target(self, black_box_problem):
        result = BlackBoxKnapsackSolver().solve(black_box_problem)
        assert result.allocation.split.total >= black_box_problem.target_throughput

    def test_rejected_on_multi_task_recipes(self, illustrating_problem_70):
        with pytest.raises(ProblemError):
            BlackBoxKnapsackSolver().solve(illustrating_problem_70)

    def test_rejected_on_shared_types(self):
        from repro.core import Application, CloudPlatform, MinCostProblem

        app = Application.from_type_sequences([[1], [1]])
        platform = CloudPlatform.from_table([(1, 10, 5)])
        problem = MinCostProblem(app, platform, target_throughput=10)
        with pytest.raises(ProblemError):
            BlackBoxKnapsackSolver().solve(problem)
