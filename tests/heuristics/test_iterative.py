"""Tests for the iterative heuristics H2, H31, H32 and H32Jump."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Application, CloudPlatform, MinCostProblem
from repro.experiments.tables import illustrating_problem
from repro.heuristics import (
    H1BestGraphSolver,
    H2RandomWalkSolver,
    H31StochasticDescentSolver,
    H32JumpSolver,
    H32SteepestGradientSolver,
    steepest_descent,
)

ITERATIVE_SOLVERS = [
    lambda seed, **options: H2RandomWalkSolver(iterations=500, delta=10, seed=seed, **options),
    lambda seed, **options: H31StochasticDescentSolver(
        iterations=500, delta=10, seed=seed, **options
    ),
    lambda seed, **options: H32SteepestGradientSolver(
        iterations=200, delta=10, seed=seed, **options
    ),
    lambda seed, **options: H32JumpSolver(iterations=200, delta=10, seed=seed, **options),
]


class TestCommonProperties:
    @pytest.mark.parametrize("factory", ITERATIVE_SOLVERS)
    def test_never_worse_than_h1(self, factory, illustrating_problem_70):
        h1_cost = H1BestGraphSolver().solve(illustrating_problem_70).cost
        result = factory(0).solve(illustrating_problem_70)
        assert result.cost <= h1_cost + 1e-9

    @pytest.mark.parametrize("factory", ITERATIVE_SOLVERS)
    def test_never_better_than_optimum(self, factory, illustrating_problem_70):
        result = factory(1).solve(illustrating_problem_70)
        assert result.cost >= 124 - 1e-9

    @pytest.mark.parametrize("factory", ITERATIVE_SOLVERS)
    def test_allocation_feasible_and_target_preserved(self, factory, illustrating_problem_70):
        result = factory(2).solve(illustrating_problem_70)
        assert result.allocation.split.total == pytest.approx(70)
        assert illustrating_problem_70.is_allocation_feasible(result.allocation)

    @pytest.mark.parametrize("factory", ITERATIVE_SOLVERS)
    def test_deterministic_for_fixed_seed(self, factory, illustrating_problem_70):
        # every seed reaches cost 124 here, so equal costs prove nothing:
        # compare what the seed drives (the walk, its result, its length)
        first, second = (
            factory(7, record_trace=True).solve(illustrating_problem_70) for _ in range(2)
        )
        assert first.meta["trace"].costs == second.meta["trace"].costs
        assert list(first.allocation.split.values) == list(second.allocation.split.values)
        assert first.iterations == second.iterations

    @pytest.mark.parametrize("factory", ITERATIVE_SOLVERS)
    def test_not_optimal_flag(self, factory, illustrating_problem_70):
        assert not factory(0).solve(illustrating_problem_70).optimal

    def test_invalid_common_parameters(self):
        with pytest.raises(ValueError):
            H2RandomWalkSolver(iterations=0)
        with pytest.raises(ValueError):
            H2RandomWalkSolver(step=0)
        with pytest.raises(ValueError):
            H2RandomWalkSolver(delta=-1)


class TestH2RandomWalk:
    def test_finds_paper_optimum_at_rho70(self):
        # Table III: H2 finds 124 at rho = 70.
        result = H2RandomWalkSolver(iterations=2000, delta=10, seed=1).solve(illustrating_problem(70))
        assert result.cost == 124

    def test_records_trace_when_requested(self, illustrating_problem_70):
        result = H2RandomWalkSolver(iterations=50, delta=10, seed=0, record_trace=True).solve(
            illustrating_problem_70
        )
        trace = result.meta["trace"]
        assert len(trace.costs) == 51
        assert trace.improvements() >= 1

    def test_more_iterations_never_hurt(self, illustrating_problem_70):
        short = H2RandomWalkSolver(iterations=20, delta=10, seed=3).solve(illustrating_problem_70)
        long = H2RandomWalkSolver(iterations=2000, delta=10, seed=3).solve(illustrating_problem_70)
        assert long.cost <= short.cost


class TestH31StochasticDescent:
    def test_patience_stops_early(self, illustrating_problem_70):
        result = H31StochasticDescentSolver(
            iterations=100000, patience=20, delta=10, seed=0
        ).solve(illustrating_problem_70)
        assert result.meta["stopped_early"]
        assert result.iterations < 100000

    def test_patience_none_runs_full_budget(self, illustrating_problem_70):
        result = H31StochasticDescentSolver(
            iterations=50, patience=None, delta=10, seed=0
        ).solve(illustrating_problem_70)
        assert result.iterations == 50

    def test_invalid_patience(self):
        with pytest.raises(ValueError):
            H31StochasticDescentSolver(patience=0)

    def test_current_solution_only_improves(self, illustrating_problem_70):
        result = H31StochasticDescentSolver(
            iterations=200, delta=10, seed=1, record_trace=True
        ).solve(illustrating_problem_70)
        costs = result.meta["trace"].costs
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))


class TestH32SteepestGradient:
    def test_descent_reaches_local_minimum(self, illustrating_problem_70):
        result = H32SteepestGradientSolver(delta=10).solve(illustrating_problem_70)
        assert result.meta["local_minimum"]
        # At a local minimum no single exchange of delta improves the cost.
        split = np.asarray(result.allocation.split.values)
        from repro.heuristics import all_exchanges

        for candidate, _, _ in all_exchanges(split, 10):
            assert illustrating_problem_70.evaluate_split(candidate) >= result.cost - 1e-9

    def test_round_cap_respected(self, illustrating_problem_70):
        result = H32SteepestGradientSolver(iterations=1, delta=10).solve(illustrating_problem_70)
        assert result.iterations <= 1

    def test_trace_records_per_round_descent_curve(self, illustrating_problem_70):
        result = H32SteepestGradientSolver(delta=10, record_trace=True).solve(
            illustrating_problem_70
        )
        costs = result.meta["trace"].costs
        # One entry for the start plus one per improving round (the final
        # unsuccessful scan adds nothing), strictly decreasing throughout.
        improving_rounds = result.meta["iterations"] - (
            1 if result.meta["local_minimum"] else 0
        )
        assert len(costs) == 1 + improving_rounds
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert costs[-1] == result.cost

    def test_steepest_descent_helper_monotone(self, illustrating_problem_70):
        start = np.array([70.0, 0.0, 0.0])
        start_cost = illustrating_problem_70.evaluate_split(start)
        split, cost, rounds = steepest_descent(illustrating_problem_70, start, start_cost, 10, 100)
        assert cost <= start_cost
        assert rounds >= 1
        assert split.sum() == pytest.approx(70)


class TestH32Jump:
    def test_finds_optimum_with_enough_jumps(self):
        result = H32JumpSolver(iterations=200, delta=10, jumps=30, jump_moves=2, seed=3).solve(
            illustrating_problem(70)
        )
        assert result.cost == 124

    def test_never_worse_than_plain_h32(self, illustrating_problem_70):
        h32 = H32SteepestGradientSolver(delta=10).solve(illustrating_problem_70)
        jump = H32JumpSolver(delta=10, jumps=10, seed=0).solve(illustrating_problem_70)
        assert jump.cost <= h32.cost + 1e-9

    def test_zero_jumps_equals_h32(self, illustrating_problem_70):
        h32 = H32SteepestGradientSolver(delta=10).solve(illustrating_problem_70)
        jump = H32JumpSolver(delta=10, jumps=0, seed=0).solve(illustrating_problem_70)
        assert jump.cost == pytest.approx(h32.cost)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            H32JumpSolver(jumps=-1)
        with pytest.raises(ValueError):
            H32JumpSolver(jump_moves=0)

    def test_metadata_reports_jumps(self, illustrating_problem_70):
        result = H32JumpSolver(delta=10, jumps=4, seed=0).solve(illustrating_problem_70)
        assert result.meta["jumps"] == 4


class TestAdaptiveDelta:
    def test_default_delta_is_smallest_rate(self, illustrating_problem_70):
        solver = H2RandomWalkSolver(seed=0)
        assert solver.effective_delta(illustrating_problem_70) == 10

    def test_delta_capped_by_target(self):
        problem = illustrating_problem(5)
        solver = H2RandomWalkSolver(seed=0)
        assert solver.effective_delta(problem) == 5

    def test_explicit_delta_wins(self, illustrating_problem_70):
        solver = H2RandomWalkSolver(seed=0, delta=3)
        assert solver.effective_delta(illustrating_problem_70) == 3


class TestRandomInstancesProperty:
    @given(seed=st.integers(min_value=0, max_value=200), rho=st.integers(min_value=5, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_heuristics_bounded_between_optimum_and_h1(self, seed, rho):
        rng = np.random.default_rng(seed)
        app = Application.from_type_sequences(
            [list(rng.integers(1, 5, size=rng.integers(2, 5))) for _ in range(4)]
        )
        platform = CloudPlatform.from_table(
            [(q, int(rng.integers(2, 15)), int(rng.integers(1, 25))) for q in range(1, 5)]
        )
        problem = MinCostProblem(app, platform, target_throughput=rho)
        from repro.solvers import MilpSolver

        optimal = MilpSolver().solve(problem).cost
        h1 = H1BestGraphSolver().solve(problem).cost
        h2 = H2RandomWalkSolver(iterations=200, seed=seed).solve(problem).cost
        jump = H32JumpSolver(iterations=100, jumps=5, seed=seed).solve(problem).cost
        assert optimal - 1e-9 <= h2 <= h1 + 1e-9
        assert optimal - 1e-9 <= jump <= h1 + 1e-9
