"""Tests for the simulated-annealing extension heuristic (H4-SA)."""

import pytest

from repro import create_solver
from repro.experiments.tables import illustrating_problem
from repro.heuristics import H1BestGraphSolver, H4SimulatedAnnealingSolver


class TestH4SimulatedAnnealing:
    def test_registered_under_h4(self):
        assert create_solver("H4").name == "H4-SA"
        assert create_solver("h4-sa").name == "H4-SA"

    def test_never_worse_than_h1(self, illustrating_problem_70):
        h1 = H1BestGraphSolver().solve(illustrating_problem_70).cost
        sa = H4SimulatedAnnealingSolver(iterations=800, delta=10, seed=0).solve(illustrating_problem_70)
        assert sa.cost <= h1 + 1e-9

    def test_never_better_than_optimum(self, illustrating_problem_70):
        sa = H4SimulatedAnnealingSolver(iterations=400, delta=10, seed=1).solve(illustrating_problem_70)
        assert sa.cost >= 124 - 1e-9

    def test_finds_the_optimum_at_rho70(self):
        result = H4SimulatedAnnealingSolver(iterations=3000, delta=10, seed=2).solve(
            illustrating_problem(70)
        )
        assert result.cost == 124

    def test_allocation_feasible(self, illustrating_problem_70):
        result = H4SimulatedAnnealingSolver(iterations=200, delta=10, seed=3).solve(illustrating_problem_70)
        assert illustrating_problem_70.is_allocation_feasible(result.allocation)
        assert result.allocation.split.total == pytest.approx(70)

    def test_deterministic_for_seed(self, illustrating_problem_70):
        # compare what the seed drives, not only the (often optimal) cost
        a, b = (
            H4SimulatedAnnealingSolver(iterations=300, delta=10, seed=9, record_trace=True).solve(
                illustrating_problem_70
            )
            for _ in range(2)
        )
        assert a.meta["trace"].costs == b.meta["trace"].costs
        assert list(a.allocation.split.values) == list(b.allocation.split.values)
        assert a.iterations == b.iterations

    def test_metadata_reports_acceptance_and_temperature(self, illustrating_problem_70):
        result = H4SimulatedAnnealingSolver(iterations=100, delta=10, seed=0).solve(illustrating_problem_70)
        assert 0 <= result.meta["accepted_moves"] <= 100
        assert result.meta["final_temperature"] > 0

    def test_cooling_reduces_temperature(self, illustrating_problem_70):
        result = H4SimulatedAnnealingSolver(
            iterations=500, delta=10, seed=0, initial_temperature=10.0, cooling=0.99
        ).solve(illustrating_problem_70)
        assert result.meta["final_temperature"] < 10.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            H4SimulatedAnnealingSolver(initial_temperature=0)
        with pytest.raises(ValueError):
            H4SimulatedAnnealingSolver(cooling=1.0)
        with pytest.raises(ValueError):
            H4SimulatedAnnealingSolver(cooling=0)

    def test_trace_recording(self, illustrating_problem_70):
        result = H4SimulatedAnnealingSolver(
            iterations=50, delta=10, seed=0, record_trace=True
        ).solve(illustrating_problem_70)
        assert len(result.meta["trace"].costs) == 51
