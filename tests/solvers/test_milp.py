"""Tests for the Section V-C MILP formulation and the HiGHS-backed solver."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import Application, CloudPlatform, MinCostProblem
from repro.experiments.tables import PAPER_TABLE3_OPTIMAL_COSTS, illustrating_problem
from repro.solvers import ExhaustiveSolver, MilpSolver, build_formulation


def test_package_imports_without_scipy_until_a_solve():
    # scipy costs ~0.7 s to import; only the functions that solve import it,
    # and the first ILP solve imports it before its stopwatch starts, so its
    # time (Figures 5 and 8) holds no import
    code = textwrap.dedent(
        """
        import sys

        import repro, repro.cli, repro.api
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
        from repro.experiments.tables import illustrating_problem
        from repro.solvers import MilpSolver
        from repro.utils.timing import Stopwatch

        start = Stopwatch.start
        imported_at_start = []

        def record_start(stopwatch):
            imported_at_start.append("scipy.optimize" in sys.modules)
            return start(stopwatch)

        Stopwatch.start = record_start
        assert MilpSolver().solve(illustrating_problem(70)).cost == 124
        assert imported_at_start == [True]
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_study_setup_imports_no_scipy_and_sweeps_leave_no_thread():
    # perfbench's set-up probe (import, register solvers, build a study)
    # solves nothing, so it must not pay for scipy or start a thread; the
    # ILP threads of a sweep unit end with the unit
    code = textwrap.dedent(
        """
        import sys
        import threading

        import repro.api
        from repro.api import Study
        from repro.experiments.config import AlgorithmSpec
        from repro.experiments.spec import (
            ExecutionSpec, StudySpec, ValidationSpec, WorkloadSpec,
        )
        from repro.solvers.registry import ensure_default_solvers

        ensure_default_solvers()

        def spec(name, throughputs, **fields):
            return StudySpec(
                name=name,
                workload=WorkloadSpec(
                    setting="small", num_configurations=1, target_throughputs=throughputs
                ),
                algorithms=(AlgorithmSpec("ILP"), AlgorithmSpec("H1")),
                **fields,
            )

        Study.from_spec(spec("sweep", (40.0,), execution=ExecutionSpec(capture_allocations=True)))
        Study.from_spec(spec("validated", (40.0,), validation=ValidationSpec(horizons=(3.0,))))
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
        assert threading.active_count() == 1, threading.enumerate()
        for throughputs in ((40.0,), (40.0, 80.0)):
            result = Study.from_spec(spec("run", throughputs)).run()
            assert len(result.sweep.records) == 2 * len(throughputs)
            assert threading.active_count() == 1, threading.enumerate()
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


class TestFormulation:
    def test_dimensions(self, illustrating_problem_70):
        formulation = build_formulation(illustrating_problem_70)
        Q, J = 4, 3
        assert formulation.objective.shape == (Q + J,)
        assert formulation.constraint_matrix.shape == (1 + Q, Q + J)
        assert formulation.integrality.shape == (Q + J,)
        assert formulation.num_types == Q and formulation.num_recipes == J

    def test_objective_only_prices_machines(self, illustrating_problem_70):
        formulation = build_formulation(illustrating_problem_70)
        assert np.array_equal(formulation.objective[:4], [10, 18, 25, 33])
        assert np.array_equal(formulation.objective[4:], [0, 0, 0])

    def test_cover_row(self, illustrating_problem_70):
        formulation = build_formulation(illustrating_problem_70)
        row = formulation.constraint_matrix.toarray()[0]
        assert np.array_equal(row, [0, 0, 0, 0, 1, 1, 1])
        assert formulation.lower[0] == 70 and formulation.upper[0] == np.inf

    def test_capacity_rows_encode_counts_and_rates(self, illustrating_problem_70):
        formulation = build_formulation(illustrating_problem_70)
        matrix = formulation.constraint_matrix.toarray()
        # Row for type 1 (throughput 10): -10 x_1 + rho_3 <= 0
        assert np.array_equal(matrix[1], [-10, 0, 0, 0, 0, 0, 1])
        # Row for type 4 (throughput 40): -40 x_4 + rho_1 + rho_2 <= 0
        assert np.array_equal(matrix[4], [0, 0, 0, -40, 1, 1, 0])
        assert np.all(formulation.upper[1:] == 0)

    def test_integrality_flags(self, illustrating_problem_70):
        integer_split = build_formulation(illustrating_problem_70, integer_splits=True)
        assert np.all(integer_split.integrality == 1)
        relaxed = build_formulation(illustrating_problem_70, integer_splits=False)
        assert np.all(relaxed.integrality[:4] == 1) and np.all(relaxed.integrality[4:] == 0)

    def test_split_variables_unpacking(self, illustrating_problem_70):
        formulation = build_formulation(illustrating_problem_70)
        x, rho = formulation.split_variables(np.arange(7.0))
        assert np.array_equal(x, [0, 1, 2, 3]) and np.array_equal(rho, [4, 5, 6])


class TestMilpSolver:
    def test_reproduces_all_table3_optima(self):
        solver = MilpSolver()
        for rho, expected in PAPER_TABLE3_OPTIMAL_COSTS.items():
            result = solver.solve(illustrating_problem(rho))
            assert result.cost == pytest.approx(expected), f"rho={rho}"
            assert result.optimal

    def test_allocation_is_feasible(self, illustrating_problem_70):
        result = MilpSolver().solve(illustrating_problem_70)
        assert illustrating_problem_70.is_allocation_feasible(result.allocation)
        assert result.allocation.split.total >= 70

    def test_never_above_single_best_recipe(self, illustrating_problem_70):
        result = MilpSolver().solve(illustrating_problem_70)
        h1_cost = min(
            illustrating_problem_70.single_recipe_cost(j) for j in range(3)
        )
        assert result.cost <= h1_cost

    def test_never_below_lower_bound(self, illustrating_problem_70):
        result = MilpSolver().solve(illustrating_problem_70)
        assert result.cost >= illustrating_problem_70.lower_bound() - 1e-9

    def test_continuous_splits_never_worse(self, illustrating_problem_70):
        integral = MilpSolver(integer_splits=True).solve(illustrating_problem_70)
        relaxed = MilpSolver(integer_splits=False).solve(illustrating_problem_70)
        assert relaxed.cost <= integral.cost + 1e-9

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MilpSolver(time_limit=0)
        with pytest.raises(ValueError):
            MilpSolver(mip_rel_gap=-0.1)

    def test_time_limit_metadata_recorded(self, illustrating_problem_70):
        result = MilpSolver(time_limit=30).solve(illustrating_problem_70)
        assert result.meta["time_limit"] == 30

    @given(
        rho=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_milp_matches_exhaustive_on_random_small_instances(self, rho, seed):
        rng = np.random.default_rng(seed)
        app = Application.from_type_sequences(
            [list(rng.integers(1, 4, size=rng.integers(1, 4))) for _ in range(3)]
        )
        platform = CloudPlatform.from_table(
            [(q, int(rng.integers(1, 15)), int(rng.integers(1, 20))) for q in (1, 2, 3)]
        )
        problem = MinCostProblem(app, platform, target_throughput=rho)
        milp = MilpSolver().solve(problem)
        brute = ExhaustiveSolver().solve(problem)
        assert milp.cost == pytest.approx(brute.cost)
