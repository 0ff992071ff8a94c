"""Tests for the sweep runner and the figure metrics."""

import gc
import os
import subprocess
import sys
import textwrap
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import ConfigurationError, SolverError
from repro.experiments.config import AlgorithmSpec, ExperimentPlan, default_plan, paper_algorithms
from repro.experiments.metrics import (
    best_count_series,
    mean_cost_series,
    mean_time_series,
    normalized_cost_series,
)
from repro.experiments import runner
from repro.experiments.runner import RunRecord, SweepResult, run_configuration, run_plan
from repro.generators import generate_configuration, get_setting
from repro.generators.workload import Configuration
from repro.solvers import MilpSolver
from repro.utils.rng import derive_seed, stable_text_digest


@pytest.fixture(scope="module")
def tiny_sweep() -> SweepResult:
    """A 2-configuration, 2-throughput sweep over ILP/H1/H2 (module-scoped for speed)."""
    plan = default_plan(
        "small",
        num_configurations=2,
        target_throughputs=(50, 100),
        iterations=150,
    )
    # restrict to three algorithms to keep the fixture fast
    plan = ExperimentPlan(
        name=plan.name,
        setting=plan.setting,
        algorithms=tuple(a for a in plan.algorithms if a.name in ("ILP", "H1", "H2")),
        num_configurations=plan.num_configurations,
        target_throughputs=plan.target_throughputs,
        base_seed=plan.base_seed,
    )
    return run_plan(plan)


class TestConfig:
    def test_paper_algorithms_lineup(self):
        names = [spec.name for spec in paper_algorithms()]
        assert names == ["ILP", "H1", "H2", "H31", "H32", "H32Jump"]

    def test_optional_algorithms(self):
        names = [spec.name for spec in paper_algorithms(include_ilp=False, include_h0=True)]
        assert "ILP" not in names and "H0" in names

    def test_time_limit_forwarded_to_ilp(self):
        spec = paper_algorithms(ilp_time_limit=42)[0]
        assert spec.build().time_limit == 42

    def test_seed_sensitive_specs_receive_seed(self):
        spec = AlgorithmSpec("H2", {"iterations": 10}, seed_sensitive=True)
        solver = spec.build(seed=99)
        assert solver.seed == 99

    def test_plan_validation(self):
        setting = get_setting("small")
        with pytest.raises(ConfigurationError):
            ExperimentPlan("x", setting, tuple(paper_algorithms()), 0, (50,))
        with pytest.raises(ConfigurationError):
            ExperimentPlan("x", setting, tuple(paper_algorithms()), 1, ())
        with pytest.raises(ConfigurationError):
            ExperimentPlan("x", setting, (), 1, (50,))

    def test_default_plan_uses_setting_defaults(self):
        plan = default_plan("medium")
        assert plan.num_configurations == 100
        assert plan.target_throughputs == tuple(range(20, 201, 10))

    def test_scaled_plan(self):
        plan = default_plan("small").scaled(num_configurations=2, target_throughputs=(30,))
        assert plan.num_configurations == 2 and plan.target_throughputs == (30,)


class TestRunner:
    def test_run_configuration_produces_one_record_per_pair(self):
        configuration = generate_configuration(get_setting("small"), seed=0)
        algorithms = [AlgorithmSpec("H1"), AlgorithmSpec("ILP")]
        records = list(run_configuration(configuration, algorithms, (50, 100)))
        assert len(records) == 4
        assert {r.algorithm for r in records} == {"H1", "ILP"}
        assert {r.rho for r in records} == {50.0, 100.0}

    def test_records_have_sane_fields(self, tiny_sweep):
        for record in tiny_sweep.records:
            assert record.cost > 0
            assert record.time >= 0
            assert record.algorithm in {"ILP", "H1", "H2"}
            assert isinstance(record.as_dict(), dict)

    def test_sweep_result_accessors(self, tiny_sweep):
        assert tiny_sweep.throughputs() == [50.0, 100.0]
        assert set(tiny_sweep.algorithms()) == {"ILP", "H1", "H2"}
        assert len(tiny_sweep.filter(algorithm="ILP")) == 4
        assert len(tiny_sweep.filter(algorithm="ILP", rho=50.0)) == 2
        assert tiny_sweep.costs_by("ILP", 50.0).shape == (2,)

    def test_ilp_is_never_beaten(self, tiny_sweep):
        for rho in tiny_sweep.throughputs():
            ilp = tiny_sweep.costs_by("ILP", rho)
            for name in ("H1", "H2"):
                assert np.all(tiny_sweep.costs_by(name, rho) >= ilp - 1e-9)

    def test_runs_are_reproducible(self):
        plan = default_plan("small", num_configurations=1, target_throughputs=(60,), iterations=100)
        a = run_plan(plan)
        b = run_plan(plan)
        assert [r.cost for r in a.records] == [r.cost for r in b.records]

    def test_progress_callback_invoked(self):
        plan = default_plan("small", num_configurations=2, target_throughputs=(60,), iterations=50)
        messages = []
        run_plan(plan, progress=messages.append)
        assert len(messages) == 2

    @pytest.mark.parametrize("count", [1, 2, 5])
    @pytest.mark.parametrize("setting", ["small", "medium", "large"])
    def test_records_equal_an_in_order_loop(self, setting, count):
        # the ILP cells may be solved on threads first; every record must be
        # what solving each cell in order in this thread gives
        configuration = generate_configuration(get_setting(setting), seed=7, index=3)
        algorithms = paper_algorithms(iterations=100)
        throughputs = (20.0, 60.0, 100.0, 140.0, 180.0)[:count]
        expected = []
        for rho in throughputs:
            problem = configuration.problem(rho)
            for spec in algorithms:
                seed = derive_seed(
                    2016, configuration.index, int(rho), stable_text_digest(spec.name, bits=16)
                )
                result = spec.build(seed=seed).solve(problem, check=False)
                expected.append(
                    (rho, spec.name, tuple(result.split.values), result.cost,
                     result.optimal, result.iterations)
                )
        records = run_configuration(
            configuration, algorithms, throughputs, capture_allocations=True
        )
        assert [
            (r.rho, r.algorithm, r.allocation.split, r.cost, r.optimal, r.iterations)
            for r in records
        ] == expected

    def test_failed_ilp_reaches_the_caller_and_leaves_no_thread(self, monkeypatch):
        solve_split = MilpSolver.solve_split
        lock = threading.Lock()
        threads = []

        def second_call_fails(solver, problem):
            with lock:
                threads.append(threading.current_thread().name)
                call = len(threads)
            if call == 2:
                raise SolverError("planted failure")
            return solve_split(solver, problem)

        # two usable CPUs whatever the host has, so the unit takes the thread path
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(MilpSolver, "solve_split", second_call_fails)
        configuration = generate_configuration(get_setting("small"), seed=5)
        algorithms = [AlgorithmSpec("ILP"), AlgorithmSpec("H1")]
        throughputs = (20.0, 40.0, 60.0, 80.0, 100.0)
        with pytest.raises(SolverError, match="planted failure"):
            list(run_configuration(configuration, algorithms, throughputs))
        assert all(name.startswith("repro-ilp") for name in threads)
        assert not [t for t in threading.enumerate() if t.name.startswith("repro-ilp")]

        records = list(run_configuration(configuration, algorithms, throughputs))
        monkeypatch.undo()
        reference = list(run_configuration(configuration, algorithms, throughputs))
        assert [r.identity() for r in records] == [r.identity() for r in reference]
        assert not [t for t in threading.enumerate() if t.name.startswith("repro-ilp")]

    def test_a_problem_is_freed_after_its_last_record(self, monkeypatch):
        # a unit builds every cell before it solves; each problem, and the
        # evaluator it caches, must still go once its last record is out
        made = []
        problem = Configuration.problem

        def tracked(configuration, rho):
            made.append(weakref.ref(result := problem(configuration, rho)))
            return result

        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(Configuration, "problem", tracked)
        configuration = generate_configuration(get_setting("small"), seed=5)
        algorithms = [AlgorithmSpec("ILP"), AlgorithmSpec("H2", {"iterations": 50})]
        records = run_configuration(configuration, algorithms, (20.0, 40.0, 60.0))
        for _ in range(3):  # both records of rho 20, then rho 40's first
            next(records)
        gc.collect()
        freed = [ref() is None for ref in made]
        records.close()  # a paused unit counts as running until it ends
        assert freed == [True, False, False]

    def test_units_running_at_once_share_the_cpus(self, monkeypatch):
        # serve runs a unit per job thread; two running units on two CPUs
        # leave no spare CPU, so the second solves its ILPs in its own thread
        solve_split = MilpSolver.solve_split
        threads = []

        def record_thread(solver, problem):
            threads.append(threading.current_thread().name)
            return solve_split(solver, problem)

        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(MilpSolver, "solve_split", record_thread)
        configuration = generate_configuration(get_setting("small"), seed=5)
        algorithms = [AlgorithmSpec("ILP"), AlgorithmSpec("H1")]
        throughputs = (20.0, 40.0, 60.0, 80.0, 100.0)
        other = run_configuration(configuration, [AlgorithmSpec("H1")], throughputs)
        next(other)  # a unit paused between two records is still running
        alongside = list(run_configuration(configuration, algorithms, throughputs))
        other.close()
        alongside_threads = list(threads)
        threads.clear()
        alone = list(run_configuration(configuration, algorithms, throughputs))
        assert alongside_threads == [threading.current_thread().name] * len(throughputs)
        assert len(threads) == len(throughputs)
        assert all(name.startswith("repro-ilp") for name in threads)
        assert [r.identity() for r in alongside] == [r.identity() for r in alone]

    def test_pool_workers_solve_their_ilps_in_their_own_thread(self):
        # a pool already spreads units over the CPUs; a worker that started
        # ILP threads of its own would put two solves on each CPU.  A driver
        # run from `python -c` forks its workers, which inherit the patches;
        # the pool runs first, so no worker is forked from a process that
        # has solved
        code = textwrap.dedent(
            """
            import threading
            from multiprocessing import parent_process

            from repro.core import SolverError
            from repro.experiments import backends, runner
            from repro.experiments.backends import ProcessPoolBackend
            from repro.experiments.config import AlgorithmSpec, ExperimentPlan
            from repro.generators import get_setting
            from repro.solvers import MilpSolver

            solve_split = MilpSolver.solve_split
            threads = []

            def refuse_worker_threads(solver, problem):
                name = threading.current_thread().name
                if parent_process() is not None and name.startswith("repro-ilp"):
                    raise SolverError("a pool worker solved on an ILP thread")
                threads.append(name)
                return solve_split(solver, problem)

            runner._usable_cpus = lambda: 2
            MilpSolver.solve_split = refuse_worker_threads
            plan = ExperimentPlan(
                name="pool", setting=get_setting("small"),
                algorithms=(AlgorithmSpec("ILP"), AlgorithmSpec("H1")),
                num_configurations=2, target_throughputs=(20.0, 40.0, 60.0),
            )
            assert backends._mp_context().get_start_method() == "fork"
            pooled = runner.run_plan(plan, backend=ProcessPoolBackend(2))
            assert threads == []
            serial = runner.run_plan(plan)
            assert len(threads) == 6 and all(n.startswith("repro-ilp") for n in threads)
            assert [r.identity() for r in pooled.records] == [
                r.identity() for r in serial.records
            ]
            """
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr


class TestMetrics:
    def test_normalized_cost_reference_is_one(self, tiny_sweep):
        series = normalized_cost_series(tiny_sweep)
        assert np.allclose(series.series["ILP"], 1.0)
        for name in ("H1", "H2"):
            assert np.all(np.asarray(series.series[name]) <= 1.0 + 1e-9)

    def test_best_count_bounded_by_configurations(self, tiny_sweep):
        series = best_count_series(tiny_sweep)
        for values in series.series.values():
            assert np.all(np.asarray(values) <= 2)
        assert np.allclose(series.series["ILP"], 2)

    def test_mean_time_series_positive(self, tiny_sweep):
        series = mean_time_series(tiny_sweep)
        for values in series.series.values():
            assert np.all(np.asarray(values) >= 0)

    def test_mean_cost_series_ordering(self, tiny_sweep):
        series = mean_cost_series(tiny_sweep)
        ilp = np.asarray(series.series["ILP"])
        h1 = np.asarray(series.series["H1"])
        assert np.all(ilp <= h1 + 1e-9)

    def test_series_as_rows_shape(self, tiny_sweep):
        series = normalized_cost_series(tiny_sweep)
        rows = series.as_rows()
        assert rows[0][0] == "rho"
        assert len(rows) == 1 + len(series.throughputs)
