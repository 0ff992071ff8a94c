"""Tests for the seeded scenario-injection subsystem (simulation.scenarios)."""

import itertools

import numpy as np
import pytest

from repro.core import SimulationError, ThroughputSplit
from repro.simulation import (
    DEFAULT_SCENARIO,
    BatchArrivals,
    BurstyArrivals,
    DeterministicArrivals,
    FailureWindow,
    PoissonArrivals,
    RecipeRouter,
    ScenarioSpec,
    StreamSimulator,
    arrival_process_from_dict,
    parse_arrival_spec,
)


def take(iterator, n):
    return list(itertools.islice(iterator, n))


def rng(seed=0):
    return np.random.default_rng(seed)


class TestArrivalProcesses:
    def test_deterministic_times_are_exact_multiples(self):
        times = take(DeterministicArrivals().times(3.0, rng()), 400)
        # computed by index, not accumulated: no floating-point drift, even
        # where 1/rate is not representable (1/3 here)
        assert times[0] == 0.0
        assert times[300] == 100.0
        assert all(times[i] == i / 3.0 for i in range(400))

    def test_poisson_is_seeded_and_hits_the_mean_rate(self):
        a = take(PoissonArrivals().times(50.0, rng(7)), 2000)
        b = take(PoissonArrivals().times(50.0, rng(7)), 2000)
        c = take(PoissonArrivals().times(50.0, rng(8)), 2000)
        assert a == b
        assert a != c
        assert a[0] == 0.0
        assert all(x <= y for x, y in zip(a, a[1:]))
        # 1999 gaps at rate 50 -> ~40 time units
        assert a[-1] == pytest.approx(1999 / 50.0, rel=0.15)

    def test_bursty_confines_arrivals_to_on_windows(self):
        process = BurstyArrivals(on=1.0, off=3.0)
        times = take(process.times(10.0, rng(3)), 500)
        cycle = 4.0
        assert times[0] == 0.0
        assert all(t % cycle < 1.0 + 1e-9 for t in times)
        assert all(x <= y for x, y in zip(times, times[1:]))
        # the long-run mean rate is preserved: 499 gaps at rate 10 -> ~50
        assert times[-1] == pytest.approx(499 / 10.0, rel=0.2)

    def test_batch_groups_arrivals_at_shared_times(self):
        times = take(BatchArrivals(size=5).times(10.0, rng()), 23)
        for batch in range(4):
            chunk = times[5 * batch : 5 * (batch + 1)]
            assert chunk == [batch * 0.5] * 5
        assert times[20:] == [2.0] * 3

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SimulationError):
            BurstyArrivals(on=0.0, off=1.0)
        with pytest.raises(SimulationError):
            BurstyArrivals(on=1.0, off=-1.0)
        with pytest.raises(SimulationError):
            BatchArrivals(size=0)
        with pytest.raises(SimulationError, match="integer"):
            BatchArrivals(size=2.5)
        with pytest.raises(SimulationError, match="integer"):
            parse_arrival_spec("batch:size=2.5")

    def test_round_trip_through_dict(self):
        for process in (
            DeterministicArrivals(),
            PoissonArrivals(),
            BurstyArrivals(on=2.0, off=0.5),
            BatchArrivals(size=7),
        ):
            data = process.as_dict()
            assert data["kind"] == process.kind
            assert arrival_process_from_dict(data) == process

    def test_from_dict_rejects_unknown_kind_and_params(self):
        with pytest.raises(SimulationError, match="unknown arrival process"):
            arrival_process_from_dict({"kind": "fractal"})
        with pytest.raises(SimulationError, match="does not take"):
            arrival_process_from_dict({"kind": "poisson", "size": 3})


class TestParseArrivalSpec:
    def test_parses_plain_and_parameterised_kinds(self):
        assert parse_arrival_spec("deterministic") == DeterministicArrivals()
        assert parse_arrival_spec("poisson") == PoissonArrivals()
        assert parse_arrival_spec("bursty:on=1,off=3") == BurstyArrivals(on=1.0, off=3.0)
        assert parse_arrival_spec("batch:size=5") == BatchArrivals(size=5)

    def test_malformed_specs_rejected(self):
        with pytest.raises(SimulationError, match="unknown arrival process"):
            parse_arrival_spec("uniform")
        with pytest.raises(SimulationError, match="key=value"):
            parse_arrival_spec("bursty:on")
        with pytest.raises(SimulationError, match="not a number"):
            parse_arrival_spec("batch:size=five")
        with pytest.raises(SimulationError, match="does not take"):
            parse_arrival_spec("poisson:rate=3")


class TestFailureWindow:
    def test_round_trip_and_count_default(self):
        window = FailureWindow(type_id=2, start=1.0, duration=3.0, count=2)
        assert FailureWindow.from_dict(window.as_dict()) == window
        assert window.end == 4.0
        assert FailureWindow.from_dict({"type": 1, "start": 0, "duration": 1}).count == 1

    def test_invalid_windows_rejected(self):
        with pytest.raises(SimulationError):
            FailureWindow(1, start=-1.0, duration=1.0)
        with pytest.raises(SimulationError):
            FailureWindow(1, start=0.0, duration=0.0)
        with pytest.raises(SimulationError):
            FailureWindow(1, start=0.0, duration=1.0, count=0)


class TestScenarioSpec:
    def test_default_scenario_is_the_papers_assumptions(self):
        assert DEFAULT_SCENARIO.name == "baseline"
        assert DEFAULT_SCENARIO.arrival == DeterministicArrivals()
        assert DEFAULT_SCENARIO.slowdowns == ()
        assert DEFAULT_SCENARIO.failures == ()
        assert DEFAULT_SCENARIO.is_default
        assert not ScenarioSpec(name="poisson", arrival=PoissonArrivals()).is_default

    def test_round_trip_through_dict(self):
        spec = ScenarioSpec(
            name="degraded",
            arrival=BurstyArrivals(on=1.0, off=2.0),
            slowdowns=((1, 0.5), (3, 0.8)),
            failures=(FailureWindow(2, 1.0, 2.0), FailureWindow(1, 5.0, 1.0, count=2)),
        )
        assert ScenarioSpec.from_dict(spec.as_dict()) == spec
        assert spec.slowdown_map() == {1: 0.5, 3: 0.8}

    def test_missing_arrival_defaults_to_deterministic(self):
        spec = ScenarioSpec.from_dict({"name": "bare"})
        assert spec.arrival == DeterministicArrivals()

    def test_from_dict_rejects_unknown_fields(self):
        # a misspelled axis must fail loudly, not silently deserialize into
        # a different scenario: this test, not the lint, holds spec strictness
        with pytest.raises(SimulationError, match="unknown field"):
            ScenarioSpec.from_dict({"name": "bare", "slowdown": [[1, 0.5]]})

    def test_invalid_specs_rejected(self):
        with pytest.raises(SimulationError, match="non-empty name"):
            ScenarioSpec(name="")
        with pytest.raises(SimulationError, match="positive"):
            ScenarioSpec(name="x", slowdowns=((1, 0.0),))
        with pytest.raises(SimulationError, match="duplicate"):
            ScenarioSpec(name="x", slowdowns=((1, 0.5), (1, 0.8)))


class TestScenarioSimulation:
    def allocation(self, problem):
        return problem.allocation_for([10, 30, 30])

    def test_report_carries_scenario_name(self, illustrating_problem_70):
        report = StreamSimulator(illustrating_problem_70, self.allocation(illustrating_problem_70)).run(horizon=5.0)
        assert report.scenario == "baseline"
        scenario = ScenarioSpec(name="poisson", arrival=PoissonArrivals())
        report = StreamSimulator(
            illustrating_problem_70, self.allocation(illustrating_problem_70),
            scenario=scenario, seed=1,
        ).run(horizon=5.0)
        assert report.scenario == "poisson"

    def test_same_seed_reproduces_stochastic_runs_exactly(self, illustrating_problem_70):
        scenario = ScenarioSpec(
            name="noisy",
            arrival=PoissonArrivals(),
            failures=(FailureWindow(1, 1.0, 2.0, count=2),),
        )
        def run(seed):
            return StreamSimulator(
                illustrating_problem_70, self.allocation(illustrating_problem_70),
                scenario=scenario, seed=seed,
            ).run(horizon=8.0)

        a, b, c = run(11), run(11), run(12)
        assert (a.arrivals, a.completed, a.achieved_throughput, a.mean_latency) == (
            b.arrivals, b.completed, b.achieved_throughput, b.mean_latency
        )
        assert (a.arrivals, a.mean_latency) != (c.arrivals, c.mean_latency)

    def test_slowdown_degrades_latency_and_raises_utilization(self, illustrating_problem_70):
        allocation = self.allocation(illustrating_problem_70)
        base = StreamSimulator(illustrating_problem_70, allocation).run(horizon=10.0)
        slowed = StreamSimulator(
            illustrating_problem_70, allocation,
            scenario=ScenarioSpec(name="half-speed-1", slowdowns=((1, 0.5),)),
        ).run(horizon=10.0)
        assert slowed.mean_latency > base.mean_latency
        assert slowed.utilization[1] > base.utilization[1]

    def test_failure_window_stalls_then_drains(self, illustrating_problem_70):
        # every instance of every type is down during [0, 2): nothing can
        # complete before t=2, and the backlog drains afterwards
        allocation = self.allocation(illustrating_problem_70)
        types = sorted(allocation.machines)
        scenario = ScenarioSpec(
            name="blackout",
            failures=tuple(FailureWindow(t, 0.0, 2.0, count=99) for t in types),
        )
        report = StreamSimulator(
            illustrating_problem_70, allocation, arrival_rate=35.0,
            scenario=scenario, seed=5, warmup_fraction=0.0,
        ).run(horizon=10.0)
        assert report.completed > 0
        # ~70 data sets arrived during the blackout and none of them finished
        # inside it, so the earliest completions pile up right after t=2
        assert report.max_latency > 2.0
        drained = StreamSimulator(
            illustrating_problem_70, allocation, arrival_rate=35.0,
            scenario=scenario, seed=5, warmup_fraction=0.0,
        ).run(horizon=10.0, max_datasets=30)
        assert drained.completed == 30

    def test_failure_of_unrented_type_is_ignored(self, illustrating_problem_70):
        allocation = self.allocation(illustrating_problem_70)
        scenario = ScenarioSpec(name="ghost", failures=(FailureWindow(99, 0.0, 5.0),))
        report = StreamSimulator(
            illustrating_problem_70, allocation, scenario=scenario
        ).run(horizon=10.0)
        base = StreamSimulator(illustrating_problem_70, allocation).run(horizon=10.0)
        assert report.completed == base.completed
        assert report.mean_latency == base.mean_latency

    def test_slowdown_of_unrented_type_is_ignored(self, illustrating_problem_70):
        allocation = self.allocation(illustrating_problem_70)
        scenario = ScenarioSpec(name="ghost-slow", slowdowns=((99, 0.1),))
        report = StreamSimulator(
            illustrating_problem_70, allocation, scenario=scenario
        ).run(horizon=10.0)
        base = StreamSimulator(illustrating_problem_70, allocation).run(horizon=10.0)
        assert report.completed == base.completed

    def test_zero_weight_recipe_never_routed_under_any_arrival_process(
        self, illustrating_problem_70
    ):
        allocation = illustrating_problem_70.allocation_for([0, 35, 35])
        for scenario in (
            None,
            ScenarioSpec(name="poisson", arrival=PoissonArrivals()),
            ScenarioSpec(name="bursty", arrival=BurstyArrivals(on=1.0, off=1.0)),
            ScenarioSpec(name="batch", arrival=BatchArrivals(size=4)),
        ):
            report = StreamSimulator(
                illustrating_problem_70, allocation, scenario=scenario, seed=3
            ).run(horizon=5.0)
            assert report.recipe_mix[0] == 0.0
            assert report.recipe_mix[1] == pytest.approx(0.5, abs=0.05)

    def test_zero_weight_router_stride_is_arrival_time_independent(self):
        # the router sees only the arrival order, so a zero-weight recipe is
        # skipped identically however bursty the timestamps are
        router = RecipeRouter(ThroughputSplit.from_sequence([0, 10, 30]))
        counts = [0, 0, 0]
        for _ in range(40):
            counts[router.route()] += 1
        assert counts == [0, 10, 30]


class TestWarmupMeasurement:
    def test_warmup_backlog_cannot_inflate_achieved_throughput(
        self, illustrating_problem_70
    ):
        # blackout covering the whole warm-up: every warm-up arrival completes
        # inside the measurement window.  The old completion-count measure
        # (kept as window_throughput) reports far more than the arrival rate;
        # achieved_throughput must not.
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        types = sorted(allocation.machines)
        scenario = ScenarioSpec(
            name="warmup-blackout",
            failures=tuple(FailureWindow(t, 0.0, 2.0, count=99) for t in types),
        )
        report = StreamSimulator(
            illustrating_problem_70, allocation, arrival_rate=35.0,
            scenario=scenario, seed=2, warmup_fraction=0.5,
        ).run(horizon=4.0)
        assert report.warmup == 2.0
        # the biased measure sees the drained backlog: well above the rate
        assert report.window_throughput > 1.5 * report.target_throughput
        # the fixed measure counts only post-warm-up arrivals: bounded by the
        # arrivals the window can possibly contain (+1 for the boundary)
        window_arrival_cap = (report.horizon - report.warmup) * report.target_throughput + 1
        assert report.achieved_throughput * (report.horizon - report.warmup) <= window_arrival_cap
        assert report.achieved_throughput <= report.window_throughput
