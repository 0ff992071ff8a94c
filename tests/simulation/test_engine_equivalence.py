"""Fast-engine/reference-engine equivalence and hot-path regression tests.

The optimized engine is only allowed to exist because it is *byte-identical*
to the reference loop: both push events in the same order, so every report
field matches exactly — which is what keeps validation records identical to
pre-optimization checkpoints.  These tests pin that contract across the
scenario matrix (stochastic arrivals, slowdowns, seeded failure windows,
``max_datasets`` caps) and the selection-strategy boundary (direct walk for
small instance groups, lazy heap for groups of ``HEAP_MIN_GROUP`` and up).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Allocation,
    Application,
    CloudPlatform,
    MinCostProblem,
    RecipeGraph,
    SimulationError,
    ThroughputSplit,
)
from repro.generators.workload import PAPER_SETTINGS, generate_configuration_at
from repro.simulation import (
    BatchArrivals,
    BurstyArrivals,
    FailureWindow,
    PoissonArrivals,
    ScenarioSpec,
    StreamSimulator,
)
from repro.simulation.processor import HEAP_MIN_GROUP
from repro.simulation.stream import DataSetInstance
from repro.solvers.registry import create_solver

SCENARIOS = [
    ScenarioSpec(),
    ScenarioSpec(name="poisson", arrival=PoissonArrivals()),
    ScenarioSpec(name="batch", arrival=BatchArrivals(size=3)),
    ScenarioSpec(
        name="bursty+degraded",
        arrival=BurstyArrivals(on=1.0, off=2.0),
        slowdowns=((1, 0.8),),
        failures=(FailureWindow(1, 1.0, 2.0), FailureWindow(2, 4.0, 1.0)),
    ),
    ScenarioSpec(
        name="failheavy",
        arrival=PoissonArrivals(),
        failures=(
            FailureWindow(1, 0.5, 3.0, count=2),
            FailureWindow(2, 2.0, 5.0),
            FailureWindow(1, 6.0, 1.0),
        ),
    ),
]


def _comparable(report):
    """The report with the fast engine's diagnostic counters stripped.

    ``metadata["event_counters"]`` is instrumentation of the fast event core
    (the reference loop doesn't carry it), so equivalence compares everything
    *except* that key — which also documents that the counters are diagnostic
    metadata, never record content.
    """
    from dataclasses import replace

    metadata = {k: v for k, v in report.metadata.items() if k != "event_counters"}
    return replace(report, metadata=metadata)


def _both(
    problem, allocation, *, scenario, seed, horizon, max_datasets=None, prefixes=(), **kw
):
    reports = []
    for engine in ("fast", "reference"):
        sim = StreamSimulator(
            problem, allocation, scenario=scenario, seed=seed, engine=engine, **kw
        )
        reports.append(_comparable(
            sim.run(horizon=horizon, max_datasets=max_datasets, prefixes=prefixes)
        ))
    return reports


class TestEngineEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_reports_identical_across_scenarios(
        self, illustrating_problem_70, scenario, seed
    ):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        fast, reference = _both(
            illustrating_problem_70, allocation,
            scenario=scenario, seed=seed, horizon=8.0,
        )
        assert fast == reference

    def test_identical_under_max_datasets_cap(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        fast, reference = _both(
            illustrating_problem_70, allocation,
            scenario=SCENARIOS[3], seed=5, horizon=10.0, max_datasets=40,
        )
        assert fast == reference

    def test_identical_under_rate_stress_and_warmup(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        fast, reference = _both(
            illustrating_problem_70, allocation,
            scenario=SCENARIOS[4], seed=2, horizon=9.0,
            arrival_rate=70 * 1.05, warmup_fraction=0.2,
        )
        assert fast == reference

    def test_identical_with_heap_indexed_group(self):
        """A type group at/above HEAP_MIN_GROUP exercises the lazy-heap arm."""
        recipe = RecipeGraph.from_type_sequence([1, 1, 2], name="wide")
        platform = CloudPlatform.from_table([(1, 1.0, 2.0), (2, 2.0, 5.0)])
        problem = MinCostProblem(Application([recipe]), platform, target_throughput=8)
        machines = {1: HEAP_MIN_GROUP + 3, 2: 4}
        allocation = Allocation(
            split=ThroughputSplit.from_sequence([8.0]), machines=machines, cost=0.0
        )
        scenario = ScenarioSpec(
            name="wide+fail",
            arrival=PoissonArrivals(),
            failures=(FailureWindow(1, 1.0, 2.0, count=3),),
        )
        for seed in (0, 7):
            fast, reference = _both(
                problem, allocation, scenario=scenario, seed=seed, horizon=12.0
            )
            assert fast == reference


class LateArrivals(PoissonArrivals):
    """Poisson arrivals shifted by ``delay``: every shipped process starts at
    t = 0, so only a test process has horizons before its first arrival."""

    delay = 0.4

    def times(self, rate, rng):
        for time in super().times(rate, rng):
            yield time + self.delay


def _check_prefixes(problem, allocation, *, scenario, seed, horizons, max_datasets):
    """Fast prefix reports equal independent reference runs, field for field.

    Both engines get the same arguments; the reference answers ``prefixes``
    with one independent run per horizon, so comparing the two reports
    compares every prefix report too.
    """
    fast, reference = _both(
        problem, allocation, scenario=scenario, seed=seed,
        horizon=max(horizons), max_datasets=max_datasets, prefixes=horizons,
    )
    prefixes = fast.metadata["prefixes"]
    assert list(prefixes) == sorted(set(horizons))
    assert not any("event_counters" in report.metadata for report in prefixes.values())
    assert fast == reference
    return prefixes


@st.composite
def prefix_cases(draw):
    """A small-setting configuration at a drawn seed and rho, an allocation
    (captured from H1 or random), a scenario and an unsorted horizon list
    with duplicates; a failure window straddles one of the horizons."""
    rho = float(draw(st.sampled_from([10, 20, 35])))
    problem = generate_configuration_at(
        PAPER_SETTINGS["small"], base_seed=draw(st.integers(0, 2**20)), index=0
    ).problem(rho)
    if draw(st.booleans()):
        allocation = create_solver("H1").solve(problem).allocation
    else:
        recipes = draw(
            st.lists(st.integers(0, problem.num_recipes - 1), min_size=1, max_size=3, unique=True)
        )
        shares = draw(st.lists(st.integers(1, 4), min_size=len(recipes), max_size=len(recipes)))
        split = [0.0] * problem.num_recipes
        for recipe, share in zip(recipes, shares):
            split[recipe] = rho * share / sum(shares)
        allocation = problem.allocation_for(split)
    horizons = draw(
        st.lists(st.sampled_from([0.05, 0.3, 0.5, 0.9, 1.5, 2.5]), min_size=1, max_size=5)
    )
    kind = draw(st.sampled_from(["baseline", "poisson", "bursty+degraded", "late"]))
    if kind == "baseline":
        scenario = ScenarioSpec()
    elif kind == "poisson":
        scenario = ScenarioSpec(name="poisson", arrival=PoissonArrivals())
    elif kind == "late":
        scenario = ScenarioSpec(name="late", arrival=LateArrivals())
    else:
        straddled = draw(st.sampled_from(horizons))
        opened = straddled * draw(st.sampled_from([0.2, 0.6, 0.95]))
        window = FailureWindow(
            draw(st.sampled_from(sorted(allocation.machines))),
            opened,
            straddled - opened + draw(st.sampled_from([0.01, 0.4, 2.0])),
            count=draw(st.integers(1, 3)),
        )
        scenario = ScenarioSpec(
            name="bursty+degraded",
            arrival=BurstyArrivals(on=0.3, off=0.2),
            slowdowns=((window.type_id, 0.8),),
            failures=(window,),
        )
    max_datasets = draw(st.one_of(st.none(), st.integers(1, 12)))
    return problem, allocation, scenario, draw(st.integers(0, 99)), horizons, max_datasets


class TestPrefixReports:
    @settings(max_examples=40, deadline=None)
    @given(case=prefix_cases())
    def test_prefix_reports_equal_independent_reference_runs(self, case):
        problem, allocation, scenario, seed, horizons, max_datasets = case
        _check_prefixes(
            problem, allocation, scenario=scenario, seed=seed,
            horizons=horizons, max_datasets=max_datasets,
        )

    def test_horizon_before_the_first_arrival(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        scenario = ScenarioSpec(name="late", arrival=LateArrivals())
        prefixes = _check_prefixes(
            illustrating_problem_70, allocation, scenario=scenario, seed=3,
            horizons=[1.0, 0.2, 0.2], max_datasets=None,
        )
        assert prefixes[0.2].arrivals == 0 and prefixes[1.0].arrivals > 0

    def test_max_datasets_reached_before_the_shorter_horizon(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        prefixes = _check_prefixes(
            illustrating_problem_70, allocation, scenario=SCENARIOS[3], seed=5,
            horizons=[4.0, 2.0, 4.0], max_datasets=5,
        )
        assert prefixes[2.0].arrivals == prefixes[4.0].arrivals == 5

    def test_prefix_beyond_the_horizon_rejected(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        for engine in ("fast", "reference"):
            simulator = StreamSimulator(illustrating_problem_70, allocation, engine=engine)
            for prefixes in ([5.0, 9.0], [0.0]):
                with pytest.raises(SimulationError, match="prefix horizons"):
                    simulator.run(horizon=8.0, prefixes=prefixes)


class TestEventCounters:
    def test_fast_engine_reports_event_core_counters(self, illustrating_problem_70):
        """The fast engine publishes heappush/heappop/dispatch-scan totals in
        report metadata — the numbers the ROADMAP's calendar-queue question
        needs — while the reference engine stays counter-free."""
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        sim = StreamSimulator(
            illustrating_problem_70, allocation, scenario=SCENARIOS[3], seed=1
        )
        report = sim.run(horizon=8.0)
        counters = report.metadata["event_counters"]
        assert set(counters) == {"heappush", "heappop", "dispatch_scan"}
        assert counters["heappush"] >= counters["heappop"] > 0
        assert counters["dispatch_scan"] > 0

        reference = StreamSimulator(
            illustrating_problem_70, allocation,
            scenario=SCENARIOS[3], seed=1, engine="reference",
        ).run(horizon=8.0)
        assert "event_counters" not in reference.metadata


class TestWakeDedupe:
    def test_repeated_dispatches_schedule_one_resume(self, illustrating_problem_70):
        """Several dispatches inside one failure window must not pile up
        RESUME events — ``wake_at`` dedupes to one wake-up per window end."""
        from repro.simulation import EventKind, EventQueue, PendingTask
        from repro.simulation.processor import ProcessorPool

        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        pool = ProcessorPool(illustrating_problem_70.platform, allocation)
        instance = pool.instances_of(1)[0]
        instance.set_unavailable([(0.0, 5.0)])
        simulator = StreamSimulator(illustrating_problem_70, allocation)
        queue = EventQueue()
        for task_id in range(4):
            instance.enqueue(PendingTask(0, task_id, 1.0))
            simulator._start_or_wake(queue, instance, now=1.0)
        events = [queue.pop() for _ in range(len(queue))]
        resumes = [e for e in events if e.kind == EventKind.RESUME]
        assert len(resumes) == 1
        assert resumes[0].time == 5.0
        assert instance.wake_at == 5.0

    def test_fast_and_reference_agree_on_wake_heavy_scenario(
        self, illustrating_problem_70
    ):
        """End-to-end: a window over the busiest type forces queued work to
        wake exactly once per instance, identically in both engines."""
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        scenario = ScenarioSpec(
            name="stall",
            failures=(FailureWindow(1, 0.0, 3.0, count=99), FailureWindow(1, 4.0, 1.0)),
        )
        fast, reference = _both(
            illustrating_problem_70, allocation, scenario=scenario, seed=0, horizon=8.0
        )
        assert fast == reference


class TestHotPathRegressions:
    def test_missing_completion_timestamp_raises(self, illustrating_problem_70):
        """A data set finishing without a completion stamp must raise, not
        silently record latency 0.0 (which poisons mean_latency)."""
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        original = DataSetInstance.complete_task

        def no_stamp(self, task_id, time):
            newly_ready = original(self, task_id, time)
            self.completion_time = None
            return newly_ready

        simulator = StreamSimulator(illustrating_problem_70, allocation, engine="reference")
        try:
            DataSetInstance.complete_task = no_stamp
            with pytest.raises(SimulationError, match="without a completion timestamp"):
                simulator.run(horizon=5.0)
        finally:
            DataSetInstance.complete_task = original

    def test_negative_first_arrival_rejected_at_schedule_boundary(
        self, illustrating_problem_70
    ):
        """Time validation moved from EventQueue.push to the schedule
        boundary: a misbehaving arrival process is caught at the first draw."""

        class NegativeArrivals(PoissonArrivals):
            def times(self, rate, rng):
                yield -1.0
                yield from super().times(rate, rng)

        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        for engine in ("fast", "reference"):
            simulator = StreamSimulator(
                illustrating_problem_70,
                allocation,
                scenario=ScenarioSpec(name="neg", arrival=NegativeArrivals()),
                engine=engine,
            )
            with pytest.raises(SimulationError, match="negative"):
                simulator.run(horizon=5.0)

    def test_unknown_engine_rejected(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        with pytest.raises(SimulationError, match="unknown engine"):
            StreamSimulator(illustrating_problem_70, allocation, engine="warp")
