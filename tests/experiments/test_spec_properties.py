"""Randomised round-trip and malformed-input properties of the study spec.

Every valid :class:`StudySpec` survives ``as_dict`` → JSON → ``from_dict``
unchanged, fingerprint included; and whatever single leaf or subtree of a
valid spec dict is replaced by junk JSON, ``from_dict`` either refuses it
with one :class:`ConfigurationError` or returns a spec that serialises to
strict JSON and round-trips — never any other exception.
"""

import json
import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError
from repro.experiments.config import AlgorithmSpec
from repro.experiments.spec import (
    ExecutionSpec,
    StudySpec,
    ValidationSpec,
    WorkloadSpec,
    study_fingerprint,
)
from repro.generators.workload import PAPER_SETTINGS, get_setting
from repro.simulation.scenarios import (
    BatchArrivals,
    BurstyArrivals,
    DeterministicArrivals,
    FailureWindow,
    PoissonArrivals,
    ScenarioSpec,
)


def floats(low: float, high: float):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


words = st.text("abcxyz-_", min_size=1, max_size=6)
type_ids = st.one_of(st.integers(1, 5), st.sampled_from(["gpu", "cpu"]))

settings_ = st.one_of(
    st.sampled_from(sorted(PAPER_SETTINGS)),
    st.builds(
        lambda name, fraction, recipes, rng: replace(
            get_setting("small"),
            name=name,
            mutation_fraction=fraction,
            num_recipes=recipes,
            throughput_range=rng,
        ),
        words,
        floats(0.0, 1.0),
        st.integers(1, 30),
        st.tuples(st.integers(1, 10), st.integers(11, 100)),
    ),
)

workloads = st.builds(
    WorkloadSpec,
    setting=settings_,
    num_configurations=st.none() | st.integers(1, 100),
    target_throughputs=st.none() | st.lists(floats(1.0, 500.0), min_size=1, max_size=4),
    base_seed=st.integers(0, 2**31),
)

algorithm_choices = st.one_of(
    st.just(AlgorithmSpec("ILP")),
    st.builds(lambda limit: AlgorithmSpec("ILP", {"time_limit": limit}), floats(0.5, 100.0)),
    st.just(AlgorithmSpec("H1")),
    st.builds(
        lambda iterations, delta: AlgorithmSpec(
            "H2", {"iterations": iterations, "delta": delta}, seed_sensitive=True
        ),
        st.integers(1, 500),
        floats(0.5, 20.0),
    ),
    st.builds(lambda iterations: AlgorithmSpec("H32", {"iterations": iterations}),
              st.integers(1, 500)),
    st.just(AlgorithmSpec("DP", {"allow_shared_types": True})),
)
algorithm_lists = st.lists(algorithm_choices, min_size=1, max_size=4, unique_by=lambda a: a.name)

arrivals = st.one_of(
    st.just(DeterministicArrivals()),
    st.just(PoissonArrivals()),
    st.builds(BurstyArrivals, on=floats(0.1, 10.0), off=floats(0.1, 10.0)),
    st.builds(BatchArrivals, size=st.integers(1, 10)),
)

scenarios = st.builds(
    ScenarioSpec,
    name=words,
    arrival=arrivals,
    slowdowns=st.lists(
        st.tuples(type_ids, floats(0.1, 2.0)), max_size=3, unique_by=lambda pair: pair[0]
    ).map(tuple),
    failures=st.lists(
        st.builds(
            FailureWindow,
            type_id=type_ids,
            start=floats(0.0, 50.0),
            duration=floats(0.1, 20.0),
            count=st.integers(1, 3),
        ),
        max_size=2,
    ).map(tuple),
)


@st.composite
def executions(draw):
    store_dir = draw(st.none() | words)
    memo = draw(st.booleans())
    return ExecutionSpec(
        workers=draw(st.none() | st.integers(1, 8)),
        chunk_size=draw(st.none() | st.integers(1, 5)),
        store_dir=store_dir,
        sweep_store=draw(st.none() | words),
        resume=store_dir is not None and draw(st.booleans()),
        capture_allocations=draw(st.booleans()),
        memo=memo,
        memo_path=draw(st.none() | words) if memo else None,
    )


@st.composite
def validations(draw, swept: list[str]):
    screen = draw(st.sampled_from(["none", "fluid"]))
    names = draw(st.none() | st.lists(st.sampled_from(swept), min_size=1, unique=True))
    return ValidationSpec(
        horizons=tuple(draw(st.lists(floats(0.5, 100.0), min_size=1, max_size=3))),
        rate_multipliers=tuple(draw(st.lists(floats(0.5, 2.0), min_size=1, max_size=3))),
        warmup_fraction=draw(floats(0.0, 0.9)),
        max_datasets=draw(st.none() | st.integers(1, 1000)),
        algorithms=None if names is None else tuple(names),
        scenarios=draw(
            st.none()
            | st.lists(scenarios, min_size=1, max_size=3, unique_by=lambda s: s.name).map(tuple)
        ),
        screen=screen,
        screen_threshold=draw(floats(0.1, 2.0)),
    )


@st.composite
def study_specs(draw):
    algorithms = tuple(draw(algorithm_lists))
    swept = [spec.name for spec in algorithms]
    return StudySpec(
        name=draw(words),
        workload=draw(workloads),
        algorithms=algorithms,
        execution=draw(executions()),
        validation=draw(st.none() | validations(swept)),
        series=draw(st.sampled_from(["normalized_cost", "best_count", "mean_time", "mean_cost"])),
        description=draw(st.text(max_size=10)),
    )


def _json_round_trip(spec: StudySpec) -> StudySpec:
    return StudySpec.from_dict(json.loads(json.dumps(spec.as_dict(), allow_nan=False)))


@given(spec=study_specs())
@settings(max_examples=60, deadline=None)
def test_valid_specs_round_trip_with_their_fingerprint(spec):
    again = _json_round_trip(spec)
    assert again == spec
    assert study_fingerprint(again) == study_fingerprint(spec)


# JSON values a client can send in place of any leaf or subtree
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(max_value=-1),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=5),
    st.sampled_from([[], {}, [5]]),
)


def _positions(value, path=()):
    """The path of every subtree (leaves included) below the root."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _positions(child, path + (key,))


@given(spec=study_specs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_malformed_leaf_is_refused_or_round_trips(spec, data):
    tree = json.loads(json.dumps(spec.as_dict()))
    path = data.draw(st.sampled_from(list(_positions(tree))), label="path")
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(junk, label="junk")
    try:
        parsed = StudySpec.from_dict(tree)
    except ConfigurationError as exc:
        assert "\n" not in str(exc)
        return
    assert _json_round_trip(parsed) == parsed
