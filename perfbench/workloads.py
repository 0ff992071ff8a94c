"""The seeded workload generator: every spec and request stream comes from ``--seed``.

The program under test only ever receives the generated specs.  The same
seed always yields the same sequence of studies and the same client
decisions, so a claim can be re-checked later on a seed that was not used
while the change was written.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.experiments.config import paper_algorithms
from repro.experiments.spec import ExecutionSpec, StudySpec, ValidationSpec, WorkloadSpec
from repro.simulation import (
    DEFAULT_SCENARIO,
    BurstyArrivals,
    FailureWindow,
    PoissonArrivals,
    ScenarioSpec,
)

#: The scenario axis of ``benchmarks/bench_scenarios.py`` plus the paper's
#: deterministic baseline.
SCENARIOS = (
    DEFAULT_SCENARIO,
    ScenarioSpec(name="poisson", arrival=PoissonArrivals()),
    ScenarioSpec(
        name="bursty+degraded",
        arrival=BurstyArrivals(on=1.0, off=2.0),
        slowdowns=((1, 0.8),),
        failures=(FailureWindow(1, 1.0, 2.0), FailureWindow(2, 4.0, 1.0)),
    ),
)

#: Generated configurations are the main source of spread between seeds, so
#: a run holds as many as fits.  study-des simulates the paper's lowest
#: throughput, 20, on eight configurations per study: there one
#: configuration's study costs 0.26 s with a coefficient of variation of
#: 0.16 across configurations, against 0.47-1.17 s and 0.38-0.47 at 40, 60
#: and 80, where some allocations build up long backlogs in the degraded
#: scenario.  sweep-solve solves five throughputs on four configurations
#: per study (the solve time of one configuration varies by ~40 %).
DES_CONFIGURATIONS = 8
DES_THROUGHPUTS = (20.0,)
SWEEP_CONFIGURATIONS = 4
SWEEP_THROUGHPUTS = (20.0, 60.0, 100.0, 140.0, 180.0)

#: The amount of work in a run is fixed by ``--seconds`` alone, never by how
#: fast the code is, so one seed gives the same inputs on every commit.  These
#: are the seconds one unit of work took on the 2-vCPU machine the benchmark
#: was sized on: one study-des study, one sweep-solve study, and twice one
#: fresh serve-mixed job (~0.09 s with its share of resubmits and polls).
#: serve-mixed drives the server for only half the run because removing the
#: fsynced checkpoint files its jobs leave takes about as long again on a
#: disk mounted with online discard (~40 ms per file).
NOMINAL_SECONDS = {"study-des": 2.4, "sweep-solve": 1.65, "serve-mixed": 0.18}

#: serve-mixed: the share of requests that resubmit a finished study.  The
#: service has no recorded traffic, so this is an assumption, not a
#: measurement; resubmits only feed ``job_repeat_p50_ms`` and the memo and
#: dedup read paths, and the headline throughput counts fresh jobs only.
REPEAT_SHARE = 0.3
#: serve-mixed: seconds a waiting client sleeps between status polls.
POLL_INTERVAL = 0.02
#: serve-mixed: fresh studies per memo-sharing chain (see :func:`serve_study`).
SERVE_CHAIN = 4


def derive(seed: int, *parts) -> int:
    """A 31-bit seed derived from ``seed`` and labels (stable across runs)."""
    text = "|".join(str(part) for part in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def units_for(workload: str, seconds: float) -> int:
    """Studies (or fresh serve-mixed jobs) that make up a run of ``seconds``."""
    return max(1, round(seconds / NOMINAL_SECONDS[workload]))


def serve_stream(seed: int, fresh: int) -> list:
    """The serve-mixed request stream: ``(resubmit, pick)`` per job, ``fresh`` fresh ones.

    A resubmit targets the finished study at position ``pick`` (in [0, 1)) of
    the finished list when it is sent; the first request is always fresh.
    """
    rng = np.random.default_rng(derive(seed, "serve-stream"))
    stream, made = [], 0
    while made < fresh:
        kind, pick = rng.random(2)
        repeat = made > 0 and kind < REPEAT_SHARE
        stream.append((bool(repeat), float(pick)))
        made += not repeat
    return stream


def des_study(seed: int, index: int, store_dir: str) -> StudySpec:
    """study-des: the paper pipeline as a researcher runs it, serial, no memo."""
    return StudySpec(
        name=f"study-des-{index}",
        workload=WorkloadSpec(
            setting="small",
            num_configurations=DES_CONFIGURATIONS,
            target_throughputs=DES_THROUGHPUTS,
            base_seed=derive(seed, "study-des", index),
        ),
        algorithms=tuple(paper_algorithms(iterations=1000)),
        execution=ExecutionSpec(store_dir=store_dir),
        validation=ValidationSpec(
            horizons=(15.0, 30.0), rate_multipliers=(1.0, 1.05), scenarios=SCENARIOS
        ),
    )


def sweep_study(seed: int, index: int, store_dir: str) -> StudySpec:
    """sweep-solve: a sweep-only study (120 solves) with captured allocations."""
    return StudySpec(
        name=f"sweep-solve-{index}",
        workload=WorkloadSpec(
            setting="medium",
            num_configurations=SWEEP_CONFIGURATIONS,
            target_throughputs=SWEEP_THROUGHPUTS,
            base_seed=derive(seed, "sweep-solve", index),
        ),
        algorithms=tuple(paper_algorithms(iterations=1000)),
        execution=ExecutionSpec(store_dir=store_dir, capture_allocations=True),
    )


def serve_study(seed: int, index: int) -> StudySpec:
    """The ``index``-th fresh serve-mixed study.

    The memo serves whole work units only (a sweep unit is one
    configuration's throughputs, a validation unit one horizon), so sharing
    is laid out in units.  Studies come in chains of :data:`SERVE_CHAIN`:
    a chain generates its own configuration and solves two integer
    throughputs summing to 160 (the exact solver's optimum is only
    guaranteed on integer throughputs), and its ``j``-th study validates
    horizons ``(3 + j, 4 + j)``.  The first study of a chain computes all
    three of its units; each later one reuses the sweep and one horizon and
    computes the other, so half of all units are memo hits.
    """
    chain, position = divmod(index, SERVE_CHAIN)
    base_seed = derive(seed, "serve-mixed", chain)
    low = 20 + base_seed % 61
    keep = ("ILP", "H1", "H32")
    return StudySpec(
        name=f"serve-{index}",
        workload=WorkloadSpec(
            setting="small",
            num_configurations=1,
            target_throughputs=(float(low), float(160 - low)),
            base_seed=base_seed,
        ),
        algorithms=tuple(
            spec for spec in paper_algorithms(iterations=200) if spec.name in keep
        ),
        validation=ValidationSpec(
            horizons=(3.0 + position, 4.0 + position), rate_multipliers=(1.0,)
        ),
    )

