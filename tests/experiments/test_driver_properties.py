"""Randomised differential test of the fan-out driver (experiments.backends.run_units).

Sweeps and validation campaigns run through one driver; whatever backend,
unit size, checkpoint store, memo state or interrupt-and-resume history a run
has, its records must equal those of one uninterrupted serial run, and its
checkpoint must read back to the same records.  The pool backend is one
instance, so every example and both stages of each (the interrupted run and
its resume included) share one warm pool across different plans.
"""

import json
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.backends import ProcessPoolBackend
from repro.experiments.config import default_plan
from repro.experiments.runner import SweepResult, run_plan
from repro.experiments.store import SweepStore
from repro.experiments.validation import (
    ValidationStore,
    load_campaign,
    plan_from_sweep,
    run_validation,
)
from repro.simulation import DEFAULT_SCENARIO, PoissonArrivals, ScenarioSpec

SCENARIOS = (DEFAULT_SCENARIO, ScenarioSpec(name="poisson", arrival=PoissonArrivals()))
BACKENDS = {"serial": None, "pool": ProcessPoolBackend(2)}


def sweep_plan(configurations: int):
    plan = default_plan(
        "small", num_configurations=configurations, target_throughputs=(40, 80), iterations=30
    )
    return replace(
        plan, algorithms=tuple(a for a in plan.algorithms if a.name in ("ILP", "H1", "H32"))
    )


def campaign_plan(sweep: SweepResult):
    return plan_from_sweep(sweep, horizons=(3.0, 5.0), scenarios=SCENARIOS)


def sweep_lines(result) -> list[str]:
    """Canonical record lines without the wall-clock ``time`` field."""
    return [
        json.dumps({k: v for k, v in r.as_dict().items() if k != "time"}, sort_keys=True)
        for r in result.records
    ]


def campaign_lines(result) -> list[str]:
    return [json.dumps(r.as_dict(), sort_keys=True) for r in result.records]


class _Interrupt(Exception):
    pass


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    """Per configuration count: serial lines of both kinds and a warm memo file."""
    out = {}
    for configurations in (1, 2):
        plan = sweep_plan(configurations)
        sweep = run_plan(plan, capture_allocations=True)
        campaign = run_validation(campaign_plan(sweep))
        memo = tmp_path_factory.mktemp("memo") / "memo.jsonl"
        run_validation(
            campaign_plan(run_plan(plan, capture_allocations=True, memo=memo)), memo=memo
        )
        out[configurations] = (sweep_lines(sweep), campaign_lines(campaign), memo)
    return out


def drive(run, store_kind: str, root: Path, store_type, interrupt: int):
    """One run of ``run`` under a store kind, interrupted and resumed if asked.

    Returns the result and the path the checkpoint can be loaded from.
    """
    if store_kind == "none":
        return run(store=None, progress=None), None
    path = root / f"{store_type.data_description}.jsonl"
    done = 0

    def tripwire(_message):
        nonlocal done
        done += 1
        if done == interrupt:
            raise _Interrupt

    try:
        return run(store=store_type(path), progress=tripwire), path
    except _Interrupt:
        # a path resumes through the driver's own store resolution
        return run(store=str(path), progress=None, resume=True), path


@settings(max_examples=20, deadline=None)
@given(
    backend=st.sampled_from(sorted(BACKENDS)),
    configurations=st.sampled_from([1, 2]),
    chunk_size=st.sampled_from([None, 1, 2]),
    store_kind=st.sampled_from(["none", "file"]),
    memo_state=st.sampled_from(["off", "cold", "warm"]),
    interrupt=st.integers(min_value=0, max_value=4),
)
def test_driver_matches_uninterrupted_serial_run(
    references, backend, configurations, chunk_size, store_kind, memo_state, interrupt
):
    expected_sweep, expected_campaign, warm_memo = references[configurations]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        memo = None
        if memo_state != "off":
            memo = root / "memo.jsonl"
            if memo_state == "warm":
                shutil.copy(warm_memo, memo)

        def sweep_run(**kwargs):
            return run_plan(
                sweep_plan(configurations),
                backend=BACKENDS[backend],
                chunk_size=chunk_size,
                capture_allocations=True,
                memo=memo,
                **kwargs,
            )

        sweep, sweep_path = drive(sweep_run, store_kind, root, SweepStore, interrupt)
        assert sweep_lines(sweep) == expected_sweep
        if sweep_path is not None:
            assert sweep_lines(SweepResult.load(sweep_path)) == expected_sweep

        def campaign_run(**kwargs):
            return run_validation(
                campaign_plan(sweep),
                backend=BACKENDS[backend],
                chunk_size=chunk_size,
                memo=memo,
                **kwargs,
            )

        campaign, campaign_path = drive(
            campaign_run, store_kind, root, ValidationStore, interrupt
        )
        assert campaign_lines(campaign) == expected_campaign
        if campaign_path is not None:
            assert campaign_lines(load_campaign(campaign_path)) == expected_campaign

        for result in (sweep, campaign):
            if memo_state == "off":
                assert result.memo_stats is None
            elif memo_state == "warm" and result.memo_stats is not None:
                assert result.memo_stats.misses == 0
