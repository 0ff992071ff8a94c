"""Tests for the validation campaign subsystem (experiments.validation)."""

import json
from dataclasses import replace

import pytest

from repro.core import ConfigurationError
from repro.experiments.backends import ProcessPoolBackend
from repro.experiments.config import default_plan
from repro.experiments.runner import AllocationPayload, RunRecord, SweepResult, run_plan
from repro.experiments.store import SweepStore, load_sweep_result
from repro.experiments.validation import (
    AllocationSource,
    CampaignResult,
    ValidationPlan,
    ValidationRecord,
    ValidationStore,
    ValidationUnit,
    backlog_series,
    latency_series,
    load_campaign,
    plan_from_sweep,
    plan_validation_units,
    reorder_peak_series,
    run_validation,
    scenario_seed,
    throughput_ratio_series,
    utilization_series,
    validation_fingerprint,
    validation_plan_from_dict,
    validation_plan_to_dict,
)
from repro.simulation import (
    DEFAULT_SCENARIO,
    BurstyArrivals,
    FailureWindow,
    PoissonArrivals,
    ScenarioSpec,
    StreamSimulator,
)


def small_plan(num_configurations=2, throughputs=(50, 100), algorithms=("ILP", "H1")):
    plan = default_plan(
        "small",
        num_configurations=num_configurations,
        target_throughputs=throughputs,
        iterations=100,
    )
    return replace(plan, algorithms=tuple(a for a in plan.algorithms if a.name in algorithms))


def record_lines(campaign: CampaignResult) -> list[str]:
    """Canonical JSONL serialisation of every record (the byte-identity probe)."""
    return [
        json.dumps(record.as_dict(), sort_keys=True, separators=(",", ":"))
        for record in campaign.records
    ]


@pytest.fixture(scope="module")
def captured_sweep() -> SweepResult:
    return run_plan(small_plan(), capture_allocations=True)


@pytest.fixture(scope="module")
def campaign_plan(captured_sweep) -> ValidationPlan:
    return plan_from_sweep(
        captured_sweep, horizons=(8.0,), rate_multipliers=(1.0, 1.05)
    )


@pytest.fixture(scope="module")
def serial_campaign(campaign_plan) -> CampaignResult:
    return run_validation(campaign_plan)


class TestAllocationPayload:
    def test_capture_attaches_round_trippable_payload(self, captured_sweep):
        record = captured_sweep.records[0]
        assert record.allocation is not None
        rebuilt = AllocationPayload.from_dict(record.allocation.as_dict())
        assert rebuilt == record.allocation
        allocation = rebuilt.to_allocation()
        assert allocation.cost == pytest.approx(record.cost)
        assert allocation.split.total >= record.rho - 1e-9

    def test_payload_survives_checkpoint_round_trip(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        run_plan(small_plan(), store=SweepStore(path), capture_allocations=True)
        loaded = load_sweep_result(path)
        assert all(r.allocation is not None for r in loaded.records)
        direct = run_plan(small_plan(), capture_allocations=True)
        assert [r.allocation for r in loaded.records] == [r.allocation for r in direct.records]

    def test_record_without_payload_still_loads(self, tmp_path):
        # a pre-payload checkpoint line (no "allocation" key) must round-trip
        legacy = {
            "configuration": 0,
            "rho": 50.0,
            "algorithm": "ILP",
            "cost": 124.0,
            "time": 0.01,
            "optimal": True,
            "iterations": 3,
        }
        record = RunRecord.from_dict(legacy)
        assert record.allocation is None
        assert record.as_dict() == legacy  # and no key is invented on the way out

    def test_uncaptured_sweep_has_no_payloads(self):
        sweep = run_plan(small_plan(num_configurations=1, throughputs=(50,)))
        assert all(r.allocation is None for r in sweep.records)

    def test_identity_ignores_payload(self, captured_sweep):
        plain = run_plan(small_plan())
        assert [r.identity() for r in plain.records] == [
            r.identity() for r in captured_sweep.records
        ]


class TestPlanFromSweep:
    def test_one_source_per_record(self, captured_sweep, campaign_plan):
        assert len(campaign_plan.sources) == len(captured_sweep.records)
        assert campaign_plan.num_simulations == len(captured_sweep.records) * 2

    def test_algorithm_filter(self, captured_sweep):
        plan = plan_from_sweep(captured_sweep, algorithms=("ILP",))
        assert {source.algorithm for source in plan.sources} == {"ILP"}
        with pytest.raises(ConfigurationError, match="no records"):
            plan_from_sweep(captured_sweep, algorithms=("H99",))

    def test_invalid_parameters_rejected(self, captured_sweep):
        with pytest.raises(ConfigurationError):
            plan_from_sweep(captured_sweep, horizons=())
        with pytest.raises(ConfigurationError):
            plan_from_sweep(captured_sweep, horizons=(0.0,))
        with pytest.raises(ConfigurationError):
            plan_from_sweep(captured_sweep, rate_multipliers=(-1.0,))
        with pytest.raises(ConfigurationError):
            plan_from_sweep(captured_sweep, warmup_fraction=1.0)

    def test_plan_round_trips_through_dict(self, campaign_plan):
        rebuilt = validation_plan_from_dict(validation_plan_to_dict(campaign_plan))
        assert rebuilt == campaign_plan
        assert validation_fingerprint(rebuilt) == validation_fingerprint(campaign_plan)

    def test_fingerprint_sensitive_to_scenario_grid(self, captured_sweep, campaign_plan):
        other = plan_from_sweep(captured_sweep, horizons=(8.0,), rate_multipliers=(1.0,))
        assert validation_fingerprint(other) != validation_fingerprint(campaign_plan)


class TestUnits:
    def test_units_cover_the_grid(self, campaign_plan):
        units = plan_validation_units(campaign_plan)
        covered = {
            (horizon, unit.rate_multiplier, source)
            for unit in units
            for horizon in campaign_plan.horizons
            for source in unit.sources
        }
        expected = {
            (h, m, s)
            for h in campaign_plan.horizons
            for m in campaign_plan.rate_multipliers
            for s in range(len(campaign_plan.sources))
        }
        assert covered == expected
        assert [unit.index for unit in units] == list(range(len(units)))

    def test_default_chunking_groups_by_configuration(self, campaign_plan):
        units = plan_validation_units(campaign_plan)
        for unit in units:
            configurations = {
                campaign_plan.sources[s].configuration for s in unit.sources
            }
            assert len(configurations) == 1

    def test_invalid_chunk_size_rejected(self, campaign_plan):
        with pytest.raises(ConfigurationError):
            plan_validation_units(campaign_plan, chunk_size=0)


class TestCampaignExecution:
    def test_parallel_byte_identical_to_serial(self, campaign_plan, serial_campaign):
        parallel = run_validation(campaign_plan, backend=ProcessPoolBackend(2))
        assert record_lines(parallel) == record_lines(serial_campaign)

    def test_chunked_byte_identical_to_serial(self, campaign_plan, serial_campaign):
        chunked = run_validation(campaign_plan, chunk_size=1)
        assert record_lines(chunked) == record_lines(serial_campaign)

    def test_resume_byte_identical_to_serial(self, tmp_path, campaign_plan, serial_campaign):
        class _Interrupt(Exception):
            pass

        path = tmp_path / "campaign.jsonl"
        done = 0

        def tripwire(_msg):
            nonlocal done
            done += 1
            if done >= 2:
                raise _Interrupt

        with pytest.raises(_Interrupt):
            run_validation(campaign_plan, store=ValidationStore(path), progress=tripwire)
        with pytest.raises(ConfigurationError, match="incomplete campaign"):
            load_campaign(path)
        assert load_campaign(path, allow_partial=True).records
        resumed = run_validation(campaign_plan, store=ValidationStore(path), resume=True)
        assert record_lines(resumed) == record_lines(serial_campaign)
        assert record_lines(load_campaign(path)) == record_lines(serial_campaign)

    def test_uncaptured_sweep_is_refused(self, captured_sweep):
        # a record without its allocation is refused, never re-solved: a
        # re-solve may not return the allocation the sweep priced
        plain = run_plan(small_plan(num_configurations=1, throughputs=(50,)))
        with pytest.raises(ConfigurationError, match="capture_allocations") as error:
            plan_from_sweep(plain)
        message = str(error.value)
        assert "configuration 0, rho 50, ILP" in message
        assert "\n" not in message
        # one uncaptured record among captured ones is enough
        mixed = SweepResult(
            plan=captured_sweep.plan,
            records=captured_sweep.records[:-1]
            + [replace(captured_sweep.records[-1], allocation=None)],
        )
        with pytest.raises(ConfigurationError, match="carries no allocation"):
            plan_from_sweep(mixed)
        # unless the algorithm filter leaves it out
        last = captured_sweep.records[-1].algorithm
        keep = tuple({r.algorithm for r in captured_sweep.records} - {last})
        assert plan_from_sweep(mixed, algorithms=keep).sources

    def test_validate_refuses_uncaptured_sweep_file(self, tmp_path, capsys):
        from repro.cli import main

        sweep_file = tmp_path / "sweep.jsonl"
        assert main(
            ["figure", "figure3", "--configurations", "1", "--throughputs", "60",
             "--iterations", "60", "--out", str(sweep_file), "--quiet"]
        ) == 0
        capsys.readouterr()
        campaign_file = tmp_path / "campaign.jsonl"
        assert main(
            ["validate", str(sweep_file), "--horizons", "6", "--out",
             str(campaign_file), "--quiet"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert "--capture-allocations" in captured.err
        assert "Traceback" not in captured.err
        assert not campaign_file.exists()

    def test_resume_without_store_rejected(self, campaign_plan):
        with pytest.raises(ConfigurationError, match="requires a store"):
            run_validation(campaign_plan, resume=True)

    def test_single_source_units_parallel_byte_identical(
        self, campaign_plan, serial_campaign
    ):
        # many one-source units on a pool: unit shape and completion order
        # cannot change a record byte
        pooled = run_validation(
            campaign_plan, chunk_size=1, backend=ProcessPoolBackend(2)
        )
        assert record_lines(pooled) == record_lines(serial_campaign)

    def test_resume_mid_unit_with_truncated_tail(
        self, tmp_path, campaign_plan, serial_campaign
    ):
        """A kill mid-append — the final JSONL line torn partway through a
        default multi-source unit — must resume to records byte-identical to
        the serial campaign."""

        class _Interrupt(Exception):
            pass

        path = tmp_path / "campaign.jsonl"
        done = 0

        def tripwire(_msg):
            nonlocal done
            done += 1
            if done >= 2:
                raise _Interrupt

        assert all(len(unit.sources) > 1 for unit in plan_validation_units(campaign_plan))
        with pytest.raises(_Interrupt):
            run_validation(campaign_plan, store=ValidationStore(path), progress=tripwire)
        # tear the last checkpoint line mid-record, as a power cut would
        torn = path.read_bytes()[:-40]
        path.write_bytes(torn)
        with pytest.raises(ConfigurationError, match="incomplete campaign"):
            load_campaign(path)
        resumed = run_validation(campaign_plan, store=ValidationStore(path), resume=True)
        assert record_lines(resumed) == record_lines(serial_campaign)
        assert record_lines(load_campaign(path)) == record_lines(serial_campaign)

    def test_campaign_sustains_design_point(self, serial_campaign):
        # the paper's claim, checked end to end: at the design rate every
        # exact allocation keeps up within the simulator's tolerance
        design = [
            record
            for record in serial_campaign.records
            if record.rate_multiplier == 1.0 and record.algorithm == "ILP"
        ]
        assert design
        assert all(record.sustains_target(tolerance=0.1) for record in design)


SCENARIOS = (
    DEFAULT_SCENARIO,
    ScenarioSpec(name="poisson", arrival=PoissonArrivals()),
    ScenarioSpec(
        name="bursty+fail",
        arrival=BurstyArrivals(on=1.0, off=2.0),
        slowdowns=((1, 0.8),),
        failures=(FailureWindow(1, 1.0, 2.0),),
    ),
)


@pytest.fixture(scope="module")
def scenario_plan(captured_sweep) -> ValidationPlan:
    return plan_from_sweep(
        captured_sweep, horizons=(6.0,), rate_multipliers=(1.0,), scenarios=SCENARIOS
    )


@pytest.fixture(scope="module")
def scenario_campaign(scenario_plan) -> CampaignResult:
    return run_validation(scenario_plan)


class TestScenarioAxis:
    def test_grid_covers_every_scenario(self, scenario_plan):
        assert scenario_plan.num_simulations == len(scenario_plan.sources) * 3
        units = plan_validation_units(scenario_plan)
        covered = {
            (horizon, unit.rate_multiplier, unit.scenario, source)
            for unit in units
            for horizon in scenario_plan.horizons
            for source in unit.sources
        }
        expected = {
            (h, m, s, i)
            for h in scenario_plan.horizons
            for m in scenario_plan.rate_multipliers
            for s in range(len(SCENARIOS))
            for i in range(len(scenario_plan.sources))
        }
        assert covered == expected

    def test_records_carry_their_scenario(self, scenario_plan, scenario_campaign):
        names = {record.scenario for record in scenario_campaign.records}
        assert names == {"baseline", "poisson", "bursty+fail"}
        assert scenario_campaign.scenarios() == ["baseline", "poisson", "bursty+fail"]
        per_scenario = len(scenario_plan.sources)
        for name in names:
            assert len(scenario_campaign.filter(scenario=name)) == per_scenario

    def test_scenario_plan_round_trips_and_fingerprints(self, scenario_plan, campaign_plan):
        data = validation_plan_to_dict(scenario_plan)
        assert "scenarios" in data
        rebuilt = validation_plan_from_dict(data)
        assert rebuilt == scenario_plan
        assert validation_fingerprint(rebuilt) == validation_fingerprint(scenario_plan)
        assert validation_fingerprint(scenario_plan) != validation_fingerprint(campaign_plan)

    def test_scenario_free_plan_serialises_its_scenario_axis(self, campaign_plan):
        # the default axis is written like any other, and the plan and unit
        # dicts are refused without it
        data = validation_plan_to_dict(campaign_plan)
        assert data["scenarios"] == [DEFAULT_SCENARIO.as_dict()]
        assert validation_plan_from_dict(data).scenarios == (DEFAULT_SCENARIO,)
        with pytest.raises(ConfigurationError, match="'scenarios'"):
            validation_plan_from_dict({k: v for k, v in data.items() if k != "scenarios"})
        for unit in plan_validation_units(campaign_plan):
            assert unit.as_dict()["scenario"] == 0
        with pytest.raises(KeyError):
            ValidationUnit.from_dict(
                {"index": 0, "rate_multiplier": 1.0, "sources": [0]}
            )

    def test_baseline_records_serialise_their_scenario(self, scenario_campaign):
        baseline = scenario_campaign.filter(scenario="baseline")
        assert baseline
        for record in baseline:
            data = record.as_dict()
            assert data["scenario"] == "baseline"
            assert ValidationRecord.from_dict(data) == record
            with pytest.raises(KeyError):
                ValidationRecord.from_dict({k: v for k, v in data.items() if k != "scenario"})
        stressed = scenario_campaign.filter(scenario="poisson")[0]
        assert stressed.as_dict()["scenario"] == "poisson"

    def test_duplicate_scenario_names_rejected(self, captured_sweep):
        with pytest.raises(ConfigurationError, match="unique"):
            plan_from_sweep(
                captured_sweep,
                scenarios=(ScenarioSpec(), ScenarioSpec(name="baseline")),
            )
        with pytest.raises(ConfigurationError, match="at least one scenario"):
            plan_from_sweep(captured_sweep, scenarios=())

    def test_parallel_and_resume_byte_identical_under_scenarios(
        self, tmp_path, scenario_plan, scenario_campaign
    ):
        serial_lines = record_lines(scenario_campaign)
        parallel = run_validation(scenario_plan, backend=ProcessPoolBackend(2))
        assert record_lines(parallel) == serial_lines

        class _Interrupt(Exception):
            pass

        done = 0

        def tripwire(_msg):
            nonlocal done
            done += 1
            if done >= 2:
                raise _Interrupt

        path = tmp_path / "scenario-campaign.jsonl"
        with pytest.raises(_Interrupt):
            run_validation(scenario_plan, store=ValidationStore(path), progress=tripwire)
        resumed = run_validation(scenario_plan, store=ValidationStore(path), resume=True)
        assert record_lines(resumed) == serial_lines
        assert record_lines(load_campaign(path)) == serial_lines

    def test_scenario_seed_depends_on_source_and_scenario(self, scenario_plan):
        # common random numbers: the seed is a function of the grid point
        # (configuration, rho) and the scenario, never of the algorithm
        base = scenario_plan.sweep_plan.base_seed
        ilp = next(s for s in scenario_plan.sources if s.algorithm == "ILP")
        h1 = next(
            s for s in scenario_plan.sources
            if (s.configuration, s.rho, s.algorithm) == (ilp.configuration, ilp.rho, "H1")
        )
        other_rho = next(
            s for s in scenario_plan.sources
            if s.configuration == ilp.configuration and s.rho != ilp.rho
        )
        other_configuration = next(
            s for s in scenario_plan.sources
            if s.configuration != ilp.configuration and s.rho == ilp.rho
        )
        poisson, bursty = SCENARIOS[1], SCENARIOS[2]
        assert scenario_seed(base, ilp, poisson) == scenario_seed(base, ilp, poisson)
        assert scenario_seed(base, ilp, poisson) == scenario_seed(base, h1, poisson)
        assert scenario_seed(base, ilp, bursty) == scenario_seed(base, h1, bursty)
        assert scenario_seed(base, ilp, poisson) != scenario_seed(base, other_rho, poisson)
        assert scenario_seed(base, ilp, poisson) != scenario_seed(
            base, other_configuration, poisson
        )
        assert scenario_seed(base, ilp, poisson) != scenario_seed(base, ilp, bursty)

    def test_series_filter_by_scenario(self, scenario_campaign):
        overall = throughput_ratio_series(scenario_campaign)
        baseline = throughput_ratio_series(scenario_campaign, scenario="baseline")
        stressed = throughput_ratio_series(scenario_campaign, scenario="bursty+fail")
        assert set(baseline.series) == set(overall.series) == {"ILP", "H1"}
        # the degraded scenario cannot beat the baseline on average
        for name in baseline.series:
            for clean, noisy in zip(baseline.series[name], stressed.series[name]):
                assert noisy <= clean + 0.05


class TestValidationStore:
    def test_sweep_checkpoint_is_refused(self, tmp_path, campaign_plan):
        path = tmp_path / "sweep.jsonl"
        run_plan(small_plan(), store=SweepStore(path))
        with pytest.raises(ConfigurationError, match="not a validation checkpoint"):
            run_validation(campaign_plan, store=ValidationStore(path), resume=True)

    def test_validation_checkpoint_not_resumable_as_sweep(self, tmp_path, campaign_plan):
        path = tmp_path / "campaign.jsonl"
        run_validation(campaign_plan, store=ValidationStore(path))
        with pytest.raises(ConfigurationError, match="not a sweep checkpoint"):
            run_plan(small_plan(), store=SweepStore(path), resume=True)

    def test_validation_checkpoint_not_loadable_as_sweep(self, tmp_path, campaign_plan):
        # e.g. `repro-cloud validate campaign.jsonl` passed the campaign file
        # instead of the sweep: the loader must name the real problem
        path = tmp_path / "campaign.jsonl"
        run_validation(campaign_plan, store=ValidationStore(path))
        with pytest.raises(ConfigurationError, match="validation checkpoint, not a sweep"):
            load_sweep_result(path)

    def test_mismatched_fingerprint_refused(self, tmp_path, captured_sweep, campaign_plan):
        path = tmp_path / "campaign.jsonl"
        run_validation(campaign_plan, store=ValidationStore(path))
        other = plan_from_sweep(captured_sweep, horizons=(5.0,))
        with pytest.raises(ConfigurationError, match="different validation plan"):
            run_validation(other, store=ValidationStore(path), resume=True)

    def test_populated_checkpoint_not_overwritten(self, tmp_path, campaign_plan):
        path = tmp_path / "campaign.jsonl"
        run_validation(campaign_plan, store=ValidationStore(path))
        with pytest.raises(ConfigurationError, match="resume=True"):
            run_validation(campaign_plan, store=ValidationStore(path))

    def test_header_only_foreign_checkpoint_not_overwritten(self, tmp_path, campaign_plan):
        # a campaign that died before its first unit leaves a bare validation
        # header; a sweep mistakenly pointed at the same --out must not wipe it
        path = tmp_path / "campaign.jsonl"
        ValidationStore(path).initialize(campaign_plan)
        header = path.read_text()
        with pytest.raises(ConfigurationError, match="refusing to overwrite"):
            run_plan(small_plan(), store=SweepStore(path))
        assert path.read_text() == header
        # and the mirror image: a bare sweep header is safe from a campaign
        sweep_path = tmp_path / "sweep.jsonl"
        SweepStore(sweep_path).initialize(small_plan())
        with pytest.raises(ConfigurationError, match="refusing to overwrite"):
            run_validation(campaign_plan, store=ValidationStore(sweep_path))
        # same-kind header-only files may still be recreated (aborted runs)
        ValidationStore(path).initialize(campaign_plan)

    def test_store_accepts_path_argument(self, tmp_path, campaign_plan):
        path = tmp_path / "campaign.jsonl"
        run_validation(campaign_plan, store=path)
        assert record_lines(load_campaign(path))

    def test_directory_checkpoint_refused(self, tmp_path, campaign_plan):
        path = tmp_path / "campaign.jsonl"
        run_validation(campaign_plan, store=ValidationStore(path))
        directory = tmp_path / "sharded"
        directory.mkdir()
        (directory / "shard-0000.jsonl").write_text(path.read_text())
        for load in (
            lambda: load_campaign(directory),
            lambda: run_validation(campaign_plan, store=directory, resume=True),
        ):
            with pytest.raises(ConfigurationError) as error:
                load()
            assert str(error.value) == (
                f"{directory} is a directory; a validation checkpoint is one JSONL file"
            )

    @pytest.mark.parametrize(
        "line, mutate",
        [
            # the unit line a chunked campaign wrote before chunks were retired
            pytest.param(
                2,
                lambda row: {**row, "unit": {"index": 0, "cells": [0, 4]}},
                id="chunk-shaped",
            ),
            pytest.param(
                2,
                lambda row: {k: v for k, v in row.items() if k != "records"},
                id="missing-key",
            ),
            pytest.param(
                1,
                lambda row: {k: v for k, v in row.items() if k != "plan"},
                id="header-without-plan",
            ),
            pytest.param(
                1,
                lambda row: {k: v for k, v in row.items() if k != "fingerprint"},
                id="header-without-fingerprint",
            ),
        ],
    )
    def test_malformed_unit_line_reports_location(
        self, tmp_path, campaign_plan, line, mutate
    ):
        path = tmp_path / "campaign.jsonl"
        run_validation(campaign_plan, store=ValidationStore(path))
        lines = path.read_text().splitlines()
        lines[line - 1] = json.dumps(mutate(json.loads(lines[line - 1])))
        path.write_text("\n".join(lines) + "\n")
        for load in (
            lambda: load_campaign(path),
            lambda: run_validation(campaign_plan, store=ValidationStore(path), resume=True),
        ):
            with pytest.raises(ConfigurationError, match=f"line {line} ") as error:
                load()
            assert "\n" not in str(error.value)

    @pytest.mark.parametrize("old_format", [1, 2])
    def test_older_checkpoint_formats_refused(self, tmp_path, campaign_plan, old_format):
        # a format-2 checkpoint holds one-horizon units, a format-1 one
        # records of the old per-algorithm seeds: resuming either would mix
        # unit shapes or seedings, loading it would serve them — both are
        # refused with one line that names the fix
        path = tmp_path / "campaign.jsonl"
        run_validation(campaign_plan, store=ValidationStore(path))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["version"] == 3
        assert set(json.loads(lines[1])["unit"]) == {
            "index", "rate_multiplier", "sources", "scenario"
        }
        lines[0] = json.dumps({**header, "version": old_format})
        path.write_text("\n".join(lines) + "\n")
        for load in (
            lambda: load_campaign(path),
            lambda: run_validation(campaign_plan, store=ValidationStore(path), resume=True),
        ):
            with pytest.raises(ConfigurationError, match="predates validation checkpoint") as error:
                load()
            assert f"format 3 (it has format {old_format})" in str(error.value)
            assert "re-run the campaign" in str(error.value)
            assert "memo written by a format-2 run still serves every cell" in str(error.value)
            assert "\n" not in str(error.value)

    def test_chunked_checkpoint_loads_complete(self, tmp_path, campaign_plan, serial_campaign):
        # a finished campaign checkpointed with a non-default chunk_size must
        # load as complete — completeness is about simulations, not unit count
        path = tmp_path / "campaign.jsonl"
        run_validation(campaign_plan, store=ValidationStore(path), chunk_size=1)
        loaded = load_campaign(path)
        assert record_lines(loaded) == record_lines(serial_campaign)


class TestSeries:
    def test_ratio_series_near_one_at_design_rate(self, serial_campaign):
        series = throughput_ratio_series(serial_campaign, rate_multiplier=1.0)
        assert series.throughputs == [50.0, 100.0]
        for name, values in series.series.items():
            assert all(v > 0.8 for v in values), name

    def test_stress_rate_does_not_exceed_design_ratio(self, serial_campaign):
        design = throughput_ratio_series(serial_campaign, rate_multiplier=1.0)
        stress = throughput_ratio_series(serial_campaign, rate_multiplier=1.05)
        for name in design.series:
            for d, s in zip(design.series[name], stress.series[name]):
                assert s <= d + 0.05

    def test_latency_and_utilization_series_shapes(self, serial_campaign):
        for series in (
            latency_series(serial_campaign),
            latency_series(serial_campaign, stat="max"),
            utilization_series(serial_campaign),
            reorder_peak_series(serial_campaign),
            backlog_series(serial_campaign),
        ):
            assert set(series.series) == {"ILP", "H1"}
            assert all(len(v) == 2 for v in series.series.values())

    def test_utilization_bounded(self, serial_campaign):
        series = utilization_series(serial_campaign)
        for values in series.series.values():
            assert all(0 <= v <= 1 for v in values)

    def test_invalid_latency_stat_rejected(self, serial_campaign):
        with pytest.raises(ConfigurationError):
            latency_series(serial_campaign, stat="median")

    def test_worst_ratio_is_minimum(self, serial_campaign):
        assert serial_campaign.worst_ratio() == pytest.approx(
            min(r.throughput_ratio for r in serial_campaign.records)
        )

    def test_filter_by_scenario(self, serial_campaign):
        subset = serial_campaign.filter(algorithm="ILP", rho=50.0, rate_multiplier=1.05)
        assert subset
        assert all(
            r.algorithm == "ILP" and r.rho == 50.0 and r.rate_multiplier == 1.05
            for r in subset
        )


# --------------------------------------------------------------------------- #
# the fluid fast-screen tier
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def screen_grid():
    """A grid with clearly underloaded cells (x0.5) and design-point cells."""
    return dict(
        horizons=(10.0,),
        rate_multipliers=(0.5, 1.0),
        scenarios=[ScenarioSpec(name="poisson", arrival=PoissonArrivals())],
    )


@pytest.fixture(scope="module")
def screened_plan(captured_sweep, screen_grid) -> ValidationPlan:
    return plan_from_sweep(
        captured_sweep, screen="fluid", screen_threshold=0.85, **screen_grid
    )


@pytest.fixture(scope="module")
def screened_campaign(screened_plan) -> CampaignResult:
    return run_validation(screened_plan)


@pytest.fixture(scope="module")
def unscreened_campaign(captured_sweep, screen_grid) -> CampaignResult:
    return run_validation(plan_from_sweep(captured_sweep, **screen_grid))


def _cell(record):
    return (
        record.configuration, record.rho, record.algorithm,
        record.horizon, record.rate_multiplier, record.scenario,
    )


class TestFluidScreen:
    def test_invalid_screen_values_rejected(self, captured_sweep, screen_grid):
        with pytest.raises(ConfigurationError):
            plan_from_sweep(captured_sweep, screen="magic", **screen_grid)
        with pytest.raises(ConfigurationError):
            plan_from_sweep(
                captured_sweep, screen="fluid", screen_threshold=0.0, **screen_grid
            )

    def test_screened_plan_round_trips(self, screened_plan):
        data = validation_plan_to_dict(screened_plan)
        assert data["screen"] == "fluid"
        assert data["screen_threshold"] == 0.85
        assert validation_plan_from_dict(data) == screened_plan

    def test_screen_participates_in_fingerprint(
        self, captured_sweep, screened_plan, screen_grid
    ):
        plain = plan_from_sweep(captured_sweep, **screen_grid)
        assert validation_fingerprint(screened_plan) != validation_fingerprint(plain)
        tighter = plan_from_sweep(
            captured_sweep, screen="fluid", screen_threshold=0.7, **screen_grid
        )
        assert validation_fingerprint(screened_plan) != validation_fingerprint(tighter)

    def test_unscreened_plan_serialises_its_screen_fields(self, campaign_plan):
        data = validation_plan_to_dict(campaign_plan)
        assert data["screen"] == "none"
        assert data["screen_threshold"] == 0.85
        for key in ("screen", "screen_threshold", "warmup_fraction", "max_datasets"):
            with pytest.raises(ConfigurationError, match=repr(key)):
                validation_plan_from_dict({k: v for k, v in data.items() if k != key})

    def test_every_grid_cell_is_recorded(
        self, screened_plan, screened_campaign, unscreened_campaign
    ):
        assert len(screened_campaign.records) == screened_plan.num_simulations
        assert sorted(map(_cell, screened_campaign.records)) == sorted(
            map(_cell, unscreened_campaign.records)
        )

    def test_both_tiers_present(self, screened_campaign):
        tiers = {record.tier for record in screened_campaign.records}
        assert tiers == {"fluid", "des"}
        # the underloaded half of the grid screens out, the design point runs
        for record in screened_campaign.records:
            if record.rate_multiplier == 0.5:
                assert record.tier == "fluid"

    def test_escalated_cells_byte_identical_to_unscreened(
        self, screened_campaign, unscreened_campaign
    ):
        exact = {_cell(r): r for r in unscreened_campaign.records}
        escalated = [r for r in screened_campaign.records if r.tier == "des"]
        assert escalated
        for record in escalated:
            assert record.as_dict() == exact[_cell(record)].as_dict()

    def test_screened_out_cells_agree_with_exact_des(
        self, screened_campaign, unscreened_campaign
    ):
        """Capacity verdict: every cell the fluid model cleared is one where
        the exact DES kept up with what actually arrived."""
        exact = {_cell(r): r for r in unscreened_campaign.records}
        cleared = [r for r in screened_campaign.records if r.tier == "fluid"]
        assert cleared
        for record in cleared:
            des = exact[_cell(record)]
            assert des.completed >= 0.95 * des.arrivals
            assert record.throughput_ratio == pytest.approx(1.0)

    def test_fluid_records_round_trip_with_tier(self, screened_campaign):
        record = next(r for r in screened_campaign.records if r.tier == "fluid")
        data = record.as_dict()
        assert data["tier"] == "fluid"
        assert ValidationRecord.from_dict(data) == record

    def test_des_records_serialise_their_tier(self, serial_campaign):
        for record in serial_campaign.records:
            data = record.as_dict()
            assert data["tier"] == "des"
            with pytest.raises(KeyError):
                ValidationRecord.from_dict({k: v for k, v in data.items() if k != "tier"})

    def test_screened_campaign_is_deterministic(self, screened_plan, screened_campaign):
        again = run_validation(screened_plan)
        assert record_lines(again) == record_lines(screened_campaign)

    def test_screened_checkpoint_round_trips(
        self, tmp_path, screened_plan, screened_campaign
    ):
        store = ValidationStore(tmp_path / "screened.jsonl")
        run_validation(screened_plan, store=store)
        loaded = load_campaign(store.path)
        assert record_lines(loaded) == record_lines(screened_campaign)


# --------------------------------------------------------------------------- #
# one simulation per distinct allocation
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def shared_plan(captured_sweep) -> ValidationPlan:
    """A campaign whose H1 sources carry ILP's allocation at the same point."""
    plan = plan_from_sweep(
        captured_sweep, horizons=(6.0,), rate_multipliers=(0.5, 1.0), scenarios=SCENARIOS
    )
    ilp = {(s.configuration, s.rho): s.payload for s in plan.sources if s.algorithm == "ILP"}
    return replace(
        plan,
        sources=tuple(
            replace(s, payload=ilp[(s.configuration, s.rho)]) for s in plan.sources
        ),
    )


class TestSharedAllocations:
    @pytest.mark.parametrize("screen", ["none", "fluid"])
    def test_each_distinct_allocation_simulated_once(self, monkeypatch, shared_plan, screen):
        plan = replace(shared_plan, screen=screen)
        calls = []
        simulate = StreamSimulator.run

        def counted(self, *args, **kwargs):
            calls.append(1)
            return simulate(self, *args, **kwargs)

        monkeypatch.setattr(StreamSimulator, "run", counted)
        shared = run_validation(plan)
        shared_calls = len(calls)
        # one source per unit: nothing is shared, every source is simulated
        isolated = run_validation(plan, chunk_size=1)
        assert record_lines(shared) == record_lines(isolated)

        pairs: dict = {}
        for record in shared.records:
            pairs.setdefault(_cell(replace(record, algorithm="")), {})[record.algorithm] = record
        assert len(pairs) == len(shared.records) // 2
        for pair in pairs.values():
            assert replace(pair["H1"], algorithm="ILP") == pair["ILP"]

        tiers = {record.tier for record in shared.records}
        assert tiers == ({"des"} if screen == "none" else {"des", "fluid"})
        # per grid point, ILP and H1 hold one allocation: one simulation
        simulated = {
            (r.configuration, r.rho, r.horizon, r.rate_multiplier, r.scenario)
            for r in shared.records
            if r.tier == "des"
        }
        assert shared_calls == len(simulated)
        assert len(calls) - shared_calls == 2 * len(simulated)


# --------------------------------------------------------------------------- #
# one simulation per (allocation, multiplier, scenario), every horizon
# --------------------------------------------------------------------------- #


def prefix_scenarios(sweep: SweepResult) -> tuple:
    """Poisson arrivals, plain and with failures opening between 15 and 30:
    the fluid screen clears the x0.5 cells of the second at 15 but flags them
    at 30, so one cell mixes tiers across horizons."""
    types = sorted({t for r in sweep.records for t in r.allocation.to_allocation().machines})
    return (
        ScenarioSpec(name="poisson", arrival=PoissonArrivals()),
        ScenarioSpec(
            name="late-failures",
            arrival=PoissonArrivals(),
            failures=tuple(FailureWindow(t, 20.0, 4.0, count=9) for t in types),
        ),
    )


@pytest.fixture(scope="module")
def prefix_sweep() -> SweepResult:
    return run_plan(small_plan(num_configurations=1, throughputs=(20, 40)), capture_allocations=True)


def prefix_plan(sweep: SweepResult, horizons, screen: str = "none") -> ValidationPlan:
    return plan_from_sweep(
        sweep, horizons=horizons, rate_multipliers=(0.5, 1.0),
        scenarios=prefix_scenarios(sweep), screen=screen,
    )


@pytest.fixture(scope="module", params=["none", "fluid"])
def single_horizon_lines(request, prefix_sweep):
    """(screen, lines of a (15,) campaign followed by those of a (30,) one)."""
    lines = []
    for horizon in (15.0, 30.0):
        lines += record_lines(run_validation(prefix_plan(prefix_sweep, (horizon,), request.param)))
    return request.param, lines


class TestHorizonPrefixes:
    @pytest.mark.parametrize("how", ["serial", "pool", "resume"])
    def test_two_horizons_equal_two_single_horizon_campaigns(
        self, tmp_path, prefix_sweep, single_horizon_lines, how
    ):
        screen, expected = single_horizon_lines
        plan = prefix_plan(prefix_sweep, (15.0, 30.0), screen)
        if how == "serial":
            campaign = run_validation(plan)
        elif how == "pool":
            campaign = run_validation(plan, backend=ProcessPoolBackend(2))
        elif how == "resume":
            class _Interrupt(Exception):
                pass

            def tripwire(_msg):
                raise _Interrupt

            path = tmp_path / "campaign.jsonl"
            with pytest.raises(_Interrupt):
                run_validation(plan, store=ValidationStore(path), progress=tripwire)
            partial = load_campaign(path, allow_partial=True)
            assert 0 < len(partial.records) < len(expected)
            campaign = run_validation(plan, store=ValidationStore(path), resume=True)
            assert record_lines(load_campaign(path)) == expected
        assert record_lines(campaign) == expected

    def test_fluid_cells_mix_tiers_across_horizons(self, prefix_sweep):
        campaign = run_validation(prefix_plan(prefix_sweep, (15.0, 30.0), "fluid"))
        tiers: dict = {}
        for record in campaign.records:
            tiers.setdefault(_cell(replace(record, horizon=0.0)), {})[record.horizon] = record.tier
        assert {15.0: "fluid", 30.0: "des"} in tiers.values()
        assert {15.0: "des", 30.0: "des"} in tiers.values()

    def test_one_run_per_allocation_to_the_longest_horizon(self, monkeypatch, prefix_sweep):
        plan = prefix_plan(prefix_sweep, (15.0, 30.0))
        horizons = []
        simulate = StreamSimulator.run

        def counted(self, horizon=50.0, **kwargs):
            horizons.append(horizon)
            return simulate(self, horizon, **kwargs)

        monkeypatch.setattr(StreamSimulator, "run", counted)
        run_validation(plan)
        distinct = {
            (
                source.configuration, source.rho,
                json.dumps(source.payload.as_dict(), sort_keys=True),
                multiplier, scenario.name,
            )
            for source in plan.sources
            for multiplier in plan.rate_multipliers
            for scenario in plan.scenarios
        }
        assert horizons == [30.0] * len(distinct)

    def test_memo_of_single_horizon_campaigns_serves_every_cell(
        self, tmp_path, prefix_sweep, single_horizon_lines
    ):
        screen, expected = single_horizon_lines
        memo = tmp_path / "memo.jsonl"
        for horizon in (15.0, 30.0):
            run_validation(prefix_plan(prefix_sweep, (horizon,), screen), memo=memo)
        served = run_validation(prefix_plan(prefix_sweep, (15.0, 30.0), screen), memo=memo)
        assert served.memo_stats.misses == 0
        assert served.memo_stats.hits == len(expected)
        assert record_lines(served) == expected

    def test_units_span_every_horizon(self, prefix_sweep):
        plan = prefix_plan(prefix_sweep, (15.0, 30.0))
        units = plan_validation_units(plan)
        # one unit per (multiplier, scenario, configuration): horizons do not multiply
        assert len(units) == len(plan.rate_multipliers) * len(plan.scenarios)
        assert len(plan_validation_units(plan, chunk_size=1)) == len(units) * len(
            units[0].sources
        )
        messages = []
        run_validation(plan, progress=messages.append)
        assert len(messages) == len(units)
        assert messages[0].endswith(
            f"(horizons 15/30, rate x0.5, scenario poisson, "
            f"{2 * len(units[0].sources)} simulations)"
        )

    def test_listed_order_and_duplicates_kept(self, captured_sweep):
        plan = plan_from_sweep(captured_sweep, horizons=(6.0, 3.0, 6.0), scenarios=SCENARIOS)
        expected = []
        for horizon in (6.0, 3.0, 6.0):
            expected += record_lines(
                run_validation(plan_from_sweep(captured_sweep, horizons=(horizon,), scenarios=SCENARIOS))
            )
        campaign = run_validation(plan)
        assert record_lines(campaign) == expected
        per_horizon = len(plan.sources) * len(SCENARIOS)
        assert [r.horizon for r in campaign.records] == (
            [6.0] * per_horizon + [3.0] * per_horizon + [6.0] * per_horizon
        )
        assert record_lines(run_validation(plan, chunk_size=1)) == expected
