"""Tests for the declarative study layer (spec round-trips + the Study facade)."""

import json
import math
import re
from dataclasses import replace

import pytest

from repro.api import Study
from repro.core import ConfigurationError
from repro.experiments.spec import (
    ExecutionSpec,
    StudySpec,
    ValidationSpec,
    WorkloadSpec,
    algorithm_spec_from_dict,
    study_fingerprint,
)
from repro.experiments.config import AlgorithmSpec
from repro.generators.workload import get_setting
from repro.simulation.scenarios import FailureWindow, PoissonArrivals, ScenarioSpec


def tiny_spec(**overrides) -> StudySpec:
    """A fast end-to-end study: 1 configuration, 1 throughput, 3 algorithms."""
    base = dict(
        name="tiny",
        workload=WorkloadSpec(setting="small", num_configurations=1,
                              target_throughputs=(60,)),
        algorithms=(
            AlgorithmSpec("ILP"),
            AlgorithmSpec("H1"),
            AlgorithmSpec("H2", {"iterations": 40}, seed_sensitive=True),
        ),
        validation=ValidationSpec(horizons=(6.0,), rate_multipliers=(1.0,)),
    )
    base.update(overrides)
    return StudySpec(**base)


class TestRoundTrip:
    def test_identity(self):
        spec = tiny_spec()
        assert StudySpec.from_dict(spec.as_dict()) == spec

    def test_identity_with_every_axis_populated(self):
        spec = tiny_spec(
            execution=ExecutionSpec(workers=2, chunk_size=1, store_dir="runs",
                                    capture_allocations=True),
            validation=ValidationSpec(
                horizons=(6.0, 12.0),
                rate_multipliers=(1.0, 1.05),
                warmup_fraction=0.2,
                max_datasets=50,
                algorithms=("ILP", "H1"),
                scenarios=(ScenarioSpec(name="poisson", arrival=PoissonArrivals()),),
            ),
            series="mean_time",
            description="fully populated",
        )
        assert StudySpec.from_dict(spec.as_dict()) == spec

    def test_identity_with_inline_custom_setting(self):
        setting = replace(get_setting("small"), name="small-mut1", mutation_fraction=1.0)
        spec = tiny_spec(workload=WorkloadSpec(setting=setting, num_configurations=1,
                                               target_throughputs=(60,)))
        data = spec.as_dict()
        assert isinstance(data["workload"]["setting"], dict)  # not a paper preset
        assert StudySpec.from_dict(data) == spec

    def test_paper_setting_serialises_as_its_name(self):
        assert tiny_spec().as_dict()["workload"]["setting"] == "small"

    def test_json_file_round_trip(self, tmp_path):
        spec = tiny_spec()
        path = spec.to_json(tmp_path / "study.json")
        assert StudySpec.from_json(path) == spec

    def test_throughputs_normalise_to_float(self):
        spec = tiny_spec()
        assert spec.workload.target_throughputs == (60.0,)
        assert spec.experiment_plan().target_throughputs == (60.0,)


class TestStrictness:
    def test_unknown_study_field_rejected(self):
        data = tiny_spec().as_dict()
        data["workers"] = 4  # belongs under "execution"
        with pytest.raises(ConfigurationError, match="unknown field.*workers"):
            StudySpec.from_dict(data)

    @pytest.mark.parametrize(
        "section, field, value",
        [
            pytest.param("workload", "typo_field", 1, id="workload"),
            pytest.param("execution", "typo_field", 1, id="execution"),
            pytest.param("validation", "typo_field", 1, id="validation"),
            # the retired sharding knobs: only a null value still loads
            pytest.param("execution", "chunk_policy", "adaptive", id="chunk_policy"),
            pytest.param("execution", "validation_shards", 2, id="validation_shards"),
        ],
    )
    def test_unknown_nested_field_rejected(self, section, field, value):
        data = tiny_spec(execution=ExecutionSpec(workers=2)).as_dict()
        data[section][field] = value
        with pytest.raises(ConfigurationError, match=field):
            StudySpec.from_dict(data)

    def test_unknown_algorithm_field_rejected(self):
        data = tiny_spec().as_dict()
        data["algorithms"][0]["iterations"] = 10  # belongs under "params"
        with pytest.raises(ConfigurationError, match="iterations"):
            StudySpec.from_dict(data)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown solver"):
            tiny_spec(algorithms=(AlgorithmSpec("H99"),))

    def test_misspelled_algorithm_param_rejected(self):
        with pytest.raises(ConfigurationError, match="iteration"):
            tiny_spec(algorithms=(AlgorithmSpec("H2", {"iteration": 40}),))

    def test_validation_filter_must_name_swept_algorithms(self):
        with pytest.raises(ConfigurationError, match="H32Jump"):
            tiny_spec(validation=ValidationSpec(algorithms=("H32Jump",)))

    def test_unknown_series_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown series"):
            tiny_spec(series="percentile99")

    def test_resume_requires_a_store(self):
        with pytest.raises(ConfigurationError, match="resume"):
            ExecutionSpec(resume=True)

    def test_round_trip_and_older_dicts_load(self):
        spec = ExecutionSpec(memo=True, memo_path="cache/memo.jsonl")
        assert ExecutionSpec.from_dict(spec.as_dict()) == spec
        # a pre-memo spec dict (missing the new fields) still loads
        legacy = {"workers": 2, "chunk_size": 1}
        assert ExecutionSpec.from_dict(legacy).memo is False
        # older versions wrote "chunk_policy" and "validation_shards" as null
        # into every execution dict
        older = ExecutionSpec.from_dict(
            {**legacy, "chunk_policy": None, "validation_shards": None}
        )
        assert older == ExecutionSpec.from_dict(legacy)
        assert "chunk_policy" not in older.as_dict()
        assert "validation_shards" not in older.as_dict()

    def test_memo_path_requires_memo(self):
        with pytest.raises(ConfigurationError, match="memo_path requires"):
            ExecutionSpec(memo_path="cache/memo.jsonl")

    def test_build_memo(self, tmp_path):
        assert ExecutionSpec().build_memo() is None
        store = ExecutionSpec(memo=True, memo_path=str(tmp_path / "m.jsonl")).build_memo()
        assert store is not None
        assert store.path == tmp_path / "m.jsonl"

    def test_execution_tuning_does_not_change_fingerprint(self):
        spec = tiny_spec()
        tuned = spec.with_execution(chunk_size=2, memo=True)
        assert tuned.fingerprint() == spec.fingerprint()

    def test_seed_sensitive_defaults_from_registry(self):
        assert algorithm_spec_from_dict({"name": "H2"}).seed_sensitive is True
        assert algorithm_spec_from_dict({"name": "ILP"}).seed_sensitive is False
        # an explicit flag always wins
        assert algorithm_spec_from_dict(
            {"name": "H2", "seed_sensitive": False}
        ).seed_sensitive is False

    def test_missing_study_json_is_clean_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            StudySpec.from_json(tmp_path / "nope.json")

    def test_invalid_study_json_is_clean_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            StudySpec.from_json(path)

    @pytest.mark.parametrize(
        "section, field, value, where",
        [
            pytest.param("validation", "horizons", [math.inf], "validation.horizons[0]",
                         id="horizon-inf"),
            pytest.param("validation", "rate_multipliers", [1.0, math.nan],
                         "validation.rate_multipliers[1]", id="multiplier-nan"),
            pytest.param("workload", "target_throughputs", [math.nan],
                         "workload.target_throughputs[0]", id="throughput-nan"),
            pytest.param("workload", "target_throughputs", [math.inf],
                         "workload.target_throughputs[0]", id="throughput-inf"),
            pytest.param("validation", "scenarios",
                         [{"name": "b", "arrival": {"kind": "bursty", "on": math.inf}}],
                         "validation.scenarios[0].arrival.on", id="bursty-on-inf"),
            pytest.param("validation", "scenarios", [{"name": "s", "slowdowns": [[1, math.nan]]}],
                         "validation.scenarios[0].slowdowns[0][1]", id="slowdown-nan"),
            pytest.param("validation", "scenarios",
                         [{"name": "f", "failures": [{"type": 1, "start": math.nan,
                                                      "duration": 2}]}],
                         "validation.scenarios[0].failures[0].start", id="failure-start-nan"),
        ],
    )
    def test_non_finite_numbers_rejected_naming_their_path(self, section, field, value, where):
        data = tiny_spec().as_dict()
        data[section][field] = value
        with pytest.raises(ConfigurationError, match=re.escape(where) + " must be a finite"):
            StudySpec.from_dict(data)

    def test_non_finite_algorithm_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match=r"algorithms\[2\]\.params\.delta"):
            tiny_spec(algorithms=(
                AlgorithmSpec("ILP"), AlgorithmSpec("H1"),
                AlgorithmSpec("H2", {"iterations": 40, "delta": math.inf}, seed_sensitive=True),
            ))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("target_throughputs", (-5,), "target_throughputs must be positive"),
            ("target_throughputs", (60, 0), "target_throughputs must be positive"),
            ("base_seed", -1, "base_seed must be >= 0"),
        ],
    )
    def test_workload_refuses_values_a_run_would_fail_on(self, field, value, message):
        with pytest.raises(ConfigurationError, match=message):
            WorkloadSpec(setting="small", **{field: value})

    @pytest.mark.parametrize(
        "scenario, message",
        [
            pytest.param({"name": "s", "arrival": 5}, "has no attribute", id="arrival-not-a-dict"),
            pytest.param({"name": "s", "failures": [{"start": 0, "duration": 1}]},
                         "missing field 'type'", id="failure-without-type"),
            pytest.param({"name": "s", "arrival": {"kind": "nope"}},
                         "unknown arrival process kind", id="unknown-arrival-kind"),
        ],
    )
    def test_malformed_nested_data_is_one_configuration_error(self, scenario, message):
        data = tiny_spec().as_dict()
        data["validation"]["scenarios"] = [scenario]
        with pytest.raises(ConfigurationError, match=message) as info:
            StudySpec.from_dict(data)
        assert "\n" not in str(info.value)

    def test_wrong_typed_study_json_values_are_clean_errors(self, tmp_path):
        # bare int()/float() coercions on junk must not escape as tracebacks
        for patch in ({"execution": {"workers": "four"}},
                      {"workload": {"setting": "small", "base_seed": None}}):
            data = tiny_spec().as_dict()
            data.update(patch)
            path = tmp_path / "study.json"
            path.write_text(json.dumps(data))
            with pytest.raises(ConfigurationError, match="invalid study spec"):
                StudySpec.from_json(path)


class TestFingerprint:
    def test_stable_across_round_trip(self):
        spec = tiny_spec()
        assert study_fingerprint(StudySpec.from_dict(spec.as_dict())) == spec.fingerprint()

    def test_execution_details_do_not_change_it(self):
        spec = tiny_spec()
        rescheduled = spec.with_execution(workers=8, store_dir="elsewhere")
        assert rescheduled.fingerprint() == spec.fingerprint()

    def test_labels_do_not_change_it(self):
        # renaming a study or fixing its prose must not strand checkpoints
        spec = tiny_spec()
        relabelled = replace(spec, name="renamed", description="typo fixed")
        assert relabelled.fingerprint() == spec.fingerprint()

    def test_scientific_content_changes_it(self):
        spec = tiny_spec()
        other = tiny_spec(algorithms=(AlgorithmSpec("ILP"), AlgorithmSpec("H1"),
                                      AlgorithmSpec("H2", {"iterations": 41},
                                                    seed_sensitive=True)))
        assert other.fingerprint() != spec.fingerprint()


#: the partition study_fingerprint draws, one non-default value per field:
#: (section, field) -> the changes that set it.  Execution fields change how a
#: study runs and must leave the fingerprint alone; every other field changes
#: what it computes and must move it.
EXECUTION_ONLY_CHANGES = {
    ("execution", "workers"): {"workers": 8},
    ("execution", "chunk_size"): {"chunk_size": 3},
    ("execution", "store_dir"): {"store_dir": "elsewhere"},
    ("execution", "sweep_store"): {"sweep_store": "sweep.jsonl"},
    ("execution", "validation_store"): {"validation_store": "validation.jsonl"},
    ("execution", "resume"): {"resume": True, "store_dir": "runs"},
    ("execution", "capture_allocations"): {"capture_allocations": True},
    ("execution", "memo"): {"memo": True},
    ("execution", "memo_path"): {"memo": True, "memo_path": "memo.sqlite"},
}
SCIENTIFIC_CHANGES = {
    ("workload", "setting"): {"setting": "medium"},
    ("workload", "num_configurations"): {"num_configurations": 2},
    ("workload", "target_throughputs"): {"target_throughputs": (70,)},
    ("workload", "base_seed"): {"base_seed": 7},
    ("validation", "horizons"): {"horizons": (12.0,)},
    ("validation", "rate_multipliers"): {"rate_multipliers": (1.05,)},
    ("validation", "warmup_fraction"): {"warmup_fraction": 0.2},
    ("validation", "max_datasets"): {"max_datasets": 50},
    ("validation", "algorithms"): {"algorithms": ("ILP",)},
    ("validation", "scenarios"): {
        "scenarios": (ScenarioSpec(), ScenarioSpec(name="poisson", arrival=PoissonArrivals()))
    },
    ("validation", "screen"): {"screen": "fluid"},
    ("validation", "screen_threshold"): {"screen_threshold": 0.9},
    # a scenario's name seeds its simulation stream, so it is content too
    ("scenario", "name"): {"name": "renamed"},
    ("scenario", "arrival"): {"arrival": PoissonArrivals()},
    ("scenario", "slowdowns"): {"slowdowns": ((1, 0.5),)},
    ("scenario", "failures"): {"failures": (FailureWindow(1, start=1.0, duration=2.0),)},
    ("study", "algorithms"): {"algorithms": (AlgorithmSpec("ILP"), AlgorithmSpec("H1"))},
    ("study", "series"): {"series": "mean_time"},
}


def _partition_base() -> StudySpec:
    """A study with every section present, so each field has a place to change."""
    return tiny_spec(validation=ValidationSpec(horizons=(6.0,), rate_multipliers=(1.0,),
                                               scenarios=(ScenarioSpec(),)))


def _changed(spec: StudySpec, section: str, changes) -> StudySpec:
    if section == "study":
        return replace(spec, **changes)
    if section == "scenario":
        scenario = replace(spec.validation.scenarios[0], **changes)
        return replace(spec, validation=replace(spec.validation, scenarios=(scenario,)))
    return replace(spec, **{section: replace(getattr(spec, section), **changes)})


class TestFingerprintPartition:
    def test_every_field_is_on_one_side(self):
        sides = {**EXECUTION_ONLY_CHANGES, **SCIENTIFIC_CHANGES}
        for section, cls in (("execution", ExecutionSpec), ("workload", WorkloadSpec),
                             ("validation", ValidationSpec), ("scenario", ScenarioSpec)):
            assert sorted(name for sec, name in sides if sec == section) == sorted(cls._FIELDS)
        # a study's own fields: its sections, plus the labels that
        # TestFingerprint.test_labels_do_not_change_it holds
        study = {name for sec, name in sides if sec == "study"}
        assert study | {"workload", "execution", "validation", "name", "description"} == set(
            StudySpec._FIELDS
        )

    @pytest.mark.parametrize("section, field", sorted(EXECUTION_ONLY_CHANGES))
    def test_execution_field_leaves_it_alone(self, section, field):
        spec = _partition_base()
        changed = _changed(spec, section, EXECUTION_ONLY_CHANGES[section, field])
        assert changed != spec
        assert changed.fingerprint() == spec.fingerprint()

    @pytest.mark.parametrize("section, field", sorted(SCIENTIFIC_CHANGES))
    def test_scientific_field_moves_it(self, section, field):
        spec = _partition_base()
        changed = _changed(spec, section, SCIENTIFIC_CHANGES[section, field])
        assert changed != spec
        assert changed.fingerprint() != spec.fingerprint()


class TestStudyPipeline:
    def test_end_to_end(self):
        result = Study.from_spec(tiny_spec()).run()
        plan = result.spec.experiment_plan()
        assert len(result.sweep.records) == plan.num_records == 3
        assert result.campaign is not None
        assert len(result.campaign.records) == result.campaign.plan.num_simulations
        # validation implies allocation capture: nothing is re-solved
        assert all(s.payload is not None for s in result.campaign.plan.sources)
        assert result.series.throughputs == [60.0]
        assert 0.0 < result.worst_ratio() <= 1.5

    def test_no_validation_studies_skip_the_campaign(self):
        result = Study.from_spec(tiny_spec(validation=None)).run()
        assert result.campaign is None
        assert all(record.allocation is None for record in result.sweep.records)

    def test_manifest_ties_checkpoints_to_the_study(self, tmp_path):
        spec = tiny_spec(execution=ExecutionSpec(store_dir=str(tmp_path / "runs")))
        study = Study.from_spec(spec)
        study.run()
        manifest = study.manifest_path
        assert manifest.exists()
        stored = json.loads(manifest.read_text())
        assert stored["fingerprint"] == spec.fingerprint()
        # a different study refuses to reuse the directory
        other = tiny_spec(
            name="tiny",  # same name, different content -> same paths, new fingerprint
            algorithms=(AlgorithmSpec("ILP"), AlgorithmSpec("H1")),
            execution=ExecutionSpec(store_dir=str(tmp_path / "runs")),
        )
        with pytest.raises(ConfigurationError, match="different study"):
            Study.from_spec(other).run()


class _Interrupt(Exception):
    pass


class TestResumeIdentity:
    def test_resumed_study_identical_to_uninterrupted(self, tmp_path):
        """A study interrupted mid-pipeline and resumed from its JSON file
        reproduces the uninterrupted run exactly (record identities for the
        sweep, bytes for the campaign)."""
        spec = tiny_spec(
            workload=WorkloadSpec(setting="small", num_configurations=2,
                                  target_throughputs=(60, 90)),
            execution=ExecutionSpec(store_dir=str(tmp_path / "full")),
        )
        baseline = Study.from_spec(spec).run()

        interrupted = spec.with_execution(store_dir=str(tmp_path / "resumed"))
        path = interrupted.to_json(tmp_path / "study.json")
        ticks = 0

        def tripwire(_msg: str) -> None:
            nonlocal ticks
            ticks += 1
            if ticks >= 3:  # past the sweep stage, inside the campaign
                raise _Interrupt

        with pytest.raises(_Interrupt):
            Study.from_spec(interrupted).run(progress=tripwire)
        resumed = Study.from_file(path).run(resume=True)

        assert [r.identity() for r in resumed.sweep.records] == [
            r.identity() for r in baseline.sweep.records
        ]
        assert [r.as_dict() for r in resumed.campaign.records] == [
            r.as_dict() for r in baseline.campaign.records
        ]
        # the checkpoint *files* agree line for line apart from wall-clock
        full = (tmp_path / "full" / "tiny-validation.jsonl").read_bytes()
        partial = (tmp_path / "resumed" / "tiny-validation.jsonl").read_bytes()
        assert full == partial


def _campaign_lines(result) -> list[str]:
    return [
        json.dumps(record.as_dict(), sort_keys=True, separators=(",", ":"))
        for record in result.campaign.records
    ]


class TestPoolIdentity:
    def test_pool_study_identical_to_serial(self):
        """Both stages on the backend ``ExecutionSpec.build_backend()`` returns
        for 2 workers give the serial run's sweep identities and campaign bytes."""
        spec = tiny_spec(
            workload=WorkloadSpec(setting="small", num_configurations=2,
                                  target_throughputs=(60, 90)),
            validation=ValidationSpec(
                horizons=(4.0, 6.0),
                rate_multipliers=(1.0, 1.05),
                scenarios=(ScenarioSpec(),
                           ScenarioSpec(name="poisson", arrival=PoissonArrivals())),
            ),
        )
        serial = Study.from_spec(spec).run()
        pooled = Study.from_spec(spec.with_execution(workers=2)).run()

        assert len(serial.campaign.records) == 96
        assert [r.identity() for r in pooled.sweep.records] == [
            r.identity() for r in serial.sweep.records
        ]
        assert _campaign_lines(pooled) == _campaign_lines(serial)


class TestScreenSpec:
    def test_screened_validation_round_trips(self):
        spec = tiny_spec(
            validation=ValidationSpec(screen="fluid", screen_threshold=0.75)
        )
        assert StudySpec.from_dict(spec.as_dict()) == spec
        data = spec.validation.as_dict()
        assert data["screen"] == "fluid"
        assert data["screen_threshold"] == 0.75
        # a threshold set without a screen is serialised too, not dropped
        unscreened = tiny_spec(validation=ValidationSpec(screen_threshold=0.75))
        assert StudySpec.from_dict(unscreened.as_dict()) == unscreened

    def test_default_screen_serialises_without_fields(self):
        data = ValidationSpec().as_dict()
        assert "screen" not in data
        assert "screen_threshold" not in data

    def test_screen_does_not_move_unscreened_fingerprints(self):
        plain = tiny_spec(validation=ValidationSpec())
        assert plain.fingerprint() == StudySpec.from_dict(plain.as_dict()).fingerprint()

    def test_screen_changes_the_fingerprint(self):
        plain = tiny_spec(validation=ValidationSpec())
        screened = tiny_spec(validation=ValidationSpec(screen="fluid"))
        assert plain.fingerprint() != screened.fingerprint()

    def test_invalid_screen_rejected(self):
        with pytest.raises(ConfigurationError):
            ValidationSpec(screen="magic")
        with pytest.raises(ConfigurationError):
            ValidationSpec(screen="fluid", screen_threshold=-1.0)

    def test_screened_plan_carries_screen(self):
        spec = tiny_spec(validation=ValidationSpec(screen="fluid"))
        from repro.experiments.runner import run_plan

        sweep = run_plan(spec.experiment_plan(), capture_allocations=True)
        plan = spec.validation.plan(sweep)
        assert plan.screen == "fluid"
        assert plan.screen_threshold == 0.85
