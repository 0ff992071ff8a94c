"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for args in (
            ["settings"],
            ["table3"],
            ["figure", "figure3"],
            ["solve"],
            ["serve", "--store-root", "state"],
        ):
            parser.parse_args(args)

    def test_serve_parser_defaults_and_flags(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--store-root", "state"])
        assert (args.host, args.port, args.jobs) == ("127.0.0.1", 8080, 2)
        assert args.workers is None and args.memo_path is None
        assert args.request_timeout == 30.0
        args = parser.parse_args(
            ["serve", "--store-root", "state", "--port", "0", "--jobs", "4",
             "--workers", "2", "--memo-path", "memo.jsonl",
             "--request-timeout", "5"]
        )
        assert (args.port, args.jobs, args.workers) == (0, 4, 2)
        assert str(args.memo_path) == "memo.jsonl" and args.request_timeout == 5.0

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "study.json"],
            ["validate", "sweep.jsonl"],
            ["serve", "--store-root", "state"],
        ],
        ids=["run", "validate", "serve"],
    )
    def test_retired_chunk_policy_flag_rejected(self, capsys, args):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(args + ["--chunk-policy", "adaptive"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --chunk-policy adaptive" in capsys.readouterr().err

    def test_retired_validation_shards_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["serve", "--store-root", "state", "--validation-shards", "2"]
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --validation-shards 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--workers"])
    def test_serve_refuses_bad_execution_settings_before_binding(
        self, capsys, tmp_path, monkeypatch, flag
    ):
        import repro.service.server as server

        def bind(*_args, **_kwargs):
            raise AssertionError("serve bound a port despite a setting every job fails on")

        monkeypatch.setattr(server, "StudyService", bind)
        argv = ["serve", "--store-root", str(tmp_path / "state"), "--port", "0", flag, "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "must be >= 1" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--port", "-1"), ("--port", "65536"), ("--request-timeout", "0"),
         ("--request-timeout", "-1"), ("--request-timeout", "nan"),
         ("--request-timeout", "inf")],
    )
    def test_serve_refuses_unusable_port_or_timeout_before_binding(
        self, capsys, tmp_path, monkeypatch, flag, value
    ):
        import repro.service.server as server

        def bind(*_args, **_kwargs):
            raise AssertionError("serve bound a port despite a value it cannot use")

        monkeypatch.setattr(server, "StudyService", bind)
        root = tmp_path / "state"
        argv = ["serve", "--store-root", str(root), "--port", "0", flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # refused before the job manager could create the root or recover jobs
        assert not root.exists()

    def test_serve_requires_store_root(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "figure99"])


class TestCommands:
    def test_settings_lists_algorithms(self, capsys):
        assert main(["settings"]) == 0
        out = capsys.readouterr().out
        assert "small" in out and "xlarge" in out
        assert "H32Jump" in out and "ILP" in out

    def test_solve_illustrating_example(self, capsys):
        assert main(["solve", "--algorithm", "ILP", "--rho", "70"]) == 0
        out = capsys.readouterr().out
        assert "cost=124" in out

    def test_solve_with_heuristic_and_simulation(self, capsys):
        assert main(["solve", "--algorithm", "H1", "--rho", "30", "--simulate"]) == 0
        out = capsys.readouterr().out
        assert "sustains the target throughput: True" in out

    def test_solve_generated_instance(self, capsys):
        assert main(["solve", "--setting", "small", "--seed", "3", "--rho", "50", "--algorithm", "H1"]) == 0
        out = capsys.readouterr().out
        assert "20 recipes" in out

    def test_figure_command_scaled_down(self, capsys):
        code = main(
            ["figure", "figure3", "--configurations", "1", "--throughputs", "60", "--iterations", "60", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "normalised cost" in out and "H32Jump" in out

    def test_figure_rejects_empty_throughputs(self, capsys):
        code = main(["figure", "figure3", "--configurations", "1", "--throughputs", "--quiet"])
        assert code == 2
        assert "--throughputs requires at least one value" in capsys.readouterr().err

    def test_figure_rejects_resume_without_out(self, capsys):
        code = main(["figure", "figure3", "--configurations", "1", "--resume", "--quiet"])
        assert code == 2
        assert "--resume requires --out" in capsys.readouterr().err

    def test_figure_rejects_bad_worker_count(self, capsys):
        code = main(["figure", "figure3", "--configurations", "1", "--workers", "0", "--quiet"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_figure_with_workers_and_checkpoint(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.jsonl"
        args = ["figure", "figure3", "--configurations", "2", "--throughputs", "60",
                "--iterations", "60", "--workers", "2", "--out", str(out_file), "--quiet"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "normalised cost" in first
        assert out_file.exists()

        from repro.experiments import SweepResult

        checkpoint = SweepResult.load(out_file)
        assert len(checkpoint.records) > 0

        # resuming a finished sweep re-reads the checkpoint instead of re-running
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first

        # re-running without --resume must not wipe the checkpoint
        assert main(args) == 2
        assert "resume=True" in capsys.readouterr().err
        assert len(SweepResult.load(out_file).records) == len(checkpoint.records)

    def test_table3_command(self, capsys):
        assert main(["table3", "--iterations", "200"]) == 0
        out = capsys.readouterr().out
        assert "20 matches" in out

    def test_validate_command_end_to_end(self, capsys, tmp_path):
        sweep_file = tmp_path / "sweep.jsonl"
        assert main(
            ["figure", "figure3", "--configurations", "1", "--throughputs", "60",
             "--iterations", "60", "--out", str(sweep_file), "--capture-allocations",
             "--quiet"]
        ) == 0
        capsys.readouterr()

        campaign_file = tmp_path / "campaign.jsonl"
        args = ["validate", str(sweep_file), "--horizons", "8", "--multipliers",
                "1.0", "1.05", "--algorithms", "ILP", "H1",
                "--out", str(campaign_file), "--quiet"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "achieved / target throughput" in out
        assert "x1.05" in out
        assert "captured" in out
        assert campaign_file.exists()

        # resuming the finished campaign re-reads the checkpoint, same output
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == out

        # and a re-run without --resume must not wipe the checkpoint
        assert main(args) == 2
        assert "resume=True" in capsys.readouterr().err

    def test_validate_scenario_flags(self, capsys, tmp_path):
        sweep_file = tmp_path / "sweep.jsonl"
        assert main(
            ["figure", "figure3", "--configurations", "1", "--throughputs", "60",
             "--iterations", "60", "--out", str(sweep_file), "--capture-allocations",
             "--quiet"]
        ) == 0
        capsys.readouterr()

        campaign_file = tmp_path / "campaign.jsonl"
        args = ["validate", str(sweep_file), "--horizons", "6", "--algorithms",
                "ILP", "--arrival", "deterministic", "poisson", "--slowdown",
                "1=0.8", "--fail", "2:1:2", "--out", str(campaign_file), "--quiet"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "scenario deterministic+slow+fail" in out
        assert "scenario poisson+slow+fail" in out

        # the checkpoint round-trips with the scenario axis intact, and the
        # finished campaign resumes to byte-identical output
        from repro.experiments.validation import load_campaign

        campaign = load_campaign(campaign_file)
        assert campaign.scenarios() == ["deterministic+slow+fail", "poisson+slow+fail"]
        assert {r.scenario for r in campaign.records} == set(campaign.scenarios())
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == out

    def test_validate_screen_flags(self, capsys, tmp_path):
        """--screen fluid screens quiet cells into tier='fluid' records while
        keeping full grid coverage, and resumes byte-identically."""
        sweep_file = tmp_path / "sweep.jsonl"
        assert main(
            ["figure", "figure3", "--configurations", "1", "--throughputs", "60",
             "--iterations", "60", "--out", str(sweep_file), "--capture-allocations",
             "--quiet"]
        ) == 0
        capsys.readouterr()

        campaign_file = tmp_path / "campaign.jsonl"
        args = ["validate", str(sweep_file), "--horizons", "8", "--multipliers",
                "0.5", "1.0", "--algorithms", "ILP", "--screen", "fluid",
                "--out", str(campaign_file), "--quiet"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "achieved / target throughput" in out

        from repro.experiments.validation import load_campaign

        campaign = load_campaign(campaign_file)
        tiers = {r.tier for r in campaign.records}
        # design-point allocations run at full utilisation, so x1.0 escalates
        # to the exact DES while x0.5 clears the fluid screen
        assert tiers == {"des", "fluid"}
        assert all(
            r.tier == "fluid" for r in campaign.records if r.rate_multiplier == 0.5
        )
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == out

    def test_validate_rejects_bad_screen_threshold(self, capsys, tmp_path):
        sweep_file = tmp_path / "sweep.jsonl"
        assert main(
            ["figure", "figure3", "--configurations", "1", "--throughputs", "60",
             "--iterations", "60", "--out", str(sweep_file), "--capture-allocations",
             "--quiet"]
        ) == 0
        capsys.readouterr()
        code = main(["validate", str(sweep_file), "--screen", "fluid",
                     "--screen-threshold", "0", "--quiet"])
        assert code == 2
        assert "screen_threshold" in capsys.readouterr().err

    def test_validate_profile_dumps_stats(self, capsys, tmp_path):
        sweep_file = tmp_path / "sweep.jsonl"
        assert main(
            ["figure", "figure3", "--configurations", "1", "--throughputs", "60",
             "--iterations", "60", "--out", str(sweep_file), "--capture-allocations",
             "--quiet"]
        ) == 0
        capsys.readouterr()

        stats_file = tmp_path / "validate.pstats"
        assert main(["validate", str(sweep_file), "--horizons", "6",
                     "--algorithms", "ILP", "--profile", str(stats_file),
                     "--quiet"]) == 0
        err = capsys.readouterr().err
        assert stats_file.exists()
        assert f"profile stats -> {stats_file}" in err

        import pstats

        assert pstats.Stats(str(stats_file)).total_calls > 0

    def test_validate_rejects_malformed_scenario_flags(self, capsys, tmp_path):
        sweep_file = tmp_path / "sweep.jsonl"
        assert main(
            ["figure", "figure3", "--configurations", "1", "--throughputs", "60",
             "--iterations", "60", "--out", str(sweep_file), "--capture-allocations",
             "--quiet"]
        ) == 0
        capsys.readouterr()
        cases = [
            (["--arrival", "fractal"], "unknown arrival process"),
            (["--arrival", "batch:size=five"], "not a number"),
            (["--slowdown", "1:0.5"], "TYPE=FACTOR"),
            (["--slowdown", "1=fast"], "not a number"),
            (["--fail", "2:1"], "TYPE:START:DURATION"),
            (["--fail", "2:1:zero"], "non-numeric"),
        ]
        for extra, message in cases:
            code = main(["validate", str(sweep_file), "--quiet"] + extra)
            assert code == 2, extra
            assert message in capsys.readouterr().err, extra

    def test_validate_rejects_non_finite_values(self, capsys, tmp_path):
        sweep_file = tmp_path / "sweep.jsonl"
        assert main(_tiny_figure_args(sweep_file)) == 0
        capsys.readouterr()
        cases = [
            # --max-datasets bounds the run, should an infinite horizon slip through
            (["--horizons", "inf", "--max-datasets", "5"], "validation.horizons[0]", "inf"),
            (["--multipliers", "nan"], "validation.rate_multipliers[0]", "nan"),
            (["--arrival", "bursty:on=inf"], "validation.scenarios[0].arrival.on", "inf"),
            (["--arrival", "bursty:off=nan"], "validation.scenarios[0].arrival.off", "nan"),
            (["--slowdown", "1=nan"], "validation.scenarios[0].slowdowns[0][1]", "nan"),
            (["--fail", "1:nan:2"], "validation.scenarios[0].failures[0].start", "nan"),
        ]
        for extra, where, value in cases:
            code = main(["validate", str(sweep_file), "--horizons", "6", "--quiet"] + extra)
            err = capsys.readouterr().err
            assert code == 2, extra
            assert err == f"error: {where} must be a finite number, got {value}\n"

    def test_validate_rejects_empty_algorithms(self, capsys, tmp_path):
        sweep_file = tmp_path / "sweep.jsonl"
        sweep_file.write_text("{}\n")
        code = main(["validate", str(sweep_file), "--algorithms", "--quiet"])
        assert code == 2
        assert "--algorithms requires at least one name" in capsys.readouterr().err

    def test_validate_rejects_resume_without_out(self, capsys, tmp_path):
        sweep_file = tmp_path / "sweep.jsonl"
        sweep_file.write_text("{}\n")
        code = main(["validate", str(sweep_file), "--resume", "--quiet"])
        assert code == 2
        assert "--resume requires --out" in capsys.readouterr().err

    def test_validate_rejects_missing_sweep(self, capsys, tmp_path):
        code = main(["validate", str(tmp_path / "typo.jsonl"), "--quiet"])
        assert code == 2

    def test_validate_rejects_malformed_sweep_header(self, capsys, tmp_path):
        import json

        sweep_file = tmp_path / "sweep.jsonl"
        assert main(_tiny_figure_args(sweep_file)) == 0
        capsys.readouterr()
        lines = sweep_file.read_text().splitlines()
        header = json.loads(lines[0])
        del header["plan"]["algorithms"][0]["name"]
        lines[0] = json.dumps(header)
        sweep_file.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(sweep_file), "--horizons", "6", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "line 1 " in err and "'name'" in err

    def test_directory_checkpoint_is_one_error_line(self, capsys, tmp_path):
        # a checkpoint is one file per stage: a directory is refused in one
        # line naming it, whatever it holds, and before any stage runs
        import json

        sweep_file = tmp_path / "sweep.jsonl"
        assert main(_tiny_figure_args(sweep_file)) == 0
        capsys.readouterr()
        directory = tmp_path / "sharded"
        directory.mkdir()
        (directory / "shard-0000.jsonl").write_text(sweep_file.read_text())
        study = tmp_path / "study.json"
        study.write_text(json.dumps(_tiny_study_dict(tmp_path / "s.jsonl", directory)))
        for argv in (
            ["validate", str(directory), "--horizons", "6", "--quiet"],
            ["validate", str(sweep_file), "--horizons", "6", "--out", str(directory),
             "--quiet"],
            ["run", str(study), "--quiet"],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"{directory} is a directory" in err
        assert not (tmp_path / "s.jsonl").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["solve", "--rho", "0"], id="solve-rho-0"),
            pytest.param(["solve", "--algorithm", "NOPE"], id="solve-unknown-algorithm"),
            pytest.param(["solve", "--setting", "huge"], id="solve-unknown-setting"),
            pytest.param(["table3", "--iterations", "0"], id="table3-iterations-0"),
            pytest.param(
                ["figure", "figure3", "--configurations", "1", "--iterations", "0"],
                id="figure-iterations-0",
            ),
            pytest.param(
                ["figure", "figure3", "--configurations", "1", "--throughputs", "0"],
                id="figure-throughput-0",
            ),
            pytest.param(["solve", "--setting", "small", "--seed", "-1"],
                         id="solve-negative-seed"),
            pytest.param(["table3", "--seed", "-1"], id="table3-negative-seed"),
        ],
    )
    def test_bad_input_is_one_error_line(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.endswith("\n") and err.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "case", ["validate", "run", "figure-out", "serve-journal", "run-memo"]
    )
    def test_file_that_is_not_utf8_is_one_error_line(self, capsys, tmp_path, monkeypatch, case):
        import json

        import repro.service.server as server

        binary = tmp_path / "bin.jsonl"
        if case == "validate":
            argv = ["validate", str(binary), "--quiet"]
        elif case == "run":
            argv = ["run", str(binary), "--quiet"]
        elif case == "figure-out":
            argv = ["figure", "figure3", "--configurations", "1", "--throughputs", "60",
                    "--iterations", "10", "--out", str(binary), "--quiet"]
        elif case == "serve-journal":
            binary = tmp_path / "state" / "jobs.jsonl"
            binary.parent.mkdir()

            def bind(*_args, **_kwargs):
                raise AssertionError("serve bound a port despite an unreadable journal")

            monkeypatch.setattr(server, "StudyService", bind)
            argv = ["serve", "--store-root", str(binary.parent), "--port", "0"]
        else:
            data = _tiny_study_dict(tmp_path / "s.jsonl", tmp_path / "c.jsonl")
            data["execution"].update(memo=True, memo_path=str(binary))
            study = tmp_path / "study.json"
            study.write_text(json.dumps(data))
            argv = ["run", str(study), "--quiet"]
        binary.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(binary) in err


@pytest.mark.parametrize("rho", ["nan", "inf"])
@pytest.mark.parametrize("algorithm", ["H1", "ILP"])
def test_non_finite_rho_is_refused(capsys, algorithm, rho):
    assert main(["solve", "--algorithm", algorithm, "--rho", rho]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "target throughput" in err


def _tiny_figure_args(sweep_file):
    return ["figure", "figure3", "--configurations", "1", "--throughputs", "60",
            "--iterations", "60", "--out", str(sweep_file), "--capture-allocations",
            "--quiet"]


def _tiny_study_dict(sweep_store, validation_store):
    """The study.json equivalent of the tiny figure3 + validate invocations."""
    return {
        "name": "figure3",
        "description": "Normalisation of cost with the optimal solution "
                       "(20 alternative graphs, 5-8 tasks per graph)",
        "series": "normalized_cost",
        "workload": {"setting": "small", "num_configurations": 1,
                     "target_throughputs": [60], "base_seed": 2016},
        "algorithms": [
            {"name": "ILP"}, {"name": "H1"},
            {"name": "H2", "params": {"iterations": 60}},
            {"name": "H31", "params": {"iterations": 60}},
            {"name": "H32", "params": {"iterations": 60}},
            {"name": "H32Jump", "params": {"iterations": 60}},
        ],
        "execution": {"sweep_store": str(sweep_store),
                      "validation_store": str(validation_store),
                      "capture_allocations": True},
        "validation": {"horizons": [8], "rate_multipliers": [1.0, 1.05]},
    }


class TestRunCommand:
    def test_run_study_end_to_end(self, capsys, tmp_path):
        import json

        study = tmp_path / "study.json"
        study.write_text(json.dumps(_tiny_study_dict(
            tmp_path / "sweep.jsonl", tmp_path / "campaign.jsonl")))
        assert main(["run", str(study), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "study 'figure3'" in out
        assert "normalised cost" in out
        assert "achieved / target throughput" in out
        assert "x1.05" in out
        assert (tmp_path / "sweep.jsonl").exists()
        assert (tmp_path / "campaign.jsonl").exists()

    def test_run_reproduces_figure_plus_validate_byte_identically(self, capsys, tmp_path):
        """The acceptance criterion: one study.json drives the pipeline end to
        end, reproducing the records of the equivalent `figure
        --capture-allocations` + `validate` invocations — byte-identically for
        the campaign checkpoint, identity-for-identity (the authoritative
        RunRecord criterion, which excludes wall-clock) for the sweep."""
        import json

        from repro.experiments import SweepResult
        from repro.experiments.validation import load_campaign

        legacy_sweep = tmp_path / "legacy-sweep.jsonl"
        legacy_campaign = tmp_path / "legacy-campaign.jsonl"
        assert main(_tiny_figure_args(legacy_sweep)) == 0
        assert main(["validate", str(legacy_sweep), "--horizons", "8",
                     "--multipliers", "1.0", "1.05",
                     "--out", str(legacy_campaign), "--quiet"]) == 0
        capsys.readouterr()

        study_sweep = tmp_path / "study-sweep.jsonl"
        study_campaign = tmp_path / "study-campaign.jsonl"
        study = tmp_path / "study.json"
        study.write_text(json.dumps(_tiny_study_dict(study_sweep, study_campaign)))
        assert main(["run", str(study), "--resume", "--quiet"]) == 0

        a = SweepResult.load(legacy_sweep)
        b = SweepResult.load(study_sweep)
        assert [r.identity() for r in a.records] == [r.identity() for r in b.records]
        assert [r.allocation.as_dict() for r in a.records] == [
            r.allocation.as_dict() for r in b.records
        ]
        assert legacy_campaign.read_bytes() == study_campaign.read_bytes()
        # the campaign checkpoints loaded back agree record for record too
        assert [r.as_dict() for r in load_campaign(legacy_campaign).records] == [
            r.as_dict() for r in load_campaign(study_campaign).records
        ]

    def test_run_resume_continues_both_stages(self, capsys, tmp_path):
        import json

        study = tmp_path / "study.json"
        study.write_text(json.dumps(_tiny_study_dict(
            tmp_path / "sweep.jsonl", tmp_path / "campaign.jsonl")))
        assert main(["run", str(study), "--quiet"]) == 0
        first = capsys.readouterr().out
        # a finished study resumes to byte-identical output
        assert main(["run", str(study), "--resume", "--quiet"]) == 0
        assert capsys.readouterr().out == first
        # and a re-run without --resume must not wipe the checkpoints
        assert main(["run", str(study), "--quiet"]) == 2
        assert "resume=True" in capsys.readouterr().err



    def test_solver_value_refused_before_any_store_is_created(self, capsys, tmp_path):
        """A value the solver's constructor refuses (H2 ``iterations: 0``)
        passes the parameter schema, yet `run` refuses the spec in one line,
        exit 2, before the sweep starts or any store directory exists."""
        import json

        store_dir = tmp_path / "stores"
        data = _tiny_study_dict(tmp_path / "sweep.jsonl", tmp_path / "campaign.jsonl")
        data["algorithms"][2] = {"name": "H2", "params": {"iterations": 0}}
        data["execution"] = {"store_dir": str(store_dir)}
        study = tmp_path / "study.json"
        study.write_text(json.dumps(data))
        assert main(["run", str(study), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "solver 'H2': iterations must be positive, got 0" in captured.err
        assert not store_dir.exists()
        assert not (tmp_path / "sweep.jsonl").exists()

    def test_format_2_campaign_refused_on_resume(self, capsys, tmp_path):
        """A campaign checkpoint written before format 3 is refused by both
        `run --resume` and `validate --resume`: one line, exit 2."""
        import json

        study = tmp_path / "study.json"
        campaign = tmp_path / "campaign.jsonl"
        study.write_text(json.dumps(_tiny_study_dict(tmp_path / "sweep.jsonl", campaign)))
        assert main(["run", str(study), "--quiet"]) == 0
        lines = campaign.read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), "version": 2})
        campaign.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for argv in (
            ["run", str(study), "--resume", "--quiet"],
            ["validate", str(tmp_path / "sweep.jsonl"), "--horizons", "8",
             "--multipliers", "1.0", "1.05", "--out", str(campaign), "--resume",
             "--quiet"],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "predates validation checkpoint format 3" in err, argv
            assert err.count("\n") == 1, argv

    def test_run_memo_repeated_all_hits_byte_identical(self, capsys, tmp_path):
        """The memo acceptance criterion: a repeated `run --memo` against a
        fresh store dir completes with 100% memo hits and writes checkpoint
        files byte-identical to the first run's."""
        import json

        memo = tmp_path / "memo.jsonl"
        first_study = tmp_path / "first.json"
        first_study.write_text(json.dumps(_tiny_study_dict(
            tmp_path / "a-sweep.jsonl", tmp_path / "a-campaign.jsonl")))
        assert main(["run", str(first_study), "--memo",
                     "--memo-path", str(memo), "--quiet"]) == 0
        first_out = capsys.readouterr().out
        assert "/ 0 miss" not in first_out  # first run computes everything

        second_study = tmp_path / "second.json"
        second_study.write_text(json.dumps(_tiny_study_dict(
            tmp_path / "b-sweep.jsonl", tmp_path / "b-campaign.jsonl")))
        assert main(["run", str(second_study), "--memo",
                     "--memo-path", str(memo), "--quiet"]) == 0
        second_out = capsys.readouterr().out
        assert "/ 0 miss]" in second_out  # 100% memo hits
        assert (tmp_path / "a-sweep.jsonl").read_bytes() == \
            (tmp_path / "b-sweep.jsonl").read_bytes()
        assert (tmp_path / "a-campaign.jsonl").read_bytes() == \
            (tmp_path / "b-campaign.jsonl").read_bytes()

    def test_run_chunk_size_byte_identical_campaign(self, capsys, tmp_path):
        import json

        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(_tiny_study_dict(
            tmp_path / "p-sweep.jsonl", tmp_path / "p-campaign.jsonl")))
        assert main(["run", str(plain), "--quiet"]) == 0
        chunked = tmp_path / "chunked.json"
        data = _tiny_study_dict(tmp_path / "c-sweep.jsonl", tmp_path / "c-campaign.jsonl")
        data["execution"]["chunk_size"] = 4
        chunked.write_text(json.dumps(data))
        assert main(["run", str(chunked), "--quiet"]) == 0
        capsys.readouterr()
        from repro.experiments.validation import load_campaign

        assert [r.as_dict() for r in load_campaign(tmp_path / "p-campaign.jsonl").records] \
            == [r.as_dict() for r in load_campaign(tmp_path / "c-campaign.jsonl").records]

    def test_run_profile_dumps_stats(self, capsys, tmp_path):
        import json
        import pstats

        study = tmp_path / "study.json"
        study.write_text(json.dumps(_tiny_study_dict(
            tmp_path / "sweep.jsonl", tmp_path / "campaign.jsonl")))
        stats_file = tmp_path / "run.pstats"
        assert main(["run", str(study), "--profile", str(stats_file), "--quiet"]) == 0
        err = capsys.readouterr().err
        assert stats_file.exists()
        assert f"profile stats -> {stats_file}" in err
        assert pstats.Stats(str(stats_file)).total_calls > 0

    def test_run_store_dir_overrides_explicit_stores(self, capsys, tmp_path):
        """--store-dir replaces the spec's checkpoint locations wholesale:
        explicit sweep_store/validation_store paths must not silently win."""
        import json

        study = tmp_path / "study.json"
        study.write_text(json.dumps(_tiny_study_dict(
            tmp_path / "spec-sweep.jsonl", tmp_path / "spec-campaign.jsonl")))
        target = tmp_path / "elsewhere"
        assert main(["run", str(study), "--store-dir", str(target), "--quiet"]) == 0
        capsys.readouterr()
        assert (target / "figure3-sweep.jsonl").exists()
        assert (target / "figure3-validation.jsonl").exists()
        assert (target / "figure3-study.json").exists()
        assert not (tmp_path / "spec-sweep.jsonl").exists()
        assert not (tmp_path / "spec-campaign.jsonl").exists()

    def test_run_wrong_typed_spec_value_is_clean_error(self, capsys, tmp_path):
        import json

        study = tmp_path / "study.json"
        data = _tiny_study_dict(tmp_path / "s.jsonl", tmp_path / "c.jsonl")
        data["execution"]["workers"] = "four"
        study.write_text(json.dumps(data))
        assert main(["run", str(study), "--quiet"]) == 2
        assert "invalid study spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario",
        [
            pytest.param({"name": "s", "arrival": 5}, id="arrival-not-a-dict"),
            pytest.param({"name": "s", "failures": [{"start": 0, "duration": 1}]},
                         id="failure-without-type"),
            pytest.param({"name": "s", "arrival": {"kind": "nope"}}, id="unknown-arrival"),
        ],
    )
    def test_run_malformed_nested_spec_is_one_error_line(self, capsys, tmp_path, scenario):
        import json

        study = tmp_path / "study.json"
        data = _tiny_study_dict(tmp_path / "s.jsonl", tmp_path / "c.jsonl")
        data["validation"]["scenarios"] = [scenario]
        study.write_text(json.dumps(data))
        assert main(["run", str(study), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "invalid study spec" in err
        assert not (tmp_path / "s.jsonl").exists()

    def test_run_missing_spec_is_clean_error(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "nope.json"), "--quiet"]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, field, value",
        [
            pytest.param(None, "workers", 4, id="misplaced"),  # belongs under "execution"
            pytest.param("execution", "chunk_policy", "adaptive", id="chunk_policy"),
            pytest.param("execution", "validation_shards", 2, id="validation_shards"),
        ],
    )
    def test_run_rejects_unknown_spec_fields(self, capsys, tmp_path, section, field, value):
        import json

        study = tmp_path / "study.json"
        data = _tiny_study_dict(tmp_path / "s.jsonl", tmp_path / "c.jsonl")
        (data if section is None else data[section])[field] = value
        study.write_text(json.dumps(data))
        assert main(["run", str(study), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "unknown field" in err and field in err and err.count("\n") == 1

    def test_run_rejects_misspelled_algorithm_param(self, capsys, tmp_path):
        import json

        study = tmp_path / "study.json"
        data = _tiny_study_dict(tmp_path / "s.jsonl", tmp_path / "c.jsonl")
        data["algorithms"][2]["params"] = {"iteration": 60}
        study.write_text(json.dumps(data))
        assert main(["run", str(study), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "iteration" in err and "accepted" in err

    def test_run_resume_without_stores_is_clean_error(self, capsys, tmp_path):
        import json

        study = tmp_path / "study.json"
        data = _tiny_study_dict(tmp_path / "s.jsonl", tmp_path / "c.jsonl")
        del data["execution"]
        study.write_text(json.dumps(data))
        assert main(["run", str(study), "--resume", "--quiet"]) == 2
        assert "requires a checkpoint location" in capsys.readouterr().err


class TestArgToSpecParity:
    def test_figure_args_build_the_study_json_spec(self, tmp_path):
        """`repro-cloud figure` and `run study.json` meet at the same StudySpec."""
        import json

        from repro.experiments.figures import figure_spec
        from repro.experiments.spec import StudySpec

        sweep_store = tmp_path / "sweep.jsonl"
        from_args = figure_spec(
            "figure3",
            num_configurations=1,
            target_throughputs=(60,),
            iterations=60,
            sweep_store=str(sweep_store),
            capture_allocations=True,
        )
        data = _tiny_study_dict(sweep_store, tmp_path / "unused.jsonl")
        del data["validation"]
        data["execution"] = {"sweep_store": str(sweep_store),
                             "capture_allocations": True}
        from_json = StudySpec.from_dict(data)
        assert from_args == from_json
        assert from_args.fingerprint() == from_json.fingerprint()

    def test_validate_args_build_the_study_json_spec(self, tmp_path):
        import json

        from repro.cli import validation_study_spec
        from repro.experiments import SweepResult
        from repro.experiments.spec import StudySpec

        sweep_file = tmp_path / "sweep.jsonl"
        assert main(_tiny_figure_args(sweep_file)) == 0
        sweep = SweepResult.load(sweep_file)

        from_args = validation_study_spec(
            sweep.plan,
            sweep_store=sweep_file,
            horizons=(8.0,),
            rate_multipliers=(1.0, 1.05),
            validation_store=tmp_path / "campaign.jsonl",
        )
        data = _tiny_study_dict(sweep_file, tmp_path / "campaign.jsonl")
        data["name"] = "validate-small"
        data["description"] = ""
        data["execution"] = {"sweep_store": str(sweep_file),
                             "validation_store": str(tmp_path / "campaign.jsonl"),
                             "resume": True}
        from_json = StudySpec.from_dict(data)
        assert from_args == from_json
        assert from_args.fingerprint() == from_json.fingerprint()

    def test_validate_screen_args_build_the_study_json_spec(self, tmp_path):
        """The --screen/--screen-threshold flags land in the spec's validation
        section exactly as a hand-written study.json would spell them."""
        from repro.cli import validation_study_spec
        from repro.experiments import SweepResult
        from repro.experiments.spec import StudySpec

        sweep_file = tmp_path / "sweep.jsonl"
        assert main(_tiny_figure_args(sweep_file)) == 0
        sweep = SweepResult.load(sweep_file)

        from_args = validation_study_spec(
            sweep.plan,
            sweep_store=sweep_file,
            horizons=(8.0,),
            rate_multipliers=(1.0, 1.05),
            screen="fluid",
            screen_threshold=0.7,
            validation_store=tmp_path / "campaign.jsonl",
        )
        data = _tiny_study_dict(sweep_file, tmp_path / "campaign.jsonl")
        data["name"] = "validate-small"
        data["description"] = ""
        data["execution"] = {"sweep_store": str(sweep_file),
                             "validation_store": str(tmp_path / "campaign.jsonl"),
                             "resume": True}
        data["validation"] = {"horizons": [8], "rate_multipliers": [1.0, 1.05],
                              "screen": "fluid", "screen_threshold": 0.7}
        from_json = StudySpec.from_dict(data)
        assert from_args == from_json
        assert from_args.fingerprint() == from_json.fingerprint()

    def test_validate_memo_args_build_the_study_json_spec(self, tmp_path):
        """`validate --memo/--memo-path` land in the spec's
        execution section exactly as a hand-written study.json would spell
        them — the CLI parity the run command already has."""
        from repro.cli import validation_study_spec
        from repro.experiments import SweepResult
        from repro.experiments.spec import StudySpec

        sweep_file = tmp_path / "sweep.jsonl"
        assert main(_tiny_figure_args(sweep_file)) == 0
        sweep = SweepResult.load(sweep_file)

        memo_file = tmp_path / "memo.jsonl"
        from_args = validation_study_spec(
            sweep.plan,
            sweep_store=sweep_file,
            horizons=(8.0,),
            rate_multipliers=(1.0, 1.05),
            validation_store=tmp_path / "campaign.jsonl",
            memo_path=memo_file,  # --memo-path alone implies memo=True
        )
        data = _tiny_study_dict(sweep_file, tmp_path / "campaign.jsonl")
        data["name"] = "validate-small"
        data["description"] = ""
        data["execution"] = {"sweep_store": str(sweep_file),
                             "validation_store": str(tmp_path / "campaign.jsonl"),
                             "resume": True,
                             "memo": True, "memo_path": str(memo_file)}
        from_json = StudySpec.from_dict(data)
        assert from_args == from_json
        assert from_args.fingerprint() == from_json.fingerprint()

    def test_validate_memo_repeat_serves_from_cache(self, capsys, tmp_path):
        """A repeated `validate --memo` recomputes nothing and stays
        byte-identical (campaign checkpoints compared whole)."""
        sweep_file = tmp_path / "sweep.jsonl"
        assert main(_tiny_figure_args(sweep_file)) == 0
        memo = tmp_path / "memo.jsonl"
        first_out = tmp_path / "campaign-a.jsonl"
        second_out = tmp_path / "campaign-b.jsonl"
        base = ["validate", str(sweep_file), "--horizons", "8",
                "--memo", "--memo-path", str(memo)]
        capsys.readouterr()
        assert main(base + ["--out", str(first_out), "--quiet"]) == 0
        first_summary = capsys.readouterr().out
        assert "[memo: 0 hit" in first_summary
        assert main(base + ["--out", str(second_out), "--quiet"]) == 0
        second_summary = capsys.readouterr().out
        assert "/ 0 miss]" in second_summary
        assert memo.exists()
        # a memo-served campaign is byte-identical to the computed one
        assert first_out.read_bytes() == second_out.read_bytes()

    def test_figure8_spec_carries_the_paper_time_limit(self):
        from repro.experiments.figures import figure_spec

        spec = figure_spec("figure8")
        ilp = next(a for a in spec.algorithms if a.name == "ILP")
        assert ilp.params == {"time_limit": 100.0}
        assert spec.workload.num_configurations == 10
        assert spec.series == "mean_time"

    def test_malformed_scenario_tokens_are_clean_errors(self, capsys, tmp_path):
        """_parse_type_id error paths: every malformed --slowdown/--fail token
        exits 2 with a ConfigurationError message, never a traceback."""
        sweep_file = tmp_path / "sweep.jsonl"
        assert main(_tiny_figure_args(sweep_file)) == 0
        capsys.readouterr()
        cases = [
            (["--slowdown", "=0.5"], "TYPE=FACTOR"),
            (["--slowdown", "2"], "TYPE=FACTOR"),
            (["--slowdown", "2=", ], "not a number"),
            (["--fail", "1:2:3:4:5"], "TYPE:START:DURATION"),
            (["--fail", "gpu:zero:3"], "non-numeric"),
            (["--fail", "1:0:2:many"], "non-numeric"),
        ]
        for extra, message in cases:
            code = main(["validate", str(sweep_file), "--quiet"] + extra)
            assert code == 2, extra
            assert message in capsys.readouterr().err, extra
