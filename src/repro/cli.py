"""Command-line interface: ``python -m repro`` / ``repro-cloud``.

Sub-commands
------------

``run``
    Execute a declarative study (``study.json``, a serialised
    :class:`~repro.experiments.spec.StudySpec`) end to end: sweep →
    capture allocations → validation campaign → series, resumable as one
    pipeline with ``--resume``.  This is the canonical entry point; the
    ``figure`` and ``validate`` sub-commands below are thin constructors of
    the same specs.
``table3``
    Reproduce Table III of the paper (illustrating example, all algorithms)
    and compare the exact costs against the published column.
``figure``
    Regenerate one of Figures 3-8 (scaled down by default; pass
    ``--configurations 100`` for the paper-scale run) and print the series.
``validate``
    Replay every allocation of a captured sweep through the stream simulator
    (a validation campaign over horizons x arrival-rate multipliers), with
    the same ``--workers``/``--out``/``--resume`` machinery as ``figure``.
``solve``
    Solve the illustrating example (or a randomly generated instance) at a
    given throughput with a chosen algorithm and print the allocation.
``settings``
    List the paper's workload settings and the registered algorithms.
``lint``
    Run repro-lint, the AST-based architecture-invariant checker: per-file
    rules RL001-RL004 and RL006-RL008 (determinism, evaluator routing,
    work-unit contract, checkpoint hygiene, exception hygiene, seed
    derivations, engine purity), plus the call-graph rules RL101, RL102,
    RL104 and RL105 when a directory is linted.  Exits 1 on findings, so CI
    can gate on it.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from . import available_solvers, create_solver
from .core.exceptions import ConfigurationError, ReproError
from .experiments.figures import FIGURE_DEFINITIONS, figure_spec
from .experiments.reporting import (
    campaign_summary,
    render_campaign,
    render_series,
    render_table3,
    sweep_summary,
    table3_vs_paper,
)
from .experiments.tables import illustrating_problem, reproduce_table3
from .generators.workload import PAPER_SETTINGS, generate_configuration, get_setting
from .simulation.validate import validate_allocation

__all__ = ["main", "build_parser", "validation_study_spec"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cloud",
        description="Reproduction of 'Minimizing Rental Cost for Multiple Recipe "
        "Applications in the Cloud' (Hanna et al., IPDPSW 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run",
        help="run a declarative study (study.json) end to end: "
             "sweep -> validation -> series",
    )
    p_run.add_argument("spec", type=Path,
                       help="path to a study.json (a serialised StudySpec; see the "
                            "README's 'Declarative studies' section)")
    p_run.add_argument("--workers", type=int, default=None,
                       help="override the spec's worker count")
    p_run.add_argument("--store-dir", type=Path, default=None,
                       help="override the spec's checkpoint directory")
    p_run.add_argument("--resume", action="store_true",
                       help="resume both pipeline stages from their checkpoints "
                            "(requires checkpoint stores in the spec or --store-dir)")
    p_run.add_argument("--memo", action="store_true",
                       help="serve previously-computed cells from the result memo "
                            "cache and write fresh cells back to it")
    p_run.add_argument("--memo-path", type=Path, default=None, metavar="FILE",
                       help="memo cache file (default: $REPRO_MEMO_PATH or "
                            "~/.cache/repro-cloud/result-memo.jsonl; implies --memo)")
    p_run.add_argument("--profile", type=Path, default=None, metavar="STATS",
                       help="profile the pipeline with cProfile and dump the stats "
                            "to this file (inspect with 'python -m pstats')")
    p_run.add_argument("--quiet", action="store_true", help="suppress progress messages")

    p_table = sub.add_parser("table3", help="reproduce Table III (illustrating example)")
    p_table.add_argument("--iterations", type=int, default=2000, help="heuristic iteration budget")
    p_table.add_argument("--seed", type=int, default=2016, help="base random seed")

    p_fig = sub.add_parser("figure", help="regenerate one of the paper's figures")
    p_fig.add_argument("name", choices=sorted(FIGURE_DEFINITIONS),
                       help="figure to regenerate (only the paper's figures are listed "
                            "here; the ablation studies are StudySpecs built by "
                            "repro.experiments.figures.ablation_* and run with "
                            "repro.api.Study)")
    p_fig.add_argument("--configurations", type=int, default=5,
                       help="number of random configurations (paper: 100)")
    p_fig.add_argument("--iterations", type=int, default=1000, help="heuristic iteration budget")
    p_fig.add_argument("--throughputs", type=int, nargs="*", default=None,
                       help="target throughputs (paper: 20..200 step 10)")
    p_fig.add_argument("--workers", type=int, default=None,
                       help="worker processes for the sweep (default: run serially)")
    p_fig.add_argument("--out", type=Path, default=None,
                       help="JSONL checkpoint/result file; every completed work unit "
                            "is appended so an interrupted sweep can be resumed")
    p_fig.add_argument("--resume", action="store_true",
                       help="resume from the --out checkpoint, skipping completed work units")
    p_fig.add_argument("--capture-allocations", action="store_true",
                       help="record each solved allocation (split + machine counts) in the "
                            "sweep records; 'validate' replays them and refuses a sweep "
                            "without them")
    p_fig.add_argument("--quiet", action="store_true", help="suppress progress messages")

    p_val = sub.add_parser(
        "validate",
        help="replay a sweep's allocations through the stream simulator "
             "(validation campaign)",
    )
    p_val.add_argument("sweep", type=Path,
                       help="sweep checkpoint JSONL file (written by "
                            "'figure --out ... --capture-allocations')")
    p_val.add_argument("--horizons", type=float, nargs="+", default=[50.0],
                       help="simulated durations (time units) per allocation")
    p_val.add_argument("--multipliers", type=float, nargs="+", default=[1.0],
                       help="arrival-rate multipliers on each allocation's target "
                            "throughput (e.g. 1.0 1.05 adds a 5%% stress point)")
    p_val.add_argument("--warmup", type=float, default=0.1,
                       help="fraction of the horizon excluded from the throughput "
                            "measurement")
    p_val.add_argument("--max-datasets", type=int, default=None,
                       help="cap the number of injected data sets per simulation")
    p_val.add_argument("--algorithms", nargs="*", default=None,
                       help="restrict the campaign to these sweep algorithms")
    p_val.add_argument("--arrival", nargs="+", default=None, metavar="PROCESS",
                       help="arrival processes, one scenario each: deterministic, "
                            "poisson, bursty:on=1,off=3, batch:size=5 "
                            "(default: the paper's deterministic stream)")
    p_val.add_argument("--slowdown", nargs="+", default=None, metavar="TYPE=FACTOR",
                       help="per-type service-rate factors applied to every scenario "
                            "(e.g. 2=0.5 runs type-2 machines at half speed)")
    p_val.add_argument("--fail", nargs="+", default=None, metavar="TYPE:START:DURATION[:COUNT]",
                       help="transient failure windows applied to every scenario: "
                            "COUNT seeded instances of TYPE take no new work during "
                            "[START, START+DURATION) (COUNT defaults to 1)")
    p_val.add_argument("--screen", choices=("none", "fluid"), default="none",
                       help="fast-screen tier: 'fluid' bounds every grid cell with the "
                            "closed-form fluid model first and only runs the exact DES "
                            "for cells whose peak utilisation reaches the escalation "
                            "threshold; screened-out cells are recorded as explicit "
                            "tier='fluid' records (default: exact DES everywhere)")
    p_val.add_argument("--screen-threshold", type=float, default=0.85,
                       help="fluid peak utilisation at which a cell escalates to the "
                            "exact DES (default: 0.85)")
    p_val.add_argument("--workers", type=int, default=None,
                       help="worker processes for the campaign (default: run serially)")
    p_val.add_argument("--memo", action="store_true",
                       help="serve previously-computed cells from the result memo "
                            "cache and write fresh cells back to it")
    p_val.add_argument("--memo-path", type=Path, default=None, metavar="FILE",
                       help="memo cache file (default: $REPRO_MEMO_PATH or "
                            "~/.cache/repro-cloud/result-memo.jsonl; implies --memo)")
    p_val.add_argument("--out", type=Path, default=None,
                       help="JSONL checkpoint file; every completed work unit is appended "
                            "so an interrupted campaign can be resumed")
    p_val.add_argument("--resume", action="store_true",
                       help="resume from the --out checkpoint, skipping completed work units")
    p_val.add_argument("--profile", type=Path, default=None, metavar="STATS",
                       help="profile the campaign with cProfile and dump the stats "
                            "to this file (inspect with 'python -m pstats')")
    p_val.add_argument("--quiet", action="store_true", help="suppress progress messages")

    p_solve = sub.add_parser("solve", help="solve one MinCOST instance and print the allocation")
    p_solve.add_argument("--algorithm", default="ILP", help="algorithm name (see 'settings')")
    p_solve.add_argument("--rho", type=float, default=70.0, help="target throughput")
    p_solve.add_argument("--setting", default=None,
                         help="generate a random instance from this paper setting "
                              "instead of using the illustrating example")
    p_solve.add_argument("--seed", type=int, default=0, help="random seed for generated instances")
    p_solve.add_argument("--simulate", action="store_true",
                         help="validate the allocation with the stream simulator")

    sub.add_parser("settings", help="list workload settings and registered algorithms")

    p_serve = sub.add_parser(
        "serve",
        help="run the study-execution HTTP service (submit StudySpec JSON, "
             "poll status, fetch results; see the README's 'Service mode')",
    )
    p_serve.add_argument("--store-root", type=Path, required=True,
                         help="directory holding the job journal, per-study "
                              "checkpoint stores and the shared memo cache")
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="TCP port (0 binds a free port; the bound port is "
                              "printed on startup)")
    p_serve.add_argument("--jobs", type=int, default=2,
                         help="concurrent study executions (each may fan out "
                              "over --workers processes)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="process-pool width per job (default: serial)")
    p_serve.add_argument("--memo-path", type=Path, default=None, metavar="FILE",
                         help="shared result-memo cache "
                              "(default: <store-root>/result-memo.jsonl)")
    p_serve.add_argument("--request-timeout", type=float, default=30.0,
                         help="per-request socket timeout in seconds")

    p_lint = sub.add_parser(
        "lint",
        help="run repro-lint, the AST-based architecture-invariant checker",
    )
    p_lint.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint (default: ./src if it "
                             "exists, else the current directory); a directory "
                             "adds the call-graph rules (RL101+) to the per-file ones")
    p_lint.add_argument("--rule", action="append", default=None, metavar="ID",
                        help="restrict to these rule ids (repeatable; comma lists "
                             "accepted, e.g. --rule RL001,RL002)")
    p_lint.add_argument("--output", type=Path, default=None, metavar="PATH",
                        help="also write the JSON report to PATH, keeping the "
                             "terminal report and exit code unchanged")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    return parser


def _check_seed(seed: int) -> None:
    """Seeds root numpy's SeedSequence, which takes non-negative integers only."""
    if seed < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {seed}")


def _cmd_table3(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    table = reproduce_table3(iterations=args.iterations, base_seed=args.seed)
    print(render_table3(table))
    print()
    print("Exact-cost comparison with the paper's Table III:")
    print(table3_vs_paper(table))
    return 0


@contextmanager
def _maybe_profile(stats_path: Path | None):
    """Run the enclosed block under cProfile when ``--profile`` was given.

    Dumps the raw stats to ``stats_path`` (loadable with ``python -m pstats``
    or ``snakeviz``) and prints the top cumulative-time entries to stderr so a
    quick look needs no second command.  With parallel workers only the
    coordinating process is profiled; run serially to profile the hot path.
    """
    if stats_path is None:
        yield
        return
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.dump_stats(stats_path)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        print(f"profile stats -> {stats_path}", file=sys.stderr)
        stats.sort_stats("cumulative").print_stats(15)


def _check_parallel_run_args(args: argparse.Namespace) -> None:
    """Validate the shared --workers/--resume/--out flags."""
    if args.workers is not None and args.workers < 1:
        raise ConfigurationError(f"--workers must be >= 1, got {args.workers}")
    if args.resume and args.out is None:
        raise ConfigurationError("--resume requires --out (the checkpoint file to resume from)")
    if args.resume and not args.out.exists():
        # unlike `run --resume` (which starts any stage whose checkpoint is
        # missing), the single-stage sub-commands treat a missing checkpoint
        # as a typo, exactly like the stores themselves do
        raise ConfigurationError(
            f"{args.out} does not exist; nothing to resume "
            f"(check the path, or drop --resume to start fresh)"
        )


def _cmd_run(args: argparse.Namespace) -> int:
    from .api import Study
    from .experiments.spec import StudySpec

    progress = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    spec = StudySpec.from_json(args.spec)
    overrides = {}
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.store_dir is not None:
        # a directory override replaces the spec's checkpoint locations
        # wholesale; explicit sweep_store/validation_store paths must not
        # silently win over it (the manifest lives in store_dir too)
        overrides["store_dir"] = str(args.store_dir)
        overrides["sweep_store"] = None
        overrides["validation_store"] = None
    if args.resume:
        overrides["resume"] = True
    if args.memo or args.memo_path is not None:
        overrides["memo"] = True
    if args.memo_path is not None:
        overrides["memo_path"] = str(args.memo_path)
    # ExecutionSpec itself rejects resume without a checkpoint location,
    # so a bare `--resume` on a store-less spec fails cleanly here
    if overrides:
        spec = replace(spec, execution=replace(spec.execution, **overrides))
    study = Study.from_spec(spec)
    with _maybe_profile(args.profile):
        result = study.run(progress=progress)
    header = f"study '{spec.name}'"
    if spec.description:
        header += f": {spec.description}"
    print(header)
    print(render_series(result.series))
    if result.campaign is not None:
        print()
        print(campaign_summary(result.campaign))
        print(render_campaign(result.campaign))
    if study.sweep_store_path is not None:
        print(f"{sweep_summary(result.sweep)} -> {study.sweep_store_path}", file=sys.stderr)
    if result.campaign is not None and study.validation_store_path is not None:
        print(f"campaign checkpoint -> {study.validation_store_path}", file=sys.stderr)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .api import Study

    progress = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    # "--throughputs" (given but empty) is an error, unlike the flag being absent
    if args.throughputs is not None and not args.throughputs:
        raise ConfigurationError("--throughputs requires at least one value")
    _check_parallel_run_args(args)
    spec = figure_spec(
        args.name,
        num_configurations=args.configurations,
        target_throughputs=args.throughputs,
        iterations=args.iterations,
        workers=args.workers,
        sweep_store=None if args.out is None else str(args.out),
        resume=args.resume,
        capture_allocations=args.capture_allocations,
    )
    result = Study.from_spec(spec).run(progress=progress)
    print(spec.description)
    print(render_series(result.series))
    if args.out is not None:
        print(f"{sweep_summary(result.sweep)} -> {args.out}", file=sys.stderr)
    return 0


def _parse_type_id(text: str):
    """CLI processor-type token: the paper's integer ids, or any string id."""
    try:
        return int(text)
    except ValueError:
        return text


def _build_scenarios(args: argparse.Namespace):
    """The scenario axis requested by --arrival/--slowdown/--fail.

    Returns ``None`` (the default baseline axis) when none of the flags is
    given.  Otherwise one scenario per --arrival process (default: the
    deterministic stream), each carrying every --slowdown factor and --fail
    window; scenario names are derived from the tokens
    (``poisson``, ``bursty:on=1,off=3+slow+fail``, ...).
    """
    if args.arrival is None and args.slowdown is None and args.fail is None:
        return None
    from .simulation.scenarios import FailureWindow, ScenarioSpec, parse_arrival_spec

    slowdowns = []
    for item in args.slowdown or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigurationError(f"--slowdown expects TYPE=FACTOR, got {item!r}")
        try:
            factor = float(value)
        except ValueError:
            raise ConfigurationError(
                f"--slowdown factor in {item!r} is not a number"
            ) from None
        slowdowns.append((_parse_type_id(key), factor))
    failures = []
    for item in args.fail or []:
        parts = item.split(":")
        if len(parts) not in (3, 4):
            raise ConfigurationError(
                f"--fail expects TYPE:START:DURATION[:COUNT], got {item!r}"
            )
        try:
            failures.append(
                FailureWindow(
                    type_id=_parse_type_id(parts[0]),
                    start=float(parts[1]),
                    duration=float(parts[2]),
                    count=int(parts[3]) if len(parts) == 4 else 1,
                )
            )
        except ValueError:
            raise ConfigurationError(
                f"--fail window {item!r} holds a non-numeric field"
            ) from None
    scenarios = []
    for token in args.arrival if args.arrival is not None else ["deterministic"]:
        name_parts = [token]
        if slowdowns:
            name_parts.append("slow")
        if failures:
            name_parts.append("fail")
        scenarios.append(
            ScenarioSpec(
                name="+".join(name_parts),
                arrival=parse_arrival_spec(token),
                slowdowns=tuple(slowdowns),
                failures=tuple(failures),
            )
        )
    return tuple(scenarios)


def validation_study_spec(
    sweep_plan,
    *,
    sweep_store,
    horizons: Sequence[float] = (50.0,),
    rate_multipliers: Sequence[float] = (1.0,),
    warmup_fraction: float = 0.1,
    max_datasets: int | None = None,
    algorithms: Sequence[str] | None = None,
    scenarios=None,
    screen: str = "none",
    screen_threshold: float = 0.85,
    workers: int | None = None,
    validation_store=None,
    memo: bool = False,
    memo_path=None,
):
    """The :class:`StudySpec` equivalent of one ``repro-cloud validate`` invocation.

    The workload and algorithms are lifted from the sweep checkpoint's own
    plan and the sweep store points at the existing checkpoint with
    ``resume=True`` — so running the returned spec with ``repro-cloud run``
    resumes (i.e. skips) the already-completed sweep and executes exactly the
    campaign the ``validate`` flags describe.  The parity tests assert this
    arg-to-spec mapping against hand-written ``study.json`` files.
    """
    from .experiments.spec import ExecutionSpec, StudySpec, ValidationSpec, WorkloadSpec

    return StudySpec(
        name=f"validate-{sweep_plan.name}",
        workload=WorkloadSpec(
            setting=sweep_plan.setting,
            num_configurations=sweep_plan.num_configurations,
            target_throughputs=sweep_plan.target_throughputs,
            base_seed=sweep_plan.base_seed,
        ),
        algorithms=sweep_plan.algorithms,
        execution=ExecutionSpec(
            workers=workers,
            sweep_store=str(sweep_store),
            validation_store=None if validation_store is None else str(validation_store),
            resume=True,
            memo=memo or memo_path is not None,
            memo_path=None if memo_path is None else str(memo_path),
        ),
        validation=ValidationSpec(
            horizons=tuple(horizons),
            rate_multipliers=tuple(rate_multipliers),
            warmup_fraction=warmup_fraction,
            max_datasets=max_datasets,
            algorithms=None if algorithms is None else tuple(algorithms),
            scenarios=scenarios,
            screen=screen,
            screen_threshold=screen_threshold,
        ),
    )


def _cmd_validate(args: argparse.Namespace) -> int:
    from .api import Study
    from .experiments.runner import SweepResult

    progress = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    # "--algorithms" (given but empty) is an error, unlike the flag being absent
    if args.algorithms is not None and not args.algorithms:
        raise ConfigurationError("--algorithms requires at least one name")
    _check_parallel_run_args(args)
    sweep = SweepResult.load(args.sweep, allow_partial=True)
    if len(sweep.records) != sweep.plan.num_records:
        print(
            f"warning: {args.sweep} holds {len(sweep.records)} of the "
            f"{sweep.plan.num_records} records its plan calls for (incomplete sweep); "
            f"only those allocations are validated — resume the sweep for full "
            f"coverage",
            file=sys.stderr,
        )
    spec = validation_study_spec(
        sweep.plan,
        sweep_store=args.sweep,
        horizons=args.horizons,
        rate_multipliers=args.multipliers,
        warmup_fraction=args.warmup,
        max_datasets=args.max_datasets,
        algorithms=args.algorithms,
        scenarios=_build_scenarios(args),
        screen=args.screen,
        screen_threshold=args.screen_threshold,
        workers=args.workers,
        validation_store=args.out,
        memo=args.memo,
        memo_path=args.memo_path,
    )
    # the sweep is passed in pre-loaded (partial checkpoints included), so
    # the sweep stage is skipped and only the campaign runs
    with _maybe_profile(args.profile):
        result = Study.from_spec(spec).run(
            sweep=sweep,
            resume=args.resume,
            progress=progress,
        )
    campaign = result.campaign
    print(campaign_summary(campaign))
    print(render_campaign(campaign))
    if args.out is not None:
        print(f"campaign checkpoint -> {args.out}", file=sys.stderr)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    if args.setting:
        configuration = generate_configuration(get_setting(args.setting), seed=args.seed)
        problem = configuration.problem(args.rho)
    else:
        problem = illustrating_problem(args.rho)
    solver = create_solver(args.algorithm)
    result = solver.solve(problem)
    print(problem.describe())
    print(result.summary())
    print(result.allocation.summary())
    if args.simulate:
        validation = validate_allocation(problem, result.allocation)
        print()
        print("Stream-simulation validation:")
        if validation.report is not None:
            print(validation.report.summary())
        print(f"allocation sustains the target throughput: {validation.sustains_target}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.lint import available_rules, lint_paths, render_json, render_text

    if args.list_rules:
        for rule_cls in available_rules():
            print(rule_cls.describe())
        return 0
    paths = list(args.paths)
    if not paths:
        default = Path("src")
        paths = [default if default.is_dir() else Path(".")]
    rule_filter = None
    if args.rule is not None:
        rule_filter = [
            token.strip()
            for item in args.rule
            for token in item.split(",")
            if token.strip()
        ]
    report = lint_paths(paths, rule_ids_filter=rule_filter)
    if args.output is not None:
        args.output.write_text(render_json(report), encoding="utf-8")
    print(render_text(report))
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.server import serve

    return serve(
        store_root=args.store_root,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        workers=args.workers,
        memo_path=args.memo_path,
        request_timeout=args.request_timeout,
    )


def _cmd_settings(_args: argparse.Namespace) -> int:
    print("Workload settings (Section VIII):")
    for name, setting in PAPER_SETTINGS.items():
        print(
            f"  {name:<7} {setting.num_recipes} recipes, "
            f"{setting.min_tasks}-{setting.max_tasks} tasks, "
            f"{setting.num_types} types, mutation {setting.mutation_fraction:.0%}, "
            f"throughput {setting.throughput_range}"
        )
    print()
    print("Registered algorithms:", ", ".join(available_solvers()))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-cloud`` and ``python -m repro``.

    Any library error (:class:`~repro.core.exceptions.ReproError`) or I/O
    error a command raises is printed as one ``error:`` line and exits 2.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "table3": _cmd_table3,
        "figure": _cmd_figure,
        "validate": _cmd_validate,
        "solve": _cmd_solve,
        "settings": _cmd_settings,
        "serve": _cmd_serve,
        "lint": _cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
