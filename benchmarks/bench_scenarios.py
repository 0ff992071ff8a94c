"""Benchmark of scenario-injection campaigns: serial vs pool vs resume.

Builds a small captured sweep, derives a validation campaign over a *scenario
axis* — Poisson arrivals, and a bursty arrival process with per-type slowdown
and seeded instance-failure windows — and runs it three ways, recording
wall-clock into ``BENCH_scenarios.json``:

* **serial** — :class:`SerialBackend`;
* **parallel** — :class:`ProcessPoolBackend` with ``--workers`` processes
  (one work unit per configuration, multiplier and scenario, covering every
  horizon), asserting the record lines are **byte-identical** to the serial
  run (every stochastic draw comes from a seed derived per (source,
  scenario) with ``stable_text_digest``, so worker count must not change a
  single byte).  The first pool of a process
  also starts the forkserver, so a pool run over the campaign's first work
  unit goes before it and is reported on its own as
  ``pool_spinup_seconds``; ``parallel_seconds`` and ``speedup`` are measured
  on the warm server;
* **resume** — the campaign is interrupted after a fixed number of
  checkpointed work units and resumed, asserting byte-identity again.

The report also samples the fast engine's event-core counters (heappush /
heappop / dispatch-scan totals of one representative simulation) so the
ROADMAP's calendar-queue question can be answered from bench artifacts.

Run directly to emit ``BENCH_scenarios.json`` next to this file::

    PYTHONPATH=src python benchmarks/bench_scenarios.py [--smoke] [--workers N] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments.backends import ProcessPoolBackend
from repro.experiments.config import default_plan
from repro.experiments.runner import run_plan
from repro.experiments.validation import (
    ValidationPlan,
    plan_from_sweep,
    plan_validation_units,
    run_validation,
)
from repro.simulation import BurstyArrivals, FailureWindow, PoissonArrivals, ScenarioSpec

# the byte-identity criterion and the interrupt/resume harness are shared
# with the plain-campaign benchmark — one definition, asserted by both
from bench_validation import record_lines, run_interrupted_then_resume


def build_campaign(smoke: bool) -> ValidationPlan:
    from dataclasses import replace

    plan = default_plan(
        "small",
        num_configurations=2 if smoke else 4,
        target_throughputs=(40, 80) if smoke else (20, 60, 100, 140),
        iterations=120 if smoke else 400,
    )
    keep = ("ILP", "H1") if smoke else ("ILP", "H1", "H2", "H32")
    plan = replace(plan, algorithms=tuple(a for a in plan.algorithms if a.name in keep))
    sweep = run_plan(plan, capture_allocations=True)
    scenarios = (
        ScenarioSpec(name="poisson", arrival=PoissonArrivals()),
        ScenarioSpec(
            name="bursty+degraded",
            arrival=BurstyArrivals(on=1.0, off=2.0),
            slowdowns=((1, 0.8),),
            failures=(FailureWindow(1, 1.0, 2.0), FailureWindow(2, 4.0, 1.0)),
        ),
    )
    return plan_from_sweep(
        sweep,
        horizons=(8.0,) if smoke else (15.0, 30.0),
        rate_multipliers=(1.0, 1.05),
        scenarios=scenarios,
    )


def sample_event_counters(plan: ValidationPlan) -> dict:
    """Event-core counters of one representative simulation of the campaign.

    Replays the first grid cell through the fast engine directly and returns
    ``metadata["event_counters"]`` — the heap-traffic numbers behind the
    ROADMAP's "calendar queue?" question, captured per bench run instead of
    requiring a cProfile session.
    """
    from repro.experiments.validation import _ExecutionContext, scenario_seed
    from repro.simulation import StreamSimulator

    context = _ExecutionContext(plan)
    source = plan.sources[0]
    scenario = plan.scenarios[0]
    simulator = StreamSimulator(
        context.problem(source),
        context.allocation(0),
        arrival_rate=source.rho * plan.rate_multipliers[0],
        warmup_fraction=plan.warmup_fraction,
        scenario=scenario,
        seed=scenario_seed(plan.sweep_plan.base_seed, source, scenario),
    )
    report = simulator.run(horizon=plan.horizons[0], max_datasets=plan.max_datasets)
    return dict(report.metadata["event_counters"])


def run(smoke: bool, workers: int) -> dict:
    t0 = time.perf_counter()
    plan = build_campaign(smoke)
    sweep_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    serial = run_validation(plan)
    serial_seconds = time.perf_counter() - t0
    serial_lines = record_lines(serial)

    # the process's first pool pays the forkserver start-up whatever it runs:
    # time that on one work unit, then measure the campaign on a warm server
    t0 = time.perf_counter()
    for _ in ProcessPoolBackend(workers).run(plan, plan_validation_units(plan)[:1]):
        pass
    pool_spinup_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_validation(plan, backend=ProcessPoolBackend(workers))
    parallel_seconds = time.perf_counter() - t0
    parallel_identical = record_lines(parallel) == serial_lines

    with tempfile.TemporaryDirectory() as tmp:
        resumed = run_interrupted_then_resume(plan, Path(tmp) / "campaign.jsonl", stop_after=2)
    resume_identical = record_lines(resumed) == serial_lines

    import os

    ratios = {
        scenario.name: min(
            record.throughput_ratio
            for record in serial.records
            if record.scenario == scenario.name
        )
        for scenario in plan.scenarios
    }
    return {
        "benchmark": "scenarios",
        "smoke": smoke,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "campaign": {
            "sweep": plan.sweep_plan.name,
            "allocations": len(plan.sources),
            "horizons": list(plan.horizons),
            "rate_multipliers": list(plan.rate_multipliers),
            "scenarios": [scenario.as_dict() for scenario in plan.scenarios],
            "simulations": plan.num_simulations,
        },
        "records": len(serial.records),
        "worst_throughput_ratio_by_scenario": ratios,
        "sweep_seconds": sweep_seconds,
        "serial_seconds": serial_seconds,
        "per_simulation_seconds": serial_seconds / plan.num_simulations,
        "pool_spinup_seconds": pool_spinup_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds if parallel_seconds > 0 else float("inf"),
        "parallel_identical": parallel_identical,
        "resume_identical": resume_identical,
        "event_counters_sample": sample_event_counters(plan),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes for CI")
    parser.add_argument("--workers", type=int, default=2, help="process-pool width")
    parser.add_argument(
        "--out", type=Path, default=Path(__file__).parent / "BENCH_scenarios.json"
    )
    parser.add_argument(
        "--check-budget", action="store_true",
        help="perf regression guard: instead of overwriting --out, read it as the "
             "committed baseline and fail if this run's per-simulation wall-clock "
             "exceeds twice the recorded per_simulation_seconds (smoke horizons are "
             "shorter than the baseline's, so headroom is real, not accounting slack); "
             "also fails if the warm pool is slower than serial on a multi-CPU host",
    )
    parser.add_argument(
        "--report", type=Path, default=None,
        help="also write the measured report here — lets --check-budget runs "
             "(where --out is the read-only baseline) still emit an artifact",
    )
    args = parser.parse_args(argv)
    report = run(smoke=args.smoke, workers=args.workers)
    if not args.check_budget:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    if args.report is not None:
        args.report.write_text(json.dumps(report, indent=2) + "\n")

    print(f"scenarios ({report['records']} records over "
          f"{report['campaign']['simulations']} simulations, "
          f"{len(report['campaign']['scenarios'])} scenarios)  "
          f"serial={report['serial_seconds']:.2f}s  "
          f"pool spin-up={report['pool_spinup_seconds']:.2f}s  "
          f"parallel[{report['workers']}]={report['parallel_seconds']:.2f}s  "
          f"speedup={report['speedup']:.2f}x")
    counters = report["event_counters_sample"]
    print(f"event core (one simulation): {counters['heappush']} heappush, "
          f"{counters['heappop']} heappop, {counters['dispatch_scan']} dispatch scans")
    for name, ratio in report["worst_throughput_ratio_by_scenario"].items():
        print(f"worst achieved/target ratio under {name}: {ratio:.3f}")
    print(f"parallel byte-identical to serial: {report['parallel_identical']}")
    print(f"resume byte-identical to serial:   {report['resume_identical']}")

    if not (report["parallel_identical"] and report["resume_identical"]):
        print("FAIL: parallel/resumed scenario campaign diverges from the serial run",
              file=sys.stderr)
        return 1
    if args.check_budget:
        try:
            baseline = json.loads(args.out.read_text())
            budget = baseline["per_simulation_seconds"]
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            print(f"FAIL: cannot read budget from {args.out}: {exc}", file=sys.stderr)
            return 1
        measured = report["per_simulation_seconds"]
        print(f"budget check: {measured * 1e3:.2f} ms/simulation against the "
              f"committed {budget * 1e3:.2f} ms/simulation (fail above 2.00x)")
        if measured > 2.0 * budget:
            print(f"FAIL: per-simulation wall-clock regressed "
                  f"{measured / budget:.2f}x past the committed budget in {args.out}",
                  file=sys.stderr)
            return 1
        # the warm pool must beat serial — but only where there is real
        # parallel hardware; on a single-CPU runner the pool cannot win and
        # the check would only measure scheduler noise
        if (report["cpu_count"] or 1) >= 2:
            print(f"pool speedup check: {report['speedup']:.2f}x "
                  f"(fail below 1.00x on {report['cpu_count']} CPUs)")
            if report["speedup"] < 1.0:
                print(f"FAIL: the warm pool is slower than serial "
                      f"({report['speedup']:.2f}x) despite "
                      f"{report['cpu_count']} CPUs", file=sys.stderr)
                return 1
        else:
            print("pool speedup check skipped: single-CPU runner "
                  "(no parallel hardware to beat serial with)")
    else:
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
