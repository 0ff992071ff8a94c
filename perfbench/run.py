"""The repository benchmark: end-to-end metrics, output checks and a traced layer split.

Run from the repository root::

    python3 perfbench/run.py --workload study-des --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``study-des`` — serial ``Study.run`` calls with checkpoints and no memo:
  sweep, capture, DES validation over horizons x multipliers x scenarios;
* ``sweep-solve`` — sweep-only studies, 120 solves each (ILP + heuristics);
* ``serve-mixed`` — a ``repro-cloud serve --jobs 1 --workers 2`` subprocess
  under a closed loop of two clients (fresh studies, resubmits, polls).

Every study and request comes from ``--seed``.  With ``--trace 0`` the run is
untraced and reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced passes of the same work, checks that both write the same
records, and reports per-layer self times and counters (see ``tracing.py``).
Outputs are checked outside the timed window; a failed check makes the run
exit 1.  The last line of standard output is the JSON result; the full report
(machine stamp, seed, sample counts, checks) is written to
``.perfbench-out/``, and the traced run's spans beside it.

Native code (HiGHS) prints to file descriptor 1 during solves, so the
program's descriptor 1 is pointed at a log file and the report goes to a
duplicate of the original descriptor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARKS = ROOT / "benchmarks"
OUT = ROOT / ".perfbench-out"
WORK = ROOT / ".perfbench-work"

#: Set-up is measured this many times per run and reported as the median.
SETUP_REPEATS = 5
#: Sampled fresh serve-mixed jobs re-run locally and compared byte for byte.
SERVE_LOCAL_CHECKS = 3
SERVE_FLAGS = {"jobs": 1, "workers": 2}

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "job_p50_s": "s",
    "norm_cost_mean": "ratio",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

ALGORITHMS = ("ILP", "H1", "H2", "H31", "H32", "H32Jump")

PER_LAYER = {
    "api.sweep_s": "s", "api.validation_s": "s", "api.series_s": "s",
    "generators.configs": "count", "generators.s": "s",
    **{f"solve.{alg}.{key}": unit for alg in ALGORITHMS
       for key, unit in (("n", "count"), ("s", "s"), ("iters", "count"))},
    "evaluator.calls": "count", "evaluator.rows": "count", "evaluator.s": "s",
    "evaluator.memo_hit_ratio": "ratio",
    "simulation.runs": "count", "simulation.s": "s", "simulation.events": "count",
    "simulation.us_per_event": "us", "simulation.sim_time": "time-units",
    "simulation.distinct_ratio": "ratio",
    "backends.units": "count", "backends.first_unit_s": "s", "backends.s": "s",
    "store.appends": "count", "store.append_s": "s", "store.bytes": "B", "store.init_s": "s",
    "memo.lookups": "count", "memo.hit_ratio": "ratio", "memo.lookup_s": "s",
    "memo.puts": "count", "memo.put_s": "s", "memo.load_s": "s",
    "service.s": "s", "service.submit_ms": "ms", "service.results_ms": "ms",
    "service.errors": "count", "jobs.queue_wait_s": "s", "jobs.exec_s": "s",
    "jobs.dedup_ratio": "ratio",
    "poll_p50_ms": "ms", "poll_p99_ms": "ms", "job_fresh_p50_s": "s",
    "job_fresh_p90_s": "s", "job_repeat_p50_ms": "ms",
    "cells_per_s": "1/s", "solves_per_s": "1/s", "fail_ratio": "ratio",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
}

#: Per-layer counts and seconds are divided by the traced studies (or, for
#: serve-mixed, completed jobs), so runs of different lengths stay comparable.
NORMALIZED = {
    name for name, unit in PER_LAYER.items()
    if unit in ("count", "s", "B", "time-units")
    and not name.startswith(("jobs.", "job_")) and name != "backends.first_unit_s"
}


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #


def quantile(values, share: float) -> float:
    """Nearest-rank quantile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(share * len(ordered)) - 1))]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb(pid: "int | None" = None) -> float:
    """Peak resident set size of ``pid`` (this process when ``None``), in MB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def machine_stamp() -> dict:
    import numpy
    import scipy
    from scipy.optimize._highspy import _core as highs

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )

    revision = dirty = None
    try:
        head = git("rev-parse", "HEAD")
        if head.returncode == 0:
            revision = head.stdout.strip()
            dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}."
                 f"{highs.HIGHS_VERSION_PATCH}",
        "git_revision": revision,
        "git_dirty": dirty,
        "machine": platform.machine(),
    }


class Checks:
    """Collected output checks."""

    def __init__(self) -> None:
        self.results: list = []

    def add(self, result: tuple) -> None:
        self.results.append(result)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #


def setup_probe(workload: str, seed: int) -> int:
    """Child side of the set-up measurement: import, build the first spec, report."""
    from repro.api import Study
    from repro.solvers.registry import ensure_default_solvers
    from workloads import des_study, sweep_study

    ensure_default_solvers()
    make = des_study if workload == "study-des" else sweep_study
    Study.from_spec(make(seed, 0, str(WORK / "probe")))
    print("ready", flush=True)
    return 0


def measure_setup(workload: str, seed: int) -> list:
    """Process start until the first study is ready to run, several times."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True,
        )
        line = child.stdout.readline()
        times.append(perf_counter() - started)
        child.stdout.close()
        if child.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    return times


# --------------------------------------------------------------------------- #
# study-des and sweep-solve
# --------------------------------------------------------------------------- #


def run_studies(workload: str, seed: int, seconds: float, work: Path, trace: bool):
    """The run's fixed number of serial studies (see ``workloads.units_for``).

    Untraced: one ``Study.run`` per spec.  Traced: half as many specs, each
    also run traced into another store directory — traced second on even
    studies and first on odd ones, so warm-up favours neither side of the
    overhead — and the pair must write the same records.  Returns (runs,
    tracer, traced windows, checks).
    """
    from repro.api import Study

    import tracing
    from checks import record_dicts, same_records
    from workloads import des_study, sweep_study, units_for

    def run_one(spec):
        started = perf_counter()
        result = Study.from_spec(spec).run()
        result.series  # the series stage is part of the pipeline
        return result, started, perf_counter()

    def run_traced(spec):
        patches = tracing.install(tracer)
        try:
            return run_one(spec)
        finally:
            tracing.uninstall(patches)

    make = des_study if workload == "study-des" else sweep_study
    tracer = tracing.Tracer() if trace else None
    runs, windows, passive = [], [], []
    for index in range(units_for(workload, seconds / 2 if trace else seconds)):
        spec = make(seed, index, str(work / f"study-{index}"))
        if trace and index % 2:
            traced, t0, t1 = run_traced(make(seed, index, str(work / f"study-{index}-traced")))
        result, s0, s1 = run_one(spec)
        runs.append((spec, result, s1 - s0))
        if trace:
            if not index % 2:
                traced, t0, t1 = run_traced(make(seed, index, str(work / f"study-{index}-traced")))
            windows.append((t0, t1, s1 - s0))
            passive.append(same_records(
                f"{spec.name}: traced records = untraced records",
                record_dicts(result), record_dicts(traced),
            ))
    return runs, tracer, windows, passive


def check_studies(workload: str, seed: int, runs, checks: Checks) -> None:
    import numpy as np

    from checks import ilp_is_lowest, reference_replay, rescored_payloads
    from workloads import derive

    rng = np.random.default_rng(derive(seed, "checks"))
    for spec, result, _ in runs:
        checks.add(ilp_is_lowest(spec.name, result.sweep.records))
    spec, result, _ = runs[0]
    checks.add(rescored_payloads(spec.name, spec.workload, result.sweep.records, rng))
    if workload == "study-des":
        checks.add(reference_replay(spec.name, spec, result, rng))


def distinct_ratio(runs) -> float:
    """Distinct (configuration, rho, allocation, horizon, multiplier, scenario) / runs."""
    keys, total = set(), 0
    for _, result, _ in runs:
        if result.campaign is None:
            continue
        payloads = {
            (r.configuration, r.rho, r.algorithm): json.dumps(r.allocation.as_dict())
            for r in result.sweep.records
        }
        for record in result.campaign.records:
            total += 1
            keys.add((
                result.spec.workload.base_seed, record.configuration, record.rho,
                payloads[(record.configuration, record.rho, record.algorithm)],
                record.horizon, record.rate_multiplier, record.scenario,
            ))
    return len(keys) / total if total else 0.0


def studies_report(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    from checks import normalized_costs

    checks = Checks()
    setup = [] if trace else measure_setup(workload, seed)
    runs, tracer, windows, passive = run_studies(workload, seed, seconds, work, trace)
    check_studies(workload, seed, runs, checks)
    for result in passive:
        checks.add(result)

    took = [elapsed for _, _, elapsed in runs]
    cells = sum(len(r.campaign.records) for _, r, _ in runs if r.campaign is not None)
    solves = sum(len(r.sweep.records) for _, r, _ in runs)
    ratios = [v for _, r, _ in runs for v in normalized_costs(r.sweep.records).values()]
    work_done = cells if workload == "study-des" else solves
    attempted = len(runs) + len(checks.results)
    samples = {
        "setup_s": len(setup), "work_per_s": work_done, "job_p50_s": len(took),
        "norm_cost_mean": len(ratios), "ok_ratio": attempted, "peak_rss_mb": 1,
    }
    metrics = {
        "setup_s": median(setup),
        "work_per_s": work_done / sum(took),
        "job_p50_s": median(took),
        "norm_cost_mean": statistics.fmean(ratios) if ratios else 0.0,
        "ok_ratio": 1.0 - checks.failed / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {  # workload-specific metrics: (value, unit, samples)
        "cells_per_s": (cells / sum(took), "1/s", cells),
        "solves_per_s": (solves / sum(took), "1/s", solves),
        "fail_ratio": (checks.failed / attempted, "ratio", attempted),
        "studies": len(runs),
    }
    layers = None
    if trace:
        traced_runs = len(windows)
        layers = layer_metrics(tracer, per=traced_runs)
        layers["simulation.distinct_ratio"] = distinct_ratio(runs)
        for key in ("cells_per_s", "solves_per_s", "fail_ratio"):
            layers[key] = extra[key][0]
        layers["trace.overhead_s"] = sum(
            (t1 - t0) - untraced for t0, t1, untraced in windows
        ) / traced_runs
        layers["trace.unattributed_s"] = sum(
            (t1 - t0) - tracer.covered_seconds(t0, t1) for t0, t1, _ in windows
        ) / traced_runs
        extra["traced_studies"] = traced_runs
        extra["wall_s_per_traced_study"] = sum(t1 - t0 for t0, t1, _ in windows) / traced_runs
    return metrics, samples, extra, layers, tracer, checks, attempted, checks.failed


# --------------------------------------------------------------------------- #
# serve-mixed
# --------------------------------------------------------------------------- #


def serve_report(seed: int, seconds: float, trace: bool, work: Path):
    from bench_service import ServerProcess

    import serve_mixed
    from workloads import SERVE_CHAIN, units_for

    checks = Checks()
    setup, spares = [], []
    server = None
    try:
        for attempt in range(1 if trace else SETUP_REPEATS):
            started = perf_counter()
            server = ServerProcess(
                work / f"server-{attempt}", memo_path=work / f"memo-{attempt}.jsonl",
                **SERVE_FLAGS,
            )
            serve_mixed.wait_healthy(server.base)
            setup.append(perf_counter() - started)
            spares.append(server)
        spares.pop()
        for spare in spares:  # drain the set-up-only servers in parallel ...
            spare.process.terminate()
        for spare in spares:  # ... and start the window once they are gone
            spare.process.wait(timeout=120)
        fresh = units_for("serve-mixed", seconds / 2 if trace else seconds)
        run = serve_mixed.drive(server.base, seed, fresh)
        rss = peak_rss_mb(server.process.pid)
    finally:
        for process in spares + ([server] if server is not None else []):
            if process.process.poll() is None:
                process.terminate()

    verify_serve(seed, run, checks)
    traced = tracer = None
    if trace:
        traced, tracer, window_bounds = serve_traced(seed, fresh, work)
        common = sorted(set(run.results) & set(traced.results))
        from checks import same_records

        for index in common[:SERVE_LOCAL_CHECKS]:
            checks.add(same_records(
                f"serve-{index}: traced in-process results = untraced subprocess results",
                run.results[index], traced.results[index],
            ))

    attempted = run.requests + run.jobs + run.failed_jobs + len(checks.results)
    failed = run.errors + run.failed_jobs + checks.failed
    from checks import normalized_costs

    # the studies of one chain share their sweep, so each chain counts once
    ratios = {}
    for index, (sweep, _) in run.results.items():
        for key, ratio in normalized_costs(sweep).items():
            ratios[(index // SERVE_CHAIN, *key)] = ratio
    samples = {
        "setup_s": len(setup), "work_per_s": len(run.fresh_s), "job_p50_s": len(run.fresh_s),
        "norm_cost_mean": len(ratios), "ok_ratio": attempted, "peak_rss_mb": 1,
    }
    metrics = {
        "setup_s": median(setup),
        "work_per_s": len(run.fresh_s) / run.elapsed,
        "job_p50_s": median(run.fresh_s),
        "norm_cost_mean": statistics.fmean(ratios.values()) if ratios else 0.0,
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": rss,
    }
    submitted = run.counters.get("jobs_submitted", 0)
    attached = run.counters.get("jobs_attached", 0)
    extra = {  # serve-mixed client metrics: (value, unit, samples)
        "jobs_per_s": (run.jobs / run.elapsed, "1/s", run.jobs),
        "job_fresh_p50_s": (median(run.fresh_s), "s", len(run.fresh_s)),
        "job_fresh_p90_s": (quantile(run.fresh_s, 0.9), "s", len(run.fresh_s)),
        "job_repeat_p50_ms": (median(run.repeat_s) * 1e3, "ms", len(run.repeat_s)),
        "poll_p50_ms": (median(run.poll_ms), "ms", len(run.poll_ms)),
        "poll_p99_ms": (quantile(run.poll_ms, 0.99), "ms", len(run.poll_ms)),
        "fail_ratio": (failed / attempted, "ratio", attempted),
        "requests": run.requests,
        "server_memo_hits": run.counters.get("memo_hits", 0),
        "server_memo_misses": run.counters.get("memo_misses", 0),
    }
    layers = None
    if trace:
        layers = layer_metrics(tracer, per=max(traced.jobs, 1))
        for key in ("poll_p50_ms", "poll_p99_ms", "job_fresh_p50_s", "job_fresh_p90_s",
                    "job_repeat_p50_ms", "fail_ratio"):
            layers[key] = extra[key][0]
        layers["service.submit_ms"] = median(run.submit_ms)
        layers["service.results_ms"] = median(run.results_ms)
        layers["service.errors"] = float(run.errors)
        layers["jobs.queue_wait_s"] = median(run.queue_wait_s)
        layers["jobs.exec_s"] = median(run.exec_s)
        layers["jobs.dedup_ratio"] = attached / (submitted + attached) if submitted + attached else 0.0
        t0, t1 = window_bounds
        layers["trace.overhead_s"] = ((t1 - t0) - run.elapsed) / max(traced.jobs, 1)
        layers["trace.unattributed_s"] = ((t1 - t0) - tracer.covered_seconds(t0, t1)) / max(traced.jobs, 1)
        extra["traced_jobs"] = traced.jobs
        extra["traced_poll_p50_ms"] = median(traced.poll_ms)
    return metrics, samples, extra, layers, tracer, checks, attempted, failed


def verify_serve(seed: int, run, checks: Checks) -> None:
    """Sampled fresh jobs equal a local run of the same spec; ILP lowest; re-scores."""
    import numpy as np

    from repro.api import Study

    from checks import ilp_is_lowest, record_dicts, rescored_payloads, same_records
    from workloads import derive, serve_study

    rng = np.random.default_rng(derive(seed, "serve-checks"))
    finished = sorted(run.results)
    if len(finished) < 1:
        checks.add(("serve-mixed: at least one fresh job finished", False, "none"))
        return
    for index in finished:
        checks.add(ilp_is_lowest(f"serve-{index}", run.results[index][0]))
    picks = rng.choice(len(finished), size=min(SERVE_LOCAL_CHECKS, len(finished)), replace=False)
    for position in sorted(int(p) for p in picks):
        index = finished[position]
        spec = serve_study(seed, index)
        local = Study.from_spec(spec).run()
        checks.add(same_records(
            f"serve-{index}: /results = local Study.run", record_dicts(local), run.results[index]
        ))
        checks.add(rescored_payloads(f"serve-{index}", spec.workload, run.results[index][0], rng, 2))


def serve_traced(seed: int, fresh: int, work: Path):
    """The same request stream against an in-process server with tracing on."""
    import threading

    from repro.service import JobManager, ServiceMetrics, StudyService

    import serve_mixed
    import tracing

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    metrics = ServiceMetrics()
    manager = JobManager(
        work / "server-traced", memo_path=work / "memo-traced.jsonl", metrics=metrics,
        **SERVE_FLAGS,
    )
    server = StudyService(("127.0.0.1", 0), manager=manager, metrics=metrics)
    thread = threading.Thread(target=server.serve_forever, name="serve-http", daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.port}"
        serve_mixed.wait_healthy(base)
        t0 = perf_counter()
        run = serve_mixed.drive(base, seed, fresh)
        t1 = perf_counter()
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
        manager.shutdown()
        tracing.uninstall(patches)
        # the job pools started a forkserver and a resource tracker in this
        # process; stop both and wait for them like every other child
        from multiprocessing import forkserver, resource_tracker

        forkserver._forkserver._stop()
        resource_tracker._resource_tracker._stop()
    return run, tracer, (t0, t1)


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #


def layer_metrics(tracer, *, per: int) -> dict:
    """Every per-layer metric from one tracer (0 where a layer did no work)."""
    names = tracer.names()
    counters = tracer.counters()

    def calls(*span_names):
        return float(sum(names.get(n, (0, 0.0, 0.0))[0] for n in span_names))

    def self_s(*span_names):
        return sum(names.get(n, (0, 0.0, 0.0))[2] for n in span_names)

    evaluator = [n for n in names if n.startswith("evaluator.")]
    memo_hits = counters.get("evaluator.memo_hits", 0.0)
    memo_total = memo_hits + counters.get("evaluator.memo_misses", 0.0)
    events = counters.get("simulation.events", 0.0)
    lookups = counters.get("memo.lookups", 0.0)
    values = {
        "api.sweep_s": self_s("api.sweep"),
        "api.validation_s": self_s("api.validation"),
        "api.series_s": self_s("api.series"),
        "generators.configs": counters.get("generators.configs", 0.0),
        "generators.s": self_s("generators.configuration"),
        "evaluator.calls": calls(*evaluator),
        "evaluator.rows": counters.get("evaluator.rows", 0.0),
        "evaluator.s": self_s(*evaluator),
        "evaluator.memo_hit_ratio": memo_hits / memo_total if memo_total else 0.0,
        "simulation.runs": calls("simulation.run"),
        "simulation.s": self_s("simulation.run"),
        "simulation.events": events,
        "simulation.us_per_event": self_s("simulation.run") / events * 1e6 if events else 0.0,
        "simulation.sim_time": counters.get("simulation.sim_time", 0.0),
        "backends.units": counters.get("backends.units", 0.0),
        "backends.first_unit_s": counters.get("backends.first_unit_s", 0.0)
        / max(counters.get("backends.runs", 0.0), 1.0),
        "backends.s": self_s("backends.next"),
        "store.appends": calls("store.append"),
        "store.append_s": self_s("store.append"),
        "store.bytes": counters.get("store.bytes", 0.0),
        "store.init_s": self_s("store.initialize"),
        "memo.lookups": lookups,
        "memo.hit_ratio": counters.get("memo.hits", 0.0) / lookups if lookups else 0.0,
        "memo.lookup_s": self_s("memo.lookup"),
        "memo.puts": counters.get("memo.puts", 0.0),
        "memo.put_s": self_s("memo.put"),
        "memo.load_s": self_s("memo.load"),
        "service.s": self_s("service.dispatch", "service.submit"),
    }
    for alg in ALGORITHMS:
        values[f"solve.{alg}.n"] = calls(f"solve.{alg}")
        values[f"solve.{alg}.s"] = self_s(f"solve.{alg}")
        values[f"solve.{alg}.iters"] = counters.get(f"solve.{alg}.iters", 0.0)
    for name in values:
        if name in NORMALIZED:
            values[name] /= per
    return {name: values.get(name, 0.0) for name in PER_LAYER}


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #


def isolate_stdout(log: Path):
    """Point descriptor 1 at ``log``; return a writer on the original stdout."""
    sys.stdout.flush()
    original = os.dup(1)
    target = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(target, 1)
    os.close(target)
    return os.fdopen(original, "w", buffering=1)


def print_report(out, workload, seed, trace, stamp, metrics, samples, extra, layers, tracer, checks):
    print(f"perfbench {workload} seed={seed} trace={trace}", file=out)
    print("machine: " + " ".join(f"{k}={v}" for k, v in stamp.items()), file=out)
    if not trace:
        print(f"{'metric':<18}{'value':>14}  {'unit':<6}{'samples':>8}", file=out)
        for name, unit in END_TO_END.items():
            print(f"{name:<18}{metrics[name]:>14.6g}  {unit:<6}{samples[name]:>8}", file=out)
    for key, value in extra.items():
        if isinstance(value, tuple):
            print(f"{key:<18}{value[0]:>14.6g}  {value[1]:<6}{value[2]:>8}", file=out)
        elif isinstance(value, float):
            print(f"  {key} = {value:.6g}", file=out)
        else:
            print(f"  {key} = {value}", file=out)
    if trace:
        totals = tracer.layer_self_seconds()
        per = extra.get("traced_studies") or extra.get("traced_jobs") or 1
        print(f"{'layer self time per unit of work':<34}{'s':>12}", file=out)
        for layer, seconds in sorted(totals.items(), key=lambda item: -item[1]):
            print(f"  {layer:<32}{seconds / per:>12.6f}", file=out)
        print(f"  {'(unattributed)':<32}{layers['trace.unattributed_s']:>12.6f}", file=out)
        print(f"  {'(trace overhead)':<32}{layers['trace.overhead_s']:>12.6f}", file=out)
        for name, unit in PER_LAYER.items():
            print(f"  {name:<30}{layers[name]:>14.6g} {unit}", file=out)
    passed = len(checks.results) - checks.failed
    for name, ok, detail in checks.results:
        if not ok or len(checks.results) <= 12:
            print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}", file=out)
    print(f"checks: {passed} passed, {checks.failed} failed", file=out)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("study-des", "sweep-solve", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not (BENCHMARKS / "bench_service.py").is_file():
        print(f"perfbench: the program is missing ({SRC / 'repro'} and "
              f"{BENCHMARKS / 'bench_service.py'} are needed)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCHMARKS), str(HERE)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-{args.trace}-", dir=WORK))
    OUT.mkdir(exist_ok=True)
    # pool workers and the forkserver put their sockets under TMPDIR; keep
    # them in the checkout unless the path would overflow a socket address.
    # The directory is shared, not per run: multiprocessing removes what it
    # put there only at interpreter exit, after the run directory is gone.
    if len(str(WORK / "tmp")) <= 60:
        os.environ["TMPDIR"] = str(WORK / "tmp")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = isolate_stdout(OUT / f"{tag}.native.log")
    try:
        stamp = machine_stamp()
        if args.workload == "serve-mixed":
            report = serve_report(args.seed, args.seconds, bool(args.trace), work)
        else:
            report = studies_report(args.workload, args.seed, args.seconds, bool(args.trace), work)
        metrics, samples, extra, layers, tracer, checks, attempted, failed = report
        print_report(out, args.workload, args.seed, args.trace, stamp, *report[:6])
        if tracer is not None:
            tracer.write(OUT / f"{tag}.spans.jsonl")
        chosen = layers if args.trace else metrics
        units = PER_LAYER if args.trace else END_TO_END
        result = {
            "correct": checks.failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": chosen[name], "unit": unit} for name, unit in units.items()},
        }
        (OUT / f"{tag}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": stamp, "samples": samples, "extra": extra,
            "checks": [list(c) for c in checks.results], "result": result,
        }, indent=2, sort_keys=True) + "\n")
        print(json.dumps(result), file=out)
        return 0 if result["correct"] and failed == 0 else 1
    finally:
        out.flush()
        shutil.rmtree(work, ignore_errors=True)  # after every timed window


if __name__ == "__main__":
    raise SystemExit(main())
