"""Same-run gates: every fast path against its reference, in one process.

Each gate runs a fast path and the reference it replaces back to back on the
same input, requires equal results and applies a minimum speed ratio, so no
verdict rests on a number measured on another machine:

* **H32 descent** (J=50 / Q=20 instance) and **Fig. 3 guard** (small-setting
  configurations): the evaluator-backed steepest descent against a replica
  of the seed scalar loop (one copy + one dense ``evaluate_split`` per
  neighbour); bitwise-identical best costs, and (full mode) >= 5x faster.
  **micro** reports the per-candidate cost of each evaluator tier, ungated;
* **random walks**: H2 and H31 (1000 iterations) on the same Fig. 3
  configurations and the J=50 / Q=20 instance, through the solvers and
  through a replica of the numpy walk they replaced (``rng.choice`` of the
  loaded recipes, ``_snap_ceil`` over each pair's type mask); per solve a
  bitwise-identical best split, best cost and iteration count, and (full
  mode) the solvers >= 1.5x faster;
* **exact units**: the ILP cells of sweep-solve-sized units (medium setting,
  five throughputs each) through ``run_configuration``, which solves a unit's
  ILP cells side by side on threads, and through a replica of the loop that
  solved them one at a time in the calling thread; equal splits and costs,
  and (full mode, >= 2 usable CPUs) the threaded run >= 1.5x faster;
* **DES engine**: every cell of a scenario campaign through ``StreamSimulator``
  with ``engine="fast"`` and ``"reference"``; equal reports once the fast
  engine's ``event_counters`` are stripped, and the fast engine >= 2x faster;
* **pool**: the same campaign serially, then on a 2-worker
  ``ProcessPoolBackend`` warmed by a one-unit run (``pool_spinup_seconds``);
  byte-identical records, and on >= 2 CPUs a speedup >= 1.0.

The exit code is the verdict; the report goes to ``--out`` (default
``BENCH_fastpaths.json`` here, ignored by git)::

    PYTHONPATH=src python benchmarks/bench_fastpaths.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core import MinCostProblem
from repro.core.evaluator import _snap_ceil
from repro.experiments.backends import ProcessPoolBackend
from repro.experiments.config import AlgorithmSpec, default_plan
from repro.experiments.runner import _usable_cpus, run_configuration, run_plan
from repro.experiments.validation import (
    CampaignResult,
    ValidationPlan,
    _ExecutionContext,
    plan_from_sweep,
    plan_validation_units,
    run_validation,
    scenario_seed,
)
from repro.generators.workload import generate_configuration, get_setting
from repro.heuristics import (
    H2RandomWalkSolver,
    H31StochasticDescentSolver,
    H32SteepestGradientSolver,
    best_single_recipe_split,
    steepest_descent,
)
from repro.heuristics.neighborhood import all_exchanges, exchange_move_arrays
from repro.simulation import (
    BurstyArrivals,
    FailureWindow,
    PoissonArrivals,
    ScenarioSpec,
    StreamSimulator,
)
from repro.solvers import MilpSolver

J_LARGE = 50
Q_LARGE = 20
RHO_LARGE = 100.0
DELTA = 10.0
POOL_WORKERS = 2
#: The throughputs of one sweep-solve work unit (perfbench's sweep studies).
EXACT_THROUGHPUTS = (20.0, 60.0, 100.0, 140.0, 180.0)


# --------------------------------------------------------------------------- #
# instance construction
# --------------------------------------------------------------------------- #


def make_large_instance(seed: int = 0) -> MinCostProblem:
    """A J=50 / Q=20 shared-types instance (the acceptance-criteria scale)."""
    from repro.core import Application, CloudPlatform

    rng = np.random.default_rng(seed)
    sequences = [
        [int(t) for t in rng.integers(1, Q_LARGE + 1, size=int(rng.integers(4, 9)))]
        for _ in range(J_LARGE)
    ]
    app = Application.from_type_sequences(sequences, name="bench-large")
    rows = [
        (t, int(rng.integers(5, 40)), int(rng.integers(1, 100)))
        for t in range(1, Q_LARGE + 1)
    ]
    platform = CloudPlatform.from_table(rows, name="bench-cloud")
    return MinCostProblem(app, platform, target_throughput=RHO_LARGE, name="bench-large")


# --------------------------------------------------------------------------- #
# the seed scalar path, preserved verbatim as the comparison baseline
# --------------------------------------------------------------------------- #


def seed_steepest_descent(
    problem: MinCostProblem,
    start: np.ndarray,
    start_cost: float,
    delta: float,
    max_rounds: int,
) -> tuple[np.ndarray, float, int]:
    """The pre-engine H32 inner loop: O(J) copy + dense matvec per neighbour."""
    current = start.copy()
    current_cost = start_cost
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        best_candidate = None
        best_candidate_cost = current_cost
        for candidate, _src, _dst in all_exchanges(current, delta):
            cost = problem.evaluate_split(candidate)
            if cost < best_candidate_cost - 1e-12:
                best_candidate_cost = cost
                best_candidate = candidate
        if best_candidate is None:
            break
        current = best_candidate
        current_cost = best_candidate_cost
    return current, current_cost, rounds


class SeedIncrementalEvaluator:
    """The numpy incremental tier the scalar one replaced, memo included.

    Each exchange gathers its pair's type mask, snaps with ``_snap_ceil`` and
    sums with ``ndarray.sum``; the memo is keyed on the candidate's bytes and
    cleared when full, as ``problem.evaluator``'s is.  ``pairs`` is the
    problem's pair-mask cache, shared by its walks as the clones of
    ``problem.evaluator`` share theirs.
    """

    def __init__(self, problem: MinCostProblem, pairs: dict, memo_capacity: int = 1 << 16) -> None:
        self.counts = np.asarray(problem.counts, dtype=float)
        self.inv_rates = 1.0 / np.asarray(problem.rates, dtype=float)
        self.costs = np.asarray(problem.costs, dtype=float)
        self.memo: dict[bytes, float] = {}
        self.memo_capacity = memo_capacity
        self.pairs = pairs

    def reset(self, split: np.ndarray) -> None:
        self.split = np.array(split, dtype=float)
        self.loads = self.split @ self.counts
        self.type_cost = _snap_ceil(self.loads * self.inv_rates) * self.costs
        self.cost = float(self.type_cost.sum())

    def _exchange(self, src: int, dst: int, moved: float):
        pair = self.pairs.get((src, dst))
        if pair is None:
            idx = np.union1d(np.flatnonzero(self.counts[src]), np.flatnonzero(self.counts[dst]))
            pair = self.pairs[(src, dst)] = (idx, self.counts[dst, idx] - self.counts[src, idx])
        idx, diff = pair
        new_loads = self.loads[idx] + moved * diff
        return idx, new_loads, _snap_ceil(new_loads * self.inv_rates[idx]) * self.costs[idx]

    def score_exchange(self, src: int, dst: int, delta: float) -> float:
        moved = min(float(delta), float(self.split[src])) if src != dst else 0.0
        if moved <= 0.0:
            return self.cost
        candidate = self.split.copy()
        candidate[src] -= moved
        candidate[dst] += moved
        key = candidate.tobytes()
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        idx, _, new_type_cost = self._exchange(src, dst, moved)
        cost = float(self.cost - self.type_cost[idx].sum() + new_type_cost.sum())
        if len(self.memo) >= self.memo_capacity:
            self.memo.clear()
        self.memo[key] = cost
        return cost

    def apply_exchange(self, src: int, dst: int, delta: float) -> float:
        moved = min(float(delta), float(self.split[src])) if src != dst else 0.0
        if moved <= 0.0:
            return self.cost
        idx, new_loads, new_type_cost = self._exchange(src, dst, moved)
        self.split[src] -= moved
        self.split[dst] += moved
        self.loads[idx] = new_loads
        self.type_cost[idx] = new_type_cost
        self.cost = float(self.type_cost.sum())
        return self.cost


def seed_random_move(split: np.ndarray, delta: float, rng: np.random.Generator):
    """The numpy random move: ``rng.choice`` over ``np.flatnonzero(split > 0)``."""
    n = split.size
    if n < 2:
        return 0, 0
    loaded = np.flatnonzero(split > 0)
    if loaded.size == 0:
        return 0, 0
    src = int(rng.choice(loaded))
    dst = int(rng.integers(n - 1))
    return src, dst + 1 if dst >= src else dst


def seed_random_walk(
    problem: MinCostProblem, solver: H2RandomWalkSolver | H31StochasticDescentSolver, pairs: dict
) -> tuple[np.ndarray, float, int]:
    """H2 or H31 as they walked on the numpy tier: (best split, best cost, iterations)."""
    rng = np.random.default_rng(solver.seed)
    start, _, start_cost = best_single_recipe_split(problem)
    delta = solver.effective_delta(problem)
    descent = isinstance(solver, H31StochasticDescentSolver)
    evaluator = SeedIncrementalEvaluator(problem, pairs)
    evaluator.reset(start)
    current_cost = best_cost = start_cost
    best_split = start.copy()
    stale = performed = 0
    for _ in range(solver.iterations):
        performed += 1
        src, dst = seed_random_move(evaluator.split, delta, rng)
        if not descent:
            cost = evaluator.apply_exchange(src, dst, delta)
            if cost < best_cost:
                best_cost, best_split = cost, evaluator.split.copy()
            continue
        cost = evaluator.score_exchange(src, dst, delta)
        if cost < current_cost:
            evaluator.apply_exchange(src, dst, delta)
            current_cost = cost
            if cost < best_cost:
                best_cost, best_split, stale = cost, evaluator.split.copy(), 0
            else:
                stale += 1
        else:
            stale += 1
        if solver.patience is not None and stale >= solver.patience:
            break
    return best_split, best_cost, performed


def seed_exact_unit(configuration, throughputs) -> list[tuple]:
    """A unit's ILP cells as the runner solved them before: in order, in this thread."""
    out = []
    for rho in throughputs:
        result = MilpSolver().solve(configuration.problem(rho), check=False)
        out.append((tuple(float(v) for v in result.split.values), float(result.cost)))
    return out


# --------------------------------------------------------------------------- #
# measurements
# --------------------------------------------------------------------------- #


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best = np.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_h32_descent(problem: MinCostProblem, repeats: int) -> dict:
    start, _, start_cost = best_single_recipe_split(problem)

    seed_time, seed_out = _best_of(
        lambda: seed_steepest_descent(problem, start, start_cost, DELTA, 1000), repeats
    )
    engine_time, engine_out = _best_of(
        lambda: steepest_descent(problem, start, start_cost, DELTA, 1000), repeats
    )
    _, seed_cost, seed_rounds = seed_out
    _, engine_cost, engine_rounds = engine_out
    identical = seed_cost == engine_cost and seed_rounds == engine_rounds
    return {
        "instance": {"J": problem.num_recipes, "Q": problem.num_types, "rho": problem.rho},
        "seed_scalar_seconds": seed_time,
        "engine_seconds": engine_time,
        "speedup": seed_time / engine_time if engine_time > 0 else float("inf"),
        "rounds": engine_rounds,
        "best_cost": engine_cost,
        "best_cost_identical": identical,
    }


def bench_micro(problem: MinCostProblem, repeats: int) -> dict:
    # A split spread over every recipe gives the full O(J^2) neighbourhood.
    rng = np.random.default_rng(42)
    weights = rng.dirichlet(np.ones(problem.num_recipes))
    start = np.floor(weights * problem.rho)
    start[0] += problem.rho - start.sum()
    start = np.maximum(start, 1.0)
    # A memo-free evaluator isolates the incremental tier from cache effects;
    # one warmup pass builds the per-pair sparse masks outside the timing.
    from repro.core import SplitEvaluator

    evaluator = SplitEvaluator.from_problem(problem)
    evaluator.reset(start)
    srcs, dsts, moveds = exchange_move_arrays(start, DELTA)
    neighbourhood = int(srcs.size)
    for k in range(neighbourhood):
        evaluator.score_exchange(int(srcs[k]), int(dsts[k]), DELTA)

    def scalar_pass():
        for candidate, _s, _d in all_exchanges(start, DELTA):
            problem.evaluate_split(candidate)

    def incremental_pass():
        for k in range(neighbourhood):
            evaluator.score_exchange(int(srcs[k]), int(dsts[k]), DELTA)

    def batched_pass():
        evaluator.score_exchanges(srcs, dsts, moveds)

    scalar_t, _ = _best_of(scalar_pass, repeats)
    incremental_t, _ = _best_of(incremental_pass, repeats)
    batched_t, _ = _best_of(batched_pass, repeats)
    per = lambda t: t / neighbourhood if neighbourhood else float("nan")
    return {
        "neighbourhood_size": neighbourhood,
        "scalar_us_per_candidate": per(scalar_t) * 1e6,
        "incremental_us_per_candidate": per(incremental_t) * 1e6,
        "batched_us_per_candidate": per(batched_t) * 1e6,
        "incremental_speedup": scalar_t / incremental_t if incremental_t > 0 else float("inf"),
        "batched_speedup": scalar_t / batched_t if batched_t > 0 else float("inf"),
    }


def fig3_problems(num_configurations: int, throughputs: tuple[float, ...]):
    """The Fig. 3 (small setting) configurations at each throughput."""
    setting = get_setting("small")
    for index in range(num_configurations):
        config = generate_configuration(setting, seed=1000 + index, index=index)
        for rho in throughputs:
            yield index, rho, config.problem(rho)


def check_fig3_costs(num_configurations: int, throughputs: tuple[float, ...]) -> dict:
    """Seed-path vs engine-path H32 best costs on Fig. 3 (small) configurations."""
    checked, mismatches = 0, []
    for index, rho, problem in fig3_problems(num_configurations, throughputs):
        start, _, start_cost = best_single_recipe_split(problem)
        delta = H32SteepestGradientSolver(delta=10).effective_delta(problem)
        _, seed_cost, _ = seed_steepest_descent(problem, start, start_cost, delta, 1000)
        _, engine_cost, _ = steepest_descent(problem, start, start_cost, delta, 1000)
        checked += 1
        if seed_cost != engine_cost:
            mismatches.append({"config": index, "rho": rho,
                               "seed": seed_cost, "engine": engine_cost})
    return {"checked": checked, "mismatches": mismatches,
            "bitwise_identical": not mismatches}


def bench_random_walks(problems: list[tuple[str, MinCostProblem]], repeats: int) -> dict:
    """H2 and H31 through the solvers and through the numpy walk replica."""
    solves = [
        (label, problem, solver_cls(iterations=1000, seed=seed))
        for seed, (label, problem) in enumerate(problems)
        for solver_cls in (H2RandomWalkSolver, H31StochasticDescentSolver)
    ]
    solver_time, results = _best_of(
        lambda: [solver.solve(problem) for _, problem, solver in solves], repeats
    )
    pairs = {label: {} for label, _ in problems}
    seed_time, seed_results = _best_of(
        lambda: [seed_random_walk(problem, solver, pairs[label])
                 for label, problem, solver in solves],
        repeats,
    )
    mismatches = []
    for (label, _, solver), result, (split, cost, iterations) in zip(
        solves, results, seed_results
    ):
        if not (
            np.array(result.split.values).tobytes() == split.tobytes()
            and np.float64(result.cost).tobytes() == np.float64(cost).tobytes()
            and result.iterations == iterations
        ):
            mismatches.append({"problem": label, "algorithm": solver.name,
                               "cost": result.cost, "seed_cost": cost,
                               "iterations": result.iterations, "seed_iterations": iterations})
    return {
        "solves": len(solves),
        "seed_seconds": seed_time,
        "solver_seconds": solver_time,
        "speedup": seed_time / solver_time if solver_time > 0 else float("inf"),
        "mismatches": mismatches,
        "bitwise_identical": not mismatches,
    }


def bench_exact_units(num_configurations: int, repeats: int) -> dict:
    """Sweep-solve-sized units of ILP cells: threaded runner vs one at a time."""
    setting = get_setting("medium")
    configurations = [generate_configuration(setting, seed=2000 + index, index=index)
                      for index in range(num_configurations)]
    ilp = [AlgorithmSpec("ILP")]
    # the first solve imports scipy: keep it out of both timings
    seed_exact_unit(configurations[0], EXACT_THROUGHPUTS[:1])

    def threaded() -> list[tuple]:
        return [(record.allocation.split, record.cost)
                for configuration in configurations
                for record in run_configuration(configuration, ilp, EXACT_THROUGHPUTS,
                                                capture_allocations=True)]

    seed_time, seed_out = _best_of(
        lambda: [cell for configuration in configurations
                 for cell in seed_exact_unit(configuration, EXACT_THROUGHPUTS)],
        repeats,
    )
    threaded_time, threaded_out = _best_of(threaded, repeats)
    width = min(len(EXACT_THROUGHPUTS), _usable_cpus())
    return {
        "solves": len(seed_out),
        "usable_cpus": _usable_cpus(),
        "threads": width if width >= 2 else 0,
        "seed_seconds": seed_time,
        "threaded_seconds": threaded_time,
        "speedup": seed_time / threaded_time if threaded_time > 0 else float("inf"),
        "identical": threaded_out == seed_out,
    }


# --------------------------------------------------------------------------- #
# the scenario campaign: DES engine and process pool
# --------------------------------------------------------------------------- #


def build_campaign(smoke: bool) -> ValidationPlan:
    """A captured sweep over Poisson and bursty+slowdown+failure scenarios.

    32 simulations in smoke mode, 512 in full mode.
    """
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


def record_lines(campaign: CampaignResult) -> list[str]:
    """Canonical JSONL line of every record -- the byte-identity criterion."""
    return [json.dumps(r.as_dict(), sort_keys=True, separators=(",", ":"))
            for r in campaign.records]


def bench_des_engine(plan: ValidationPlan, repeats: int) -> dict:
    """Every campaign cell through the fast and the reference engine."""
    context = _ExecutionContext(plan)
    cells = list(itertools.product(
        range(len(plan.sources)), plan.horizons, plan.rate_multipliers, plan.scenarios
    ))

    def replay(engine: str) -> list:
        reports = []
        for index, horizon, multiplier, scenario in cells:
            source = plan.sources[index]
            report = StreamSimulator(
                context.problem(source),
                context.allocation(index),
                arrival_rate=source.rho * multiplier,
                warmup_fraction=plan.warmup_fraction,
                scenario=scenario,
                seed=scenario_seed(plan.sweep_plan.base_seed, source, scenario),
                engine=engine,
            ).run(horizon=horizon, max_datasets=plan.max_datasets)
            # the counters instrument the fast event core; the reference
            # loop carries none, and they are never record content
            report.metadata.pop("event_counters", None)
            reports.append(report)
        return reports

    fast_time, fast = _best_of(lambda: replay("fast"), repeats)
    reference_time, reference = _best_of(lambda: replay("reference"), repeats)
    return {
        "cells": len(cells),
        "fast_seconds": fast_time,
        "reference_seconds": reference_time,
        "speedup": reference_time / fast_time if fast_time > 0 else float("inf"),
        "reports_identical": fast == reference,
    }


def bench_pool(plan: ValidationPlan) -> dict:
    """The campaign serially, then on a warm process pool."""
    t0 = time.perf_counter()
    serial = run_validation(plan)
    serial_seconds = time.perf_counter() - t0

    # the first pool run starts the forkserver and the workers whatever it
    # runs: time that on one work unit; the campaign below reuses that pool
    t0 = time.perf_counter()
    for _ in ProcessPoolBackend(POOL_WORKERS).run(plan, plan_validation_units(plan)[:1]):
        pass
    pool_spinup_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_validation(plan, backend=ProcessPoolBackend(POOL_WORKERS))
    parallel_seconds = time.perf_counter() - t0
    return {
        "workers": POOL_WORKERS,
        "simulations": plan.num_simulations,
        "serial_seconds": serial_seconds,
        "pool_spinup_seconds": pool_spinup_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds if parallel_seconds > 0 else float("inf"),
        "records_identical": record_lines(parallel) == record_lines(serial),
    }


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #


def run(smoke: bool = False) -> dict:
    repeats = 1 if smoke else 3
    problem = make_large_instance(seed=0)
    fig3 = {
        "num_configurations": 1 if smoke else 3,
        "throughputs": (40.0, 70.0) if smoke else (20.0, 40.0, 70.0, 100.0),
    }
    walk_problems = [(f"fig3-{index}-rho{rho:g}", small)
                     for index, rho, small in fig3_problems(**fig3)]
    walk_problems.append((f"J{J_LARGE}-Q{Q_LARGE}", problem))
    report = {
        "benchmark": "fastpaths",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "h32_descent": bench_h32_descent(problem, repeats),
        "micro": bench_micro(problem, repeats),
        "fig3_equivalence": check_fig3_costs(**fig3),
        "random_walks": bench_random_walks(walk_problems, repeats),
        "exact_units": bench_exact_units(2 if smoke else 4, repeats),
    }
    plan = build_campaign(smoke)
    # the pool gate runs the campaign's first simulations in this process, as
    # it did when its 1.0 bound was set
    report["pool"] = bench_pool(plan)
    report["des_engine"] = bench_des_engine(plan, repeats)
    return report


def verdict(report: dict) -> list[str]:
    """One line per failed gate; empty when every gate passes."""
    failures = []
    descent, engine, pool = report["h32_descent"], report["des_engine"], report["pool"]
    if not (descent["best_cost_identical"] and report["fig3_equivalence"]["bitwise_identical"]):
        failures.append("engine results diverge from the seed scalar path")
    if not report["smoke"] and descent["speedup"] < 5.0:
        failures.append(f"H32 speedup {descent['speedup']:.1f}x below the 5x target")
    walks = report["random_walks"]
    if not walks["bitwise_identical"]:
        failures.append(f"H2/H31 diverge from the numpy walk on {len(walks['mismatches'])} "
                        f"of {walks['solves']} solves")
    if not report["smoke"] and walks["speedup"] < 1.5:
        failures.append(f"H2/H31 speedup {walks['speedup']:.2f}x below the 1.5x target")
    exact = report["exact_units"]
    if not exact["identical"]:
        failures.append("threaded ILP units give other splits or costs than one at a time")
    # threads can only overlap where the process may use two CPUs
    if not report["smoke"] and exact["usable_cpus"] >= 2 and exact["speedup"] < 1.5:
        failures.append(f"threaded ILP units only {exact['speedup']:.2f}x faster than one "
                        f"at a time (fail below 1.50x)")
    if not engine["reports_identical"]:
        failures.append("fast-engine reports differ from the reference engine's")
    if engine["speedup"] < 2.0:
        failures.append(f"fast engine only {engine['speedup']:.2f}x faster than the "
                        f"reference engine (fail below 2.00x)")
    if not pool["records_identical"]:
        failures.append("pool campaign records differ from the serial run's")
    # only where there is parallel hardware can the pool beat serial; on one
    # CPU the check would measure scheduler noise
    if (report["cpu_count"] or 1) >= 2 and pool["speedup"] < 1.0:
        failures.append(f"the warm pool is slower than serial ({pool['speedup']:.2f}x) "
                        f"despite {report['cpu_count']} CPUs")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes for CI")
    parser.add_argument(
        "--out", type=Path, default=Path(__file__).parent / "BENCH_fastpaths.json"
    )
    args = parser.parse_args(argv)
    report = run(smoke=args.smoke)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    descent = report["h32_descent"]
    print(f"H32 descent  seed={descent['seed_scalar_seconds']:.4f}s  "
          f"engine={descent['engine_seconds']:.4f}s  "
          f"speedup={descent['speedup']:.1f}x  "
          f"identical_cost={descent['best_cost_identical']}")
    micro = report["micro"]
    print(f"micro ({micro['neighbourhood_size']} candidates)  "
          f"scalar={micro['scalar_us_per_candidate']:.2f}us  "
          f"incremental={micro['incremental_us_per_candidate']:.2f}us  "
          f"batched={micro['batched_us_per_candidate']:.3f}us")
    fig3 = report["fig3_equivalence"]
    print(f"fig3 equivalence  checked={fig3['checked']}  "
          f"bitwise_identical={fig3['bitwise_identical']}")
    walks = report["random_walks"]
    print(f"random walks ({walks['solves']} H2/H31 solves)  seed={walks['seed_seconds']:.3f}s"
          f"  solvers={walks['solver_seconds']:.3f}s  speedup={walks['speedup']:.2f}x  "
          f"bitwise_identical={walks['bitwise_identical']}")
    exact = report["exact_units"]
    print(f"exact units ({exact['solves']} ILP solves, {exact['threads']} threads)  "
          f"one-at-a-time={exact['seed_seconds']:.2f}s  threaded={exact['threaded_seconds']:.2f}s"
          f"  speedup={exact['speedup']:.2f}x  identical={exact['identical']}")
    engine = report["des_engine"]
    print(f"DES engine ({engine['cells']} cells)  reference={engine['reference_seconds']:.2f}s"
          f"  fast={engine['fast_seconds']:.2f}s  speedup={engine['speedup']:.2f}x  "
          f"identical_reports={engine['reports_identical']}")
    pool = report["pool"]
    print(f"pool ({pool['simulations']} simulations)  serial={pool['serial_seconds']:.2f}s  "
          f"spin-up={pool['pool_spinup_seconds']:.2f}s  parallel[{pool['workers']}]="
          f"{pool['parallel_seconds']:.2f}s  speedup={pool['speedup']:.2f}x  "
          f"identical_records={pool['records_identical']}")
    print(f"report written to {args.out}")

    failures = verdict(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
