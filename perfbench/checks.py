"""Output checks: every workload's results are verified outside the timed window.

Each check returns ``(name, ok, detail)``.  A failed check counts as a failed
operation and makes the benchmark exit non-zero.
"""

from __future__ import annotations

import json
import math

from bench_service import campaign_lines, sweep_identity_lines
from repro.experiments.runner import RunRecord
from repro.experiments.validation import AllocationSource, scenario_seed
from repro.generators.workload import generate_configuration_at
from repro.simulation import StreamSimulator

#: Relative tolerance for re-scored costs: the slow-path reference sums in a
#: different order than the evaluator tiers the solvers score with.
COST_RTOL = 1e-9


def _records(sweep) -> list:
    return [r if isinstance(r, RunRecord) else RunRecord.from_dict(r) for r in sweep]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=COST_RTOL, abs_tol=COST_RTOL)


def normalized_costs(sweep) -> dict:
    """(configuration, rho, algorithm) -> heuristic cost / ILP cost at that point."""
    records = _records(sweep)
    ilp = {(r.configuration, r.rho): r.cost for r in records if r.algorithm == "ILP"}
    return {
        (r.configuration, r.rho, r.algorithm): r.cost / ilp[(r.configuration, r.rho)]
        for r in records
        if r.algorithm != "ILP" and (r.configuration, r.rho) in ilp
    }


def ilp_is_lowest(label: str, sweep) -> tuple:
    """The exact solver's cost is at most every heuristic's at each point."""
    records = _records(sweep)
    ilp = {(r.configuration, r.rho): r.cost for r in records if r.algorithm == "ILP"}
    worse = [
        f"{r.algorithm}@({r.configuration},{r.rho:g}) {r.cost:g} < ILP {ilp[(r.configuration, r.rho)]:g}"
        for r in records
        if (r.configuration, r.rho) in ilp
        and r.cost < ilp[(r.configuration, r.rho)] and not _close(r.cost, ilp[(r.configuration, r.rho)])
    ]
    missing = len({(r.configuration, r.rho) for r in records}) - len(ilp)
    ok = not worse and missing == 0 and bool(ilp)
    detail = "; ".join(worse[:3]) or (f"{missing} points without an ILP record" if missing else f"{len(ilp)} points")
    return (f"{label}: ILP cost <= every heuristic", ok, detail)


def rescored_payloads(label: str, workload, sweep, rng, count: int = 8) -> tuple:
    """A sample of captured allocations re-scored by ``MinCostProblem.evaluate_split``."""
    records = [r for r in _records(sweep) if r.allocation is not None]
    if not records:
        return (f"{label}: payload re-score", False, "no captured allocations")
    picks = rng.choice(len(records), size=min(count, len(records)), replace=False)
    bad = []
    for position in sorted(int(p) for p in picks):
        record = records[position]
        problem = generate_configuration_at(
            workload.setting, base_seed=workload.base_seed, index=record.configuration
        ).problem(record.rho)
        cost = problem.evaluate_split(record.allocation.split)
        if not (_close(cost, record.cost) and _close(cost, record.allocation.cost)):
            bad.append(f"{record.algorithm}@({record.configuration},{record.rho:g}) "
                       f"re-scored {cost!r} vs recorded {record.cost!r}")
    return (f"{label}: payload re-score", not bad, "; ".join(bad[:3]) or f"{len(picks)} sampled")


def reference_replay(label: str, spec, result, rng, count: int = 4) -> tuple:
    """A sample of campaign cells replayed through the reference DES engine."""
    workload, validation = spec.workload, spec.validation
    payloads = {(r.configuration, r.rho, r.algorithm): r.allocation for r in result.sweep.records}
    scenarios = {scenario.name: scenario for scenario in validation.scenarios}
    records = result.campaign.records
    picks = rng.choice(len(records), size=min(count, len(records)), replace=False)
    bad = []
    for position in sorted(int(p) for p in picks):
        record = records[position]
        payload = payloads[(record.configuration, record.rho, record.algorithm)]
        source = AllocationSource(record.configuration, record.rho, record.algorithm, payload)
        scenario = scenarios[record.scenario]
        problem = generate_configuration_at(
            workload.setting, base_seed=workload.base_seed, index=record.configuration
        ).problem(record.rho)
        report = StreamSimulator(
            problem,
            payload.to_allocation(),
            arrival_rate=record.rho * record.rate_multiplier,
            warmup_fraction=validation.warmup_fraction,
            scenario=scenario,
            seed=scenario_seed(workload.base_seed, source, scenario),
            engine="reference",
        ).run(horizon=record.horizon, max_datasets=validation.max_datasets)
        expected = {
            "arrival_rate": report.target_throughput,
            "arrivals": report.arrivals,
            "completed": report.completed,
            "achieved_throughput": report.achieved_throughput,
            "throughput_ratio": report.throughput_ratio,
            "mean_latency": report.mean_latency,
            "max_latency": report.max_latency,
            "utilization": sorted(report.utilization.items(), key=repr),
            "reorder_buffer_peak": report.reorder_buffer_peak,
            "backlog": report.backlog,
            "peak_in_flight": int(report.metadata.get("peak_in_flight", 0)),
        }
        seen = {key: getattr(record, key) for key in expected if key != "utilization"}
        seen["utilization"] = sorted(record.utilization, key=repr)
        if json.dumps(expected, sort_keys=True, default=list) != json.dumps(
            seen, sort_keys=True, default=list
        ):
            bad.append(f"{record.algorithm}@({record.configuration},{record.rho:g}) "
                       f"h={record.horizon:g} x{record.rate_multiplier:g} {record.scenario}")
    return (f"{label}: fast engine = reference engine", not bad,
            "; ".join(bad[:3]) or f"{len(picks)} cells replayed")


def same_records(label: str, first, second) -> tuple:
    """Two results of one spec agree: sweep identities and campaign lines."""
    first_sweep, first_campaign = first
    second_sweep, second_campaign = second
    ok = sweep_identity_lines(first_sweep) == sweep_identity_lines(second_sweep) and (
        campaign_lines(first_campaign) == campaign_lines(second_campaign)
    )
    return (label, ok, f"{len(first_sweep)} sweep + {len(first_campaign)} campaign records")


def record_dicts(result) -> tuple:
    """A StudyResult's records in the /results payload form."""
    campaign = [] if result.campaign is None else result.campaign.records
    return [r.as_dict() for r in result.sweep.records], [r.as_dict() for r in campaign]
