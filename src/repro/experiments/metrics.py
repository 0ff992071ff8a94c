"""Aggregation metrics for the experiment sweeps.

Three quantities are reported in the paper's figures:

* *normalised cost* (Figures 3, 6, 7): for each (configuration, throughput),
  the cost of every heuristic is divided by the optimal (ILP) cost; the figure
  plots ``optimal / heuristic`` so the optimum is 1.0 and heuristics are below.
  We follow the same convention so the curves read identically.
* *best count* (Figure 4): for each throughput, the number of configurations
  (out of 100) where each algorithm's cost equals the best cost found by any
  algorithm on that configuration.
* *mean computation time* (Figures 5 and 8), in seconds, per throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .runner import SweepResult

__all__ = [
    "SeriesByAlgorithm",
    "normalized_cost_series",
    "best_count_series",
    "mean_time_series",
    "mean_cost_series",
    "SERIES",
]


@dataclass
class SeriesByAlgorithm:
    """One curve per algorithm over the throughput axis (a paper figure)."""

    throughputs: list[float]
    series: Mapping[str, list[float]]
    ylabel: str
    title: str = ""

    def as_rows(self) -> list[list[str]]:
        """Rows (throughput + one column per algorithm) for text rendering."""
        header = ["rho", *self.series.keys()]
        rows = [header]
        for i, rho in enumerate(self.throughputs):
            row = [f"{rho:g}"]
            for name in self.series:
                value = self.series[name][i]
                row.append("nan" if value is None or np.isnan(value) else f"{value:.4g}")
            rows.append(row)
        return rows


def _reference_costs(result: SweepResult, reference: str) -> dict[tuple[int, float], float]:
    """Cost of the reference algorithm per (configuration, throughput).

    Keys use the sweep's canonical throughput values so lookups stay correct
    for records whose float rho drifted within tolerance (e.g. after a
    serialisation round-trip).
    """
    refs: dict[tuple[int, float], float] = {}
    for record in result.filter(algorithm=reference):
        refs[(record.configuration, result.canonical_rho(record.rho))] = record.cost
    return refs


def _best_costs(result: SweepResult) -> dict[tuple[int, float], float]:
    """Best cost over all algorithms per (configuration, throughput)."""
    best: dict[tuple[int, float], float] = {}
    for record in result.records:
        key = (record.configuration, result.canonical_rho(record.rho))
        if key not in best or record.cost < best[key]:
            best[key] = record.cost
    return best


def normalized_cost_series(
    result: SweepResult, *, reference: str = "ILP", algorithms: Sequence[str] | None = None
) -> SeriesByAlgorithm:
    """Mean of ``reference_cost / algorithm_cost`` per throughput (Figures 3/6/7).

    With this convention the reference algorithm sits at 1.0 and a heuristic
    that is 5 % more expensive than the optimum reads ~0.95, matching the
    y-axis of the paper's figures.
    """
    algorithms = list(algorithms or result.algorithms())
    refs = _reference_costs(result, reference)
    throughputs = result.throughputs()
    series: dict[str, list[float]] = {name: [] for name in algorithms}
    for rho in throughputs:
        for name in algorithms:
            ratios = []
            for record in result.filter(algorithm=name, rho=rho):
                ref = refs.get((record.configuration, result.canonical_rho(record.rho)))
                if ref is None or record.cost <= 0:
                    continue
                ratios.append(ref / record.cost)
            series[name].append(float(np.mean(ratios)) if ratios else float("nan"))
    return SeriesByAlgorithm(
        throughputs=throughputs,
        series=series,
        ylabel=f"normalised cost ({reference} / algorithm)",
        title=f"Normalisation of cost with the {reference} solution",
    )


def best_count_series(
    result: SweepResult, *, algorithms: Sequence[str] | None = None, tolerance: float = 1e-9
) -> SeriesByAlgorithm:
    """Number of configurations where each algorithm matches the best cost (Figure 4)."""
    algorithms = list(algorithms or result.algorithms())
    best = _best_costs(result)
    throughputs = result.throughputs()
    series: dict[str, list[float]] = {name: [] for name in algorithms}
    for rho in throughputs:
        for name in algorithms:
            count = 0
            for record in result.filter(algorithm=name, rho=rho):
                key = (record.configuration, result.canonical_rho(record.rho))
                if record.cost <= best[key] + tolerance:
                    count += 1
            series[name].append(float(count))
    return SeriesByAlgorithm(
        throughputs=throughputs,
        series=series,
        ylabel="number of times the algorithm finds the best solution",
        title="Number of times each algorithm finds the best solution",
    )


def mean_time_series(
    result: SweepResult, *, algorithms: Sequence[str] | None = None
) -> SeriesByAlgorithm:
    """Mean wall-clock time per throughput (Figures 5 and 8), in seconds.

    An ILP time may have been measured while other ILP cells of its unit
    solved beside it (see :func:`~repro.experiments.runner.run_configuration`).
    """
    algorithms = list(algorithms or result.algorithms())
    throughputs = result.throughputs()
    series: dict[str, list[float]] = {name: [] for name in algorithms}
    for rho in throughputs:
        for name in algorithms:
            times = result.times_by(name, rho)
            series[name].append(float(times.mean()) if times.size else float("nan"))
    return SeriesByAlgorithm(
        throughputs=throughputs,
        series=series,
        ylabel="mean computation time (s)",
        title="Computation time of the algorithms",
    )


def mean_cost_series(
    result: SweepResult, *, algorithms: Sequence[str] | None = None
) -> SeriesByAlgorithm:
    """Mean absolute cost per throughput (used by the ablation benches)."""
    algorithms = list(algorithms or result.algorithms())
    throughputs = result.throughputs()
    series: dict[str, list[float]] = {name: [] for name in algorithms}
    for rho in throughputs:
        for name in algorithms:
            costs = result.costs_by(name, rho)
            series[name].append(float(costs.mean()) if costs.size else float("nan"))
    return SeriesByAlgorithm(
        throughputs=throughputs,
        series=series,
        ylabel="mean cost",
        title="Mean rental cost",
    )


#: Named series aggregations selectable by a :class:`~repro.experiments.spec.
#: StudySpec` (its ``series`` field) and by the figure definitions.
SERIES = {
    "normalized_cost": normalized_cost_series,
    "best_count": best_count_series,
    "mean_time": mean_time_series,
    "mean_cost": mean_cost_series,
}
