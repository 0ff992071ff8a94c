"""Plain-text rendering of tables and figure series.

The paper's artefacts are a table (Table III) and line plots (Figures 3-8).
Without a plotting dependency the library renders both as aligned text tables,
which is what the benchmark harness writes next to its timing output and what
EXPERIMENTS.md embeds.
"""

from __future__ import annotations

import math
from typing import Sequence

from .metrics import SeriesByAlgorithm
from .runner import SweepResult
from .tables import PAPER_TABLE3_OPTIMAL_COSTS, Table3

__all__ = [
    "format_table",
    "render_series",
    "render_table3",
    "sweep_summary",
    "campaign_summary",
    "render_campaign",
    "table3_vs_paper",
]


def format_table(rows: Sequence[Sequence[str]], *, min_width: int = 4) -> str:
    """Align a list of string rows into a fixed-width text table."""
    if not rows:
        return ""
    columns = max(len(row) for row in rows)
    widths = [min_width] * columns
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = []
    for index, row in enumerate(rows):
        padded = [str(cell).rjust(widths[i]) for i, cell in enumerate(row)]
        lines.append("  ".join(padded))
        if index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(row))))
    return "\n".join(lines)


def render_series(series: SeriesByAlgorithm, *, title: str | None = None) -> str:
    """Render a figure's per-algorithm series as a text table."""
    header = title if title is not None else series.title
    body = format_table(series.as_rows())
    label = f"[y-axis: {series.ylabel}]"
    return "\n".join(filter(None, [header, label, body]))


def sweep_summary(result: SweepResult) -> str:
    """One-line description of a sweep result (used by the CLI after a run)."""
    throughputs = result.throughputs()
    configurations = {record.configuration for record in result.records}
    rho_span = f"{throughputs[0]:g}..{throughputs[-1]:g}" if throughputs else "none"
    return (
        f"sweep '{result.plan.name}': {len(result.records)} records, "
        f"{len(configurations)} configurations, "
        f"{len(result.algorithms())} algorithms, throughputs {rho_span}"
    )


def campaign_summary(campaign) -> str:
    """One-line description of a validation campaign (printed before the series)."""
    plan = campaign.plan
    summary = (
        f"validation campaign '{plan.name}': {len(campaign.records)} simulations "
        f"({len(plan.sources)} captured allocations, horizons "
        f"{', '.join(f'{h:g}' for h in plan.horizons)}, rate multipliers "
        f"{', '.join(f'{m:g}' for m in plan.rate_multipliers)}, scenarios "
        f"{', '.join(scenario.name for scenario in plan.scenarios)})"
    )
    stats = getattr(campaign, "memo_stats", None)
    if stats is not None:
        summary += f" [memo: {stats.hits} hit / {stats.misses} miss]"
    return summary


def render_campaign(campaign) -> str:
    """Render a validation campaign's series blocks as text.

    One block per (rate multiplier, scenario) cell — throughput ratio, latency
    and utilization — followed by the campaign-wide reorder/backlog series and
    the worst achieved/target ratio.  The scenario part of the banner (and the
    series filter) is dropped for single-scenario campaigns, so pre-scenario
    output is reproduced exactly.  Shared by the ``validate`` and ``run``
    sub-commands of the CLI.
    """
    from .validation import (
        backlog_series,
        latency_series,
        reorder_peak_series,
        throughput_ratio_series,
        utilization_series,
    )

    plan = campaign.plan
    lines: list[str] = []
    single_scenario = len(plan.scenarios) == 1
    for multiplier in plan.rate_multipliers:
        for scenario in plan.scenarios:
            name = None if single_scenario else scenario.name
            banner = f"--- arrival rate x{multiplier:g}"
            if name is not None:
                banner += f" · scenario {name}"
            lines.append("")
            lines.append(banner + " ---")
            lines.append(render_series(throughput_ratio_series(
                campaign, rate_multiplier=multiplier, scenario=name)))
            lines.append(render_series(latency_series(
                campaign, rate_multiplier=multiplier, scenario=name)))
            lines.append(render_series(utilization_series(
                campaign, rate_multiplier=multiplier, scenario=name)))
    lines.append("")
    lines.append(render_series(reorder_peak_series(campaign)))
    lines.append(render_series(backlog_series(campaign)))
    lines.append("")
    lines.append(
        f"worst achieved/target ratio over the campaign: {campaign.worst_ratio():.3f}"
    )
    return "\n".join(lines)


def render_table3(table: Table3) -> str:
    """Render the reproduced Table III (cost and split of every algorithm)."""
    header = ["rho"]
    for name in table.algorithms:
        header.extend([f"{name} split", f"{name} cost"])
    rows: list[list[str]] = [header]
    for row in table.rows:
        cells = [str(row.rho)]
        for name in table.algorithms:
            split, cost = row.entries[name]
            cells.append("(" + ",".join(f"{v:g}" for v in split) + ")")
            cells.append(f"{cost:g}")
        rows.append(cells)
    return format_table(rows)


def table3_vs_paper(table: Table3, *, exact_algorithm: str = "ILP") -> str:
    """Compare the reproduced exact costs with the paper's Table III column.

    Returns a text table with one row per throughput: paper optimal cost,
    reproduced optimal cost and the match flag — the headline correctness
    check of the reproduction.
    """
    rows: list[list[str]] = [["rho", "paper optimal", f"reproduced {exact_algorithm}", "match"]]
    reproduced = table.costs(exact_algorithm)
    matches = 0
    for rho, paper_cost in sorted(PAPER_TABLE3_OPTIMAL_COSTS.items()):
        ours = reproduced.get(rho, math.nan)
        match = not math.isnan(ours) and abs(ours - paper_cost) < 1e-9
        matches += int(match)
        rows.append([str(rho), str(paper_cost), f"{ours:g}", "yes" if match else "NO"])
    rows.append(["total", str(len(PAPER_TABLE3_OPTIMAL_COSTS)), f"{matches} matches", ""])
    return format_table(rows)
