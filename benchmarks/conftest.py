"""The sweep scale of ``bench_figures.py``, the one pytest module here.

Its figure and ablation checks run with a reduced number of random
configurations and a coarser throughput grid by default; set the environment
variable ``REPRO_BENCH_PAPER_SCALE=1`` to use the paper's full protocol (100
configurations, throughput 20..200 step 10, 100 s ILP time limit for Figure
8).  Each check prints its regenerated series, so the log is the artefact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest


@dataclass(frozen=True)
class BenchScale:
    """Sweep sizes used by the figure benchmarks."""

    paper_scale: bool
    num_configurations: int
    target_throughputs: tuple[int, ...]
    stress_configurations: int
    stress_throughputs: tuple[int, ...]
    ilp_time_limit: float
    iterations: int


def _scale_from_env() -> BenchScale:
    paper = os.environ.get("REPRO_BENCH_PAPER_SCALE", "0") not in ("", "0", "false", "False")
    if paper:
        return BenchScale(
            paper_scale=True,
            num_configurations=100,
            target_throughputs=tuple(range(20, 201, 10)),
            stress_configurations=10,
            stress_throughputs=tuple(range(20, 201, 10)),
            ilp_time_limit=100.0,
            iterations=1000,
        )
    return BenchScale(
        paper_scale=False,
        num_configurations=3,
        target_throughputs=(40, 80, 120, 160, 200),
        stress_configurations=1,
        stress_throughputs=(50, 100),
        ilp_time_limit=15.0,
        iterations=300,
    )


@pytest.fixture(scope="session")
def bench_scale() -> BenchScale:
    return _scale_from_env()
