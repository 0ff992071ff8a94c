"""Benchmarks: the paper's Figures 3-8 and the ablations, run as study specs.

Every case builds a :class:`~repro.experiments.spec.StudySpec` —
:func:`~repro.experiments.figures.figure_spec` for the paper's figures, the
``ablation_*`` constructors for the design choices DESIGN.md calls out — runs
it through :class:`~repro.api.Study`, prints the regenerated series and
asserts the qualitative shape the paper reports.  Figures 3, 4 and 5 solve
the same sweep, so it runs once and the later two only aggregate it.

The sweeps run at a reduced scale by default (see ``benchmarks/conftest.py``);
``REPRO_BENCH_PAPER_SCALE=1`` selects the paper's protocol.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_figures.py --benchmark-disable

(drop ``--benchmark-disable`` for timings; pytest-benchmark is required).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Study, StudyResult
from repro.experiments.config import AlgorithmSpec
from repro.experiments.figures import (
    ablation_delta,
    ablation_iterations,
    ablation_mutation,
    ablation_sharing,
    figure_spec,
)
from repro.experiments.reporting import render_series
from repro.experiments.spec import StudySpec, WorkloadSpec

HEURISTICS = ("H1", "H2", "H31", "H32", "H32Jump")
IMPROVED = ("H2", "H31", "H32", "H32Jump")


@pytest.fixture(scope="module")
def sweeps() -> list:
    """Sweeps run so far; a figure whose plan matches one aggregates it."""
    return []


def _run_all(benchmark, specs: dict, sweeps: list | None = None) -> dict:
    """Run every spec once under one benchmark round; print each series."""

    def run() -> dict:
        results = {}
        for key, spec in specs.items():
            plan = spec.experiment_plan()
            shared = next((s for s in sweeps or () if s.plan == plan), None)
            results[key] = Study.from_spec(spec).run(sweep=shared)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    for key, result in results.items():
        if sweeps is not None:
            sweeps.append(result.sweep)
        print()
        print(specs[key].description)
        print(render_series(result.series))
    return results


def _paper_figure(benchmark, sweeps: list, name: str, scale, **overrides) -> StudyResult:
    options = {
        "num_configurations": scale.num_configurations,
        "target_throughputs": scale.target_throughputs,
        "iterations": scale.iterations,
        **overrides,
    }
    return _run_all(benchmark, {name: figure_spec(name, **options)}, sweeps)[name]


def _values(result: StudyResult) -> dict[str, np.ndarray]:
    return {name: np.asarray(vals, dtype=float) for name, vals in result.series.series.items()}


def _ablation_scale(scale) -> dict:
    return {
        "num_configurations": max(2, scale.num_configurations // 2),
        "target_throughputs": (50, 100, 200),
    }


# --------------------------------------------------------------------------- #
# paper figures
# --------------------------------------------------------------------------- #


@pytest.mark.benchmark(group="figure3")
def test_figure3_normalized_cost_small(benchmark, bench_scale, sweeps):
    """Figure 3 — normalised cost vs the optimum, small application graphs.

    Paper setting: 20 alternative graphs of 5-8 tasks (50 % mutation), 5
    machine types with cost 1-100 and throughput 10-100.  Heuristics stay
    within a few percent of the optimum, H1 is never better than the improved
    heuristics on average, and no heuristic beats the optimal cost.
    """
    series = _values(_paper_figure(benchmark, sweeps, "figure3", bench_scale))
    # The exact solver is the reference: its normalised value is exactly 1.
    assert np.allclose(series["ILP"], 1.0)
    # Paper: every heuristic stays within ~6 % of the optimum on this setting
    # (we allow 12 % headroom for the much smaller configuration sample).
    for name in HEURISTICS:
        assert np.all(series[name] <= 1.0 + 1e-9)
        assert series[name].mean() >= 0.88
    # The improved heuristics are never worse than H1 on average (they start
    # from its solution and only keep improvements).
    for name in IMPROVED:
        assert series[name].mean() >= series["H1"].mean() - 1e-9


@pytest.mark.benchmark(group="figure4")
def test_figure4_best_count_small(benchmark, bench_scale, sweeps):
    """Figure 4 — number of times each algorithm finds the best solution.

    Same setting as Figure 3.  The ILP always finds the best solution and
    "almost all heuristics also find the optimal solution in more than a
    quarter of the runs".
    """
    series = _values(_paper_figure(benchmark, sweeps, "figure4", bench_scale))
    n_configs = bench_scale.num_configurations
    # The exact solver finds the best solution on every configuration.
    assert np.allclose(series["ILP"], n_configs)
    # Heuristic counts are bounded by the number of configurations and the
    # best heuristic (H32Jump) matches the optimum at least as often as H1
    # does on average.
    for name in HEURISTICS:
        assert np.all(series[name] >= 0) and np.all(series[name] <= n_configs)
    assert series["H32Jump"].mean() >= series["H1"].mean() - 1e-9


@pytest.mark.benchmark(group="figure5")
def test_figure5_computation_time_small(benchmark, bench_scale, sweeps):
    """Figure 5 — computation time of the algorithms, small graphs.

    Absolute values are hardware dependent; only the ordering is asserted:
    H1 is almost instantaneous and markedly faster than the exact solver and
    the iterative heuristics.
    """
    series = _values(_paper_figure(benchmark, sweeps, "figure5", bench_scale))
    # H1 is by far the fastest algorithm (paper: "almost instantly").
    for name in ("ILP", "H2", "H31", "H32Jump"):
        assert series["H1"].mean() < series[name].mean()
    # The exact solver is slower than the cheapest heuristics.
    assert series["ILP"].mean() > series["H1"].mean()
    # All timings are positive and finite.
    for values in series.values():
        assert np.all(np.isfinite(values)) and np.all(values >= 0)


@pytest.mark.benchmark(group="figure6")
def test_figure6_normalized_cost_medium(benchmark, bench_scale, sweeps):
    """Figure 6 — normalised cost, medium application graphs.

    Paper setting: 20 alternative graphs of 10-20 tasks (30 % mutation), 8
    machine types.  Same hierarchy as the small setting, heuristics within
    ~5 % of the optimum.
    """
    series = _values(_paper_figure(benchmark, sweeps, "figure6", bench_scale))
    assert np.allclose(series["ILP"], 1.0)
    for name in HEURISTICS:
        assert np.all(series[name] <= 1.0 + 1e-9)
        assert series[name].mean() >= 0.88
    for name in IMPROVED:
        assert series[name].mean() >= series["H1"].mean() - 1e-9


@pytest.mark.benchmark(group="figure7")
def test_figure7_normalized_cost_large(benchmark, bench_scale, sweeps):
    """Figure 7 — normalised cost, large application graphs.

    Paper setting: 20 alternative graphs of 50-100 tasks (50 % mutation), 8
    machine types.  The heuristics become asymptotically close to the
    optimum (paper: > 99 % for throughputs above 50).
    """
    result = _paper_figure(benchmark, sweeps, "figure7", bench_scale)
    series = _values(result)
    throughputs = np.asarray(result.series.throughputs, dtype=float)
    assert np.allclose(series["ILP"], 1.0)
    for name in HEURISTICS:
        assert np.all(series[name] <= 1.0 + 1e-9)
        # Large graphs: heuristics are very close to the optimum, and get even
        # closer at high throughput (paper: > 99 % beyond rho = 50).
        assert series[name][throughputs >= 50].mean() >= 0.95


@pytest.mark.benchmark(group="figure8")
def test_figure8_time_xlarge(benchmark, bench_scale, sweeps):
    """Figure 8 — computation time on the ILP stress setting.

    Paper setting: 10 alternative graphs of 100-200 tasks (30 % mutation), 50
    machine types and a 100 s limit on the exact solver, which the ILP hits
    beyond a throughput of ~100 while the heuristics stay sub-second.  The
    ordering is asserted (exact solver >> heuristics, H1 fastest), never
    absolute values.
    """
    series = _values(
        _paper_figure(
            benchmark,
            sweeps,
            "figure8",
            bench_scale,
            num_configurations=bench_scale.stress_configurations,
            target_throughputs=bench_scale.stress_throughputs,
            ilp_time_limit=bench_scale.ilp_time_limit,
        )
    )
    # H1 stays by far the fastest even on 100-200 task graphs.
    for name in ("ILP", "H2", "H31", "H32Jump"):
        assert series["H1"].mean() < series[name].mean()
    # The exact solver dominates the total run time on the stress setting.
    assert series["ILP"].mean() > series["H1"].mean()
    assert series["ILP"].mean() > series["H32"].mean()
    # The time limit bounds every individual exact solve.
    assert np.all(series["ILP"] <= bench_scale.ilp_time_limit * 1.5)


# --------------------------------------------------------------------------- #
# ablations (design choices called out in DESIGN.md, not in the paper)
# --------------------------------------------------------------------------- #


@pytest.mark.benchmark(group="ablation")
def test_ablation_iteration_budget(benchmark, bench_scale):
    """The iteration budget of H2/H31/H32Jump, which the paper leaves open.

    More iterations never hurt the mean normalised cost of the random-walk
    heuristic (it keeps the best solution seen), and the gain saturates
    quickly, justifying the default of 1000.
    """
    budgets = (10, 100, 1000)
    results = _run_all(
        benchmark, ablation_iterations(budgets, **_ablation_scale(bench_scale))
    )
    means = [_values(results[budget])["H2"].mean() for budget in budgets]
    # H2's mean normalised cost is non-decreasing in the iteration budget
    # (tiny tolerance because the random seeds differ between runs).
    assert means[-1] >= means[0] - 0.02


@pytest.mark.benchmark(group="ablation")
def test_ablation_exchange_delta(benchmark, bench_scale):
    """The throughput moved per exchange (``delta``), which the paper never fixes.

    With delta = 1 the local moves almost never cross a machine-count
    boundary and the iterative heuristics collapse onto H1, which is why the
    adaptive default (the smallest processor throughput) is used.
    """
    results = _run_all(
        benchmark,
        ablation_delta(
            (1.0, 5.0, 10.0),
            iterations=bench_scale.iterations,
            **_ablation_scale(bench_scale),
        ),
    )
    # Every delta keeps the heuristics feasible and no worse than the optimum.
    for result in results.values():
        for name in ("H1", "H2", "H32Jump"):
            assert np.all(_values(result)[name] <= 1.0 + 1e-9)
    # A coarse delta (10) should not be worse than the boundary-blind delta=1
    # by more than noise; typically it is clearly better.
    assert _values(results[10.0])["H2"].mean() >= _values(results[1.0])["H2"].mean() - 0.02


@pytest.mark.benchmark(group="ablation")
def test_ablation_mutation_fraction(benchmark, bench_scale):
    """The mutation percentage of the alternative recipes (Section VIII-A).

    With fully random recipe sets (mutation 100 %) a single graph dominates
    and H1 is essentially optimal, whereas 30-50 % mutation creates instances
    where mixing recipes pays off.
    """
    results = _run_all(
        benchmark,
        ablation_mutation(
            (0.3, 1.0), iterations=bench_scale.iterations, **_ablation_scale(bench_scale)
        ),
    )
    # All values stay in (0, 1]; the exact solver is the reference everywhere.
    for result in results.values():
        series = _values(result)
        assert np.allclose(series["ILP"], 1.0)
        for name in ("H1", "H2", "H32Jump"):
            assert np.all((series[name] > 0) & (series[name] <= 1.0 + 1e-9))
    h1_mean = {fraction: float(_values(r)["H1"].mean()) for fraction, r in results.items()}
    print()
    print(f"mean normalised H1 cost by mutation fraction: {h1_mean}")


@pytest.mark.benchmark(group="ablation")
def test_ablation_machine_sharing(benchmark, bench_scale):
    """The benefit of sharing machines across recipes.

    The general shared-machine optimum (Section V-C ILP) against dimensioning
    each recipe separately (the Section V-B DP in its no-sharing mode) and
    the single-recipe H1 — the paper's motivation for the harder general case.
    """
    spec = ablation_sharing(**_ablation_scale(bench_scale))
    series = _values(_run_all(benchmark, {"sharing": spec})["sharing"])
    # The shared-machine optimum is a lower bound on both alternatives.
    assert np.all(series["ILP"] <= series["DP"] + 1e-9)
    assert np.all(series["ILP"] <= series["H1"] + 1e-9)
    # The unshared DP is still at least as good as committing to one recipe.
    assert np.all(series["DP"] <= series["H1"] + 1e-9)


@pytest.mark.benchmark(group="ablation")
def test_ablation_simulated_annealing(benchmark, bench_scale):
    """The simulated-annealing extension H4-SA against the paper's H2 and H31.

    H4-SA is not part of the paper: it tests whether Metropolis acceptance
    buys anything over accepting everything (H2) or only improvements (H31).
    All three land within a few percent of the optimum, with no consistent
    winner.
    """
    iterations = bench_scale.iterations
    spec = StudySpec(
        name="ablation_annealing",
        workload=WorkloadSpec("small", **_ablation_scale(bench_scale)),
        algorithms=(
            AlgorithmSpec("ILP", {}),
            AlgorithmSpec("H1", {}),
            AlgorithmSpec("H2", {"iterations": iterations}, seed_sensitive=True),
            AlgorithmSpec("H31", {"iterations": iterations}, seed_sensitive=True),
            AlgorithmSpec("H4-SA", {"iterations": iterations}, seed_sensitive=True),
        ),
        description="Simulated-annealing extension vs paper heuristics",
    )
    series = _values(_run_all(benchmark, {"annealing": spec})["annealing"])
    assert np.allclose(series["ILP"], 1.0)
    # The extension respects the same sandwich as the paper's heuristics.
    for name in ("H2", "H31", "H4-SA"):
        assert np.all(series[name] <= 1.0 + 1e-9)
        assert np.all(series[name] >= series["H1"] - 1e-9)
