"""Scaled-down integration tests of the figure and ablation specs.

Full paper-scale runs live in ``benchmarks/bench_figures.py``; these tests
only check that each figure spec, run through :class:`repro.api.Study`,
produces a well-formed result with the expected qualitative shape on a tiny
sweep.
"""

import numpy as np
import pytest

from repro.api import Study
from repro.experiments.figures import (
    FIGURE_DEFINITIONS,
    ablation_delta,
    ablation_iterations,
    ablation_mutation,
    ablation_sharing,
    figure_spec,
)


TINY = {"num_configurations": 2, "target_throughputs": (60, 120), "iterations": 120}


@pytest.fixture(scope="module")
def small_sweep_results():
    """Run the small-setting sweep once and reuse it for Figures 3, 4 and 5."""
    fig3 = Study.from_spec(figure_spec("figure3", **TINY)).run()
    fig4 = Study.from_spec(figure_spec("figure4", **TINY)).run(sweep=fig3.sweep)
    fig5 = Study.from_spec(figure_spec("figure5", **TINY)).run(sweep=fig3.sweep)
    return fig3, fig4, fig5


class TestFigurePipeline:
    def test_registry_contains_all_paper_figures(self):
        assert set(FIGURE_DEFINITIONS) == {
            "figure3", "figure4", "figure5", "figure6", "figure7", "figure8"
        }

    def test_figure3_shape(self, small_sweep_results):
        fig3, _, _ = small_sweep_results
        series = fig3.series
        assert series.throughputs == [60.0, 120.0]
        assert set(series.series) == {"ILP", "H1", "H2", "H31", "H32", "H32Jump"}
        assert np.allclose(series.series["ILP"], 1.0)
        for name in ("H1", "H2", "H31", "H32", "H32Jump"):
            assert np.all(np.asarray(series.series[name]) <= 1.0 + 1e-9)

    def test_figure4_reuses_sweep(self, small_sweep_results):
        fig3, fig4, _ = small_sweep_results
        assert fig4.sweep is fig3.sweep
        assert fig4.spec.experiment_plan() == fig3.sweep.plan
        assert np.allclose(fig4.series.series["ILP"], TINY["num_configurations"])

    def test_figure5_time_ordering(self, small_sweep_results):
        _, _, fig5 = small_sweep_results
        series = {k: np.asarray(v) for k, v in fig5.series.series.items()}
        assert series["H1"].mean() < series["ILP"].mean()

    def test_figure_result_metadata(self, small_sweep_results):
        fig3, fig4, fig5 = small_sweep_results
        assert fig3.spec.name == "figure3" and "5-8 tasks" in fig3.spec.description
        assert fig4.spec.name == "figure4"
        assert fig5.spec.name == "figure5"

    def test_ablation_sharing_ordering(self):
        result = Study.from_spec(
            ablation_sharing(num_configurations=2, target_throughputs=(60,))
        ).run()
        series = {k: np.asarray(v) for k, v in result.series.series.items()}
        assert np.all(series["ILP"] <= series["DP"] + 1e-9)
        assert np.all(series["DP"] <= series["H1"] + 1e-9)


class TestAblationSpecs:
    def test_one_spec_per_swept_value_with_its_own_series_and_description(self):
        scale = {"num_configurations": 2, "target_throughputs": (60,)}
        for specs, key in (
            (ablation_iterations((10, 50), **scale), 50),
            (ablation_delta((1.0, 10.0), **scale), 10.0),
            (ablation_mutation((0.3, 1.0), **scale), 1.0),
        ):
            assert len(specs) == 2 and len({spec.name for spec in specs.values()}) == 2
            assert specs[key].series == "normalized_cost"
            assert f"={key:g})" in specs[key].description
        assert ablation_sharing(**scale).series == "mean_cost"

    def test_ablation_specs_carry_the_swept_value(self):
        budgets = ablation_iterations((10,), num_configurations=1)
        assert {spec.params.get("iterations") for spec in budgets[10].algorithms} == {None, 10}
        deltas = ablation_delta((5.0,), num_configurations=1)
        assert deltas[5.0].algorithms[2].params == {"iterations": 1000, "delta": 5.0}
        fractions = ablation_mutation((0.3,), num_configurations=1)
        setting = fractions[0.3].workload.setting
        assert (setting.name, setting.mutation_fraction) == ("small-mut0.3", 0.3)
