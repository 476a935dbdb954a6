"""Integration tests for the experiment harness (run at the tiny scale)."""

import json

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    SCALES,
    get_bundle,
    get_comparison,
    list_experiments,
    run_experiment,
)
from repro.experiments.base import ExperimentResult
from repro.runtime.serialization import to_jsonable

EXPECTED_IDS = {
    "fig2_label_distributions",
    "fig3_uncertainty_error",
    "fig6_density_maps",
    "fig7_grid_size_map_error",
    "fig8_grid_size_pseudo_error",
    "fig9_segment_count",
    "fig10_confidence_ratio",
    "fig11_credibility_correlation",
    "fig12_credibility_ablation",
    "fig13_learning_curves",
    "fig14_ste_reduction_seen",
    "fig15_adaptation_vs_test",
    "fig16_uncertain_ratio",
    "fig17_rte_reduction_seen",
    "fig18_rte_reduction_unseen",
    "table1_crowd_counting",
    "fig19_counting_scenes",
    "fig20_partitioning",
    "fig21_prediction_tasks",
    "fig22_failure_case",
}


class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        assert EXPECTED_IDS == set(list_experiments())

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError):
            run_experiment("fig99_not_a_thing")

    def test_scales_defined(self):
        assert {"tiny", "small", "full"} <= set(SCALES)


class TestBundles:
    def test_bundle_cached_and_reused(self):
        first = get_bundle("housing", "tiny", seed=0)
        second = get_bundle("housing", "tiny", seed=0)
        assert first is second

    def test_unknown_task_raises(self):
        with pytest.raises(ValueError):
            get_bundle("speech", "tiny")

    def test_bundle_has_trained_model_and_calibration(self):
        bundle = get_bundle("housing", "tiny", seed=0)
        assert bundle.calibration.threshold > 0
        assert bundle.source_losses[-1] < bundle.source_losses[0]
        predictions = bundle.predict(bundle.task.scenarios[0].adaptation.inputs[:5])
        assert predictions.shape == (5, 1)

    @pytest.mark.parametrize("task", ["housing", "taxi", "pdr", "crowd"])
    def test_calibration_leaves_no_mc_masks_on_the_source_model(self, task):
        # The calibration's MC-dropout probe runs on a private copy; masks
        # left on the source model would live as long as the bundle.
        bundle = get_bundle(task, "tiny", seed=11)
        held = [
            module for module in bundle.source_model.modules()
            if module._saved is not None
        ]
        assert held == []


class TestExperimentResults:
    def test_result_summary_and_rows(self):
        result = ExperimentResult(
            experiment_id="demo",
            description="demo result",
            columns=["a", "b"],
            rows=[[1, 2.0]],
            paper_expectation="demo expectation",
        )
        text = result.summary()
        assert "demo result" in text and "demo expectation" in text
        assert result.row_dicts() == [{"a": 1, "b": 2.0}]

    @pytest.mark.parametrize(
        "experiment_id",
        ["fig2_label_distributions", "fig3_uncertainty_error", "fig6_density_maps",
         "fig7_grid_size_map_error", "fig9_segment_count"],
    )
    def test_pdr_parameter_studies_run_at_tiny_scale(self, experiment_id):
        result = run_experiment(experiment_id, scale="tiny")
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == experiment_id
        assert len(result.rows) >= 1
        assert all(len(row) == len(result.columns) for row in result.rows)

    def test_fig7_error_falls_with_larger_grid(self):
        result = run_experiment("fig7_grid_size_map_error", scale="tiny")
        per_unit_errors = [row[1] for row in result.rows]
        assert per_unit_errors[-1] <= per_unit_errors[0]

    def test_fig6_stores_its_maps_as_data(self):
        # Stored results must be byte-stable: two runs give equal JSON, with
        # no object repr (and its memory address) in it.
        results = [run_experiment("fig6_density_maps", scale="tiny") for _ in range(2)]
        first, second = (to_jsonable(result.notes) for result in results)
        assert first == second
        assert " object at 0x" not in json.dumps(first)
        for maps in first["maps"].values():
            for density_map in maps.values():
                shape = tuple(len(edge) - 1 for edge in density_map["edges"])
                assert np.asarray(density_map["densities"]).shape == shape

    def test_fig2_reports_every_user(self):
        result = run_experiment("fig2_label_distributions", scale="tiny")
        bundle = get_bundle("pdr", "tiny")
        assert len(result.rows) == bundle.task.n_scenarios


class TestComparisonHarness:
    def test_comparison_on_housing_with_subset_of_schemes(self):
        comparison = get_comparison("housing", scale="tiny", schemes=("baseline", "tasfar"))
        assert comparison.schemes == ("baseline", "tasfar")
        evaluation = comparison.evaluations[0]
        assert "baseline" in evaluation.metrics and "tasfar" in evaluation.metrics
        for split in ("adaptation", "adaptation_uncertain", "test"):
            assert "mse" in evaluation.metrics["tasfar"][split]
        reduction = comparison.mean_reduction("tasfar", "adaptation", "mse")
        assert np.isfinite(reduction)

    def test_mean_metric_group_filter_raises_for_unknown_group(self):
        comparison = get_comparison("housing", scale="tiny", schemes=("baseline", "tasfar"))
        with pytest.raises(ValueError):
            comparison.mean_metric("baseline", "test", "mse", group="seen")

    def test_scenario_lookup(self):
        comparison = get_comparison("housing", scale="tiny", schemes=("baseline", "tasfar"))
        assert comparison.scenario("coastal").scenario == "coastal"
        with pytest.raises(KeyError):
            comparison.scenario("nowhere")
