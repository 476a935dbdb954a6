"""Cross-module integration tests: the full TASFAR pipeline on real task generators.

These tests exercise the same code path as the benchmarks (generate task ->
train source model -> calibrate -> adapt -> evaluate) at the smallest usable
scale, and assert the qualitative properties the paper's evaluation relies on.
"""

import numpy as np
import pytest

import repro.nn as nn
from repro.core import Tasfar, TasfarConfig
from repro.experiments import get_bundle
from repro.metrics import mse, pearson_correlation, step_error
from repro.uncertainty import MCDropoutPredictor


@pytest.fixture(scope="module")
def housing_bundle():
    return get_bundle("housing", "tiny", seed=0)


@pytest.fixture(scope="module")
def pdr_bundle():
    return get_bundle("pdr", "tiny", seed=0)


class TestHousingPipeline:
    def test_source_model_learned_something(self, housing_bundle):
        task = housing_bundle.task
        predictions = housing_bundle.predict(task.source_calibration.inputs)
        error = mse(predictions, task.source_calibration.targets)
        variance = float(task.source_calibration.targets.var())
        assert error < variance

    def test_tasfar_adaptation_runs_end_to_end(self, housing_bundle):
        task = housing_bundle.task
        scenario = task.scenarios[0]
        tasfar = Tasfar(TasfarConfig(adaptation_epochs=10, seed=0))
        result = tasfar.adapt(housing_bundle.source_model, scenario.adaptation.inputs, housing_bundle.calibration)
        base_error = mse(housing_bundle.predict(scenario.adaptation.inputs), scenario.adaptation.targets)
        adapted_error = mse(
            nn.predict_batched(result.target_model, scenario.adaptation.inputs),
            scenario.adaptation.targets,
        )
        # adaptation must not blow the error up; at tiny scale we only require
        # the qualitative "does not degrade badly" property
        assert adapted_error < base_error * 1.3

    def test_uncertainty_correlates_with_error_on_target(self, housing_bundle):
        scenario = housing_bundle.task.scenarios[0]
        prediction = MCDropoutPredictor(housing_bundle.source_model).predict(scenario.adaptation.inputs)
        errors = np.abs(prediction.mean - scenario.adaptation.targets).mean(axis=1)
        assert pearson_correlation(prediction.uncertainty, errors) > 0.0


class TestPdrPipeline:
    def test_task_and_model_shapes_are_consistent(self, pdr_bundle):
        task = pdr_bundle.task
        scenario = task.scenarios[0]
        predictions = pdr_bundle.predict(scenario.adaptation.inputs)
        assert predictions.shape == scenario.adaptation.targets.shape

    def test_tasfar_adaptation_on_one_user(self, pdr_bundle):
        scenario = pdr_bundle.task.scenarios[0]
        tasfar = Tasfar(TasfarConfig(adaptation_epochs=8, seed=0))
        result = tasfar.adapt(pdr_bundle.source_model, scenario.adaptation.inputs, pdr_bundle.calibration)
        base = step_error(pdr_bundle.predict(scenario.adaptation.inputs), scenario.adaptation.targets)
        after = step_error(
            nn.predict_batched(result.target_model, scenario.adaptation.inputs),
            scenario.adaptation.targets,
        )
        assert after < base * 1.25

    def test_density_map_is_two_dimensional(self, pdr_bundle):
        scenario = pdr_bundle.task.scenarios[0]
        tasfar = Tasfar(TasfarConfig(adaptation_epochs=2, seed=0))
        result = tasfar.adapt(pdr_bundle.source_model, scenario.adaptation.inputs, pdr_bundle.calibration)
        assert result.density_map.n_dims == 2

    def test_pseudo_labels_not_worse_than_predictions_on_average(self, pdr_bundle):
        scenario = pdr_bundle.task.scenarios[0]
        tasfar = Tasfar(TasfarConfig(adaptation_epochs=2, seed=0))
        result = tasfar.adapt(pdr_bundle.source_model, scenario.adaptation.inputs, pdr_bundle.calibration)
        uncertain = result.split.uncertain_indices
        if len(uncertain) == 0:
            pytest.skip("no uncertain samples at this scale/seed")
        targets = scenario.adaptation.targets[uncertain]
        prediction_error = np.linalg.norm(result.target_prediction.mean[uncertain] - targets, axis=1).mean()
        pseudo_error = np.linalg.norm(result.pseudo_labels.pseudo_labels - targets, axis=1).mean()
        assert pseudo_error <= prediction_error * 1.15
