"""End-to-end tests for the TASFAR adapter on a small synthetic problem."""

import numpy as np
import pytest

import repro.nn as nn
from repro.core import Tasfar, TasfarConfig
from repro.core.adapter import SourceCalibration
from repro.engine import train_supervised
from repro.uncertainty import UncertaintyCalibrator


def make_problem(seed=0, n_source=300, n_target=150):
    """A 1-D regression problem with a subset of corrupted target inputs.

    The target labels concentrate in a narrow band, and one third of the
    target inputs are replaced with large noise so the source model is both
    wrong and uncertain on them — the structure TASFAR expects.
    """
    rng = np.random.default_rng(seed)
    source_inputs = rng.normal(size=(n_source, 4))
    weights = np.array([1.0, -1.0, 0.5, 2.0])
    source_labels = source_inputs @ weights + 0.05 * rng.normal(size=n_source)

    target_inputs = rng.normal(size=(n_target, 4)) * 0.4 + 0.5
    target_labels = target_inputs @ weights + 0.05 * rng.normal(size=n_target)
    corrupted = rng.random(n_target) < 0.3
    target_inputs[corrupted] = rng.normal(scale=4.0, size=(corrupted.sum(), 4))
    return source_inputs, source_labels, target_inputs, target_labels, corrupted


@pytest.fixture(scope="module")
def trained_setup():
    source_inputs, source_labels, target_inputs, target_labels, corrupted = make_problem()
    model = nn.build_mlp(4, 1, hidden_dims=(32, 16), dropout=0.2, seed=0)
    train_supervised(
        model, nn.ArrayDataset(source_inputs, source_labels), epochs=40, batch_size=32,
        lr=3e-3, rng=np.random.default_rng(0),
    )
    tasfar = Tasfar(TasfarConfig(adaptation_epochs=20, seed=0))
    calibration = tasfar.calibrate_on_source(model, source_inputs, source_labels)
    return {
        "model": model,
        "tasfar": tasfar,
        "calibration": calibration,
        "target_inputs": target_inputs,
        "target_labels": target_labels,
        "corrupted": corrupted,
    }


class TestCalibration:
    def test_calibration_contents(self, trained_setup):
        calibration = trained_setup["calibration"]
        assert calibration.threshold > 0
        assert calibration.label_dim == 1
        assert all(isinstance(c, UncertaintyCalibrator) for c in calibration.calibrators)

    def test_calibration_length_mismatch_raises(self, trained_setup):
        tasfar = trained_setup["tasfar"]
        with pytest.raises(ValueError):
            tasfar.calibrate_on_source(trained_setup["model"], np.zeros((5, 4)), np.zeros(4))


class TestAdaptation:
    def test_adapt_returns_new_model_and_diagnostics(self, trained_setup):
        tasfar = trained_setup["tasfar"]
        result = tasfar.adapt(
            trained_setup["model"], trained_setup["target_inputs"], trained_setup["calibration"]
        )
        assert result.target_model is not trained_setup["model"]
        assert result.split.n_confident + result.split.n_uncertain == len(trained_setup["target_inputs"])
        assert result.density_map.total_mass == pytest.approx(1.0, abs=1e-6)
        assert len(result.pseudo_labels) == result.split.n_uncertain
        assert len(result.losses) >= 1

    def test_source_model_unchanged_by_adaptation(self, trained_setup):
        model = trained_setup["model"]
        before = [param.data.copy() for param in model.parameters()]
        trained_setup["tasfar"].adapt(
            model, trained_setup["target_inputs"], trained_setup["calibration"]
        )
        after = model.parameters()
        for old, new in zip(before, after):
            np.testing.assert_array_equal(old, new.data)

    def test_adaptation_does_not_degrade_clean_subset_substantially(self, trained_setup):
        tasfar = trained_setup["tasfar"]
        result = tasfar.adapt(
            trained_setup["model"], trained_setup["target_inputs"], trained_setup["calibration"]
        )
        clean = ~trained_setup["corrupted"]
        inputs = trained_setup["target_inputs"][clean]
        labels = trained_setup["target_labels"][clean][:, None]
        base_error = np.abs(nn.predict_batched(trained_setup["model"], inputs) - labels).mean()
        adapted_error = np.abs(nn.predict_batched(result.target_model, inputs) - labels).mean()
        assert adapted_error < base_error * 1.5

    def test_uncertain_set_flags_corrupted_inputs(self, trained_setup):
        result = trained_setup["tasfar"].adapt(
            trained_setup["model"], trained_setup["target_inputs"], trained_setup["calibration"]
        )
        corrupted = trained_setup["corrupted"]
        uncertain_mask = np.zeros(len(corrupted), dtype=bool)
        uncertain_mask[result.split.uncertain_indices] = True
        # corrupted inputs should be over-represented among the uncertain set
        assert uncertain_mask[corrupted].mean() > uncertain_mask[~corrupted].mean()

    def test_error_when_every_sample_is_uncertain(self, trained_setup):
        calibration = SourceCalibration(
            threshold=1e-9,
            calibrators=trained_setup["calibration"].calibrators,
        )
        with pytest.raises(ValueError, match="confident"):
            trained_setup["tasfar"].adapt(
                trained_setup["model"], trained_setup["target_inputs"], calibration
            )

    def test_all_confident_target_skips_pseudo_labels(self, trained_setup):
        calibration = SourceCalibration(
            threshold=1e9,
            calibrators=trained_setup["calibration"].calibrators,
        )
        result = trained_setup["tasfar"].adapt(
            trained_setup["model"], trained_setup["target_inputs"], calibration
        )
        assert result.split.n_uncertain == 0
        assert len(result.pseudo_labels) == 0

    def test_config_switches(self, trained_setup):
        config = TasfarConfig(
            adaptation_epochs=5,
            include_confident_data=False,
            use_credibility=False,
            early_stop=False,
            pseudo_label_mode="argmax",
            seed=1,
        )
        tasfar = Tasfar(config)
        result = tasfar.adapt(
            trained_setup["model"], trained_setup["target_inputs"], trained_setup["calibration"]
        )
        assert len(result.losses) == 5
        dataset = tasfar.build_adaptation_dataset(
            trained_setup["target_inputs"],
            result.target_prediction,
            result.split,
            result.pseudo_labels,
        )
        # without confident data the training set only holds uncertain samples
        assert len(dataset) == result.split.n_uncertain

    def test_dropout_rates_restored_after_adaptation(self, trained_setup):
        result = trained_setup["tasfar"].adapt(
            trained_setup["model"], trained_setup["target_inputs"], trained_setup["calibration"]
        )
        for layer in result.target_model.dropout_layers():
            assert layer.rate == pytest.approx(0.2)
