"""Credibility-weight studies: Fig. 11 (correlation) and Fig. 12 (ablation).

Fig. 11 checks that the credibility ``beta_t`` assigned to a pseudo-label
correlates with how much that pseudo-label actually improves on the source
prediction, per user.  Fig. 12 ablates ``beta_t`` in the adaptation loss and
tracks the step error across training epochs with and without the weight.
"""

from __future__ import annotations

import copy

import numpy as np

from .. import nn
from ..core import ConfidenceClassifier, TasfarConfig, Tasfar
from ..engine import StackedFineTuneEngine
from ..metrics import pearson_correlation, step_error
from ..uncertainty import MCDropoutPredictor
from .base import ExperimentResult, TaskBundle, get_bundle
from .helpers import build_calibration, pseudo_label_scenario

__all__ = ["fig11_credibility_correlation", "fig12_credibility_ablation"]


def fig11_credibility_correlation(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Correlation between credibility and pseudo-label improvement, per user."""
    bundle = get_bundle("pdr", scale, seed)
    calibration = build_calibration(bundle)
    rows = []
    correlations = []
    for scenario in bundle.task.scenarios:
        pseudo_batch, uncertain_indices, _ = pseudo_label_scenario(bundle, scenario, calibration)
        if len(uncertain_indices) < 3:
            continue
        targets = scenario.adaptation.targets[uncertain_indices]
        prediction_error = np.linalg.norm(pseudo_batch.predictions - targets, axis=1)
        pseudo_error = np.linalg.norm(pseudo_batch.pseudo_labels - targets, axis=1)
        improvement = prediction_error - pseudo_error
        correlation = pearson_correlation(pseudo_batch.credibilities, improvement)
        correlations.append(correlation)
        rows.append([scenario.name, scenario.metadata["group"], correlation, len(uncertain_indices)])
    positive_fraction = float(np.mean([c > 0 for c in correlations])) if correlations else 0.0
    return ExperimentResult(
        experiment_id="fig11_credibility_correlation",
        description="Correlation between credibility beta_t and pseudo-label improvement per user",
        columns=["user", "group", "correlation", "n_uncertain"],
        rows=rows,
        paper_expectation="correlations are positive for (almost) all users, most above 0.5",
        notes={
            "mean_correlation": float(np.mean(correlations)) if correlations else 0.0,
            "positive_fraction": positive_fraction,
        },
    )


def _adapt_tracking_ste(
    bundle: TaskBundle,
    scenario,
    use_credibility: bool,
    epochs: int,
    seed: int,
) -> list[float]:
    """Fine-tune on pseudo-labels, recording the adaptation-set STE after every epoch."""
    config = TasfarConfig(
        use_credibility=use_credibility,
        adaptation_epochs=1,
        early_stop=False,
        seed=seed,
    )
    tasfar = Tasfar(config)
    calibration = bundle.calibration

    predictor = MCDropoutPredictor(bundle.source_model, n_samples=config.n_mc_samples)
    prediction = predictor.predict(scenario.adaptation.inputs)
    classifier = ConfidenceClassifier(config.confidence_ratio)
    classifier.threshold = calibration.threshold
    split = classifier.split(prediction.uncertainty)
    from ..core.estimator import LabelDistributionEstimator

    estimator = LabelDistributionEstimator(calibration.calibrators, auto_grid_bins=config.auto_grid_bins)
    density_map, pseudo_batch = tasfar._pseudo_label_uncertain(
        estimator, calibration, prediction, split
    )
    del density_map
    dataset = tasfar.build_adaptation_dataset(
        scenario.adaptation.inputs, prediction, split, pseudo_batch
    )

    model = copy.deepcopy(bundle.source_model)
    stacked = nn.stack_modules([model])
    optimizer = nn.StackedAdam(stacked.parameters(), 1, lr=config.adaptation_lr)
    loss = nn.PerReplicaLoss(nn.MSELoss())

    def step(inputs: np.ndarray, labels: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
        values, grads = loss(stacked.forward(inputs), labels, weights)
        stacked.backward(grads)
        return values

    # One engine run per epoch, sharing the optimizer and the shuffle
    # stream, so the step error can be read between epochs.
    engine = StackedFineTuneEngine(1, config.adaptation_batch_size)
    rng = np.random.default_rng(seed)
    ste_per_epoch = []
    for _ in range(epochs):
        engine.run(stacked, [dataset], optimizer, step, rngs=[rng])
        predictions = nn.predict_batched(model, scenario.adaptation.inputs)
        ste_per_epoch.append(step_error(predictions, scenario.adaptation.targets))
    return ste_per_epoch


def fig12_credibility_ablation(
    scale: str = "small", seed: int = 0, epochs: int = 12
) -> ExperimentResult:
    """Adaptation-set STE per epoch with and without the credibility weight."""
    bundle = get_bundle("pdr", scale, seed)
    scenario = bundle.task.scenarios[0]
    with_weight = _adapt_tracking_ste(bundle, scenario, True, epochs, seed)
    without_weight = _adapt_tracking_ste(bundle, scenario, False, epochs, seed)
    baseline = step_error(bundle.predict(scenario.adaptation.inputs), scenario.adaptation.targets)
    rows = [
        [epoch + 1, with_weight[epoch], without_weight[epoch]]
        for epoch in range(epochs)
    ]
    return ExperimentResult(
        experiment_id="fig12_credibility_ablation",
        description="STE vs. adaptation epoch with / without the credibility weight beta_t",
        columns=["epoch", "ste_with_beta", "ste_without_beta"],
        rows=rows,
        paper_expectation=(
            "the weighted variant reaches lower STE in early epochs; the gap narrows with "
            "more epochs, which motivates early stopping"
        ),
        notes={
            "baseline_ste": baseline,
            "best_with": float(np.min(with_weight)),
            "best_without": float(np.min(without_weight)),
        },
    )
