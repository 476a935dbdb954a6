"""Scheme-comparison machinery shared by the PDR, counting and prediction tables.

The paper compares TASFAR against a no-adaptation baseline, two source-based
UDA schemes (MMD, ADV) and two source-free schemes (AUGfree, Datafree) on
every target scenario.  This module runs that comparison once per task and
caches the result so the individual figure/table experiments (Fig. 14–21,
Table I) can all be derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..core import ConfidenceClassifier
from ..data import TargetScenario
from ..data.tasks import get_task_spec, on_task_registry_change
from ..engine import create_strategy
from ..metrics import mae, mse, per_trajectory_rte, rmsle, step_error
from ..uncertainty import MCDropoutPredictor
from .base import TaskBundle, get_bundle

__all__ = [
    "DEFAULT_SCHEMES",
    "METRIC_FNS",
    "ScenarioEvaluation",
    "SchemeComparison",
    "compare_task",
    "get_comparison",
    "clear_comparison_cache",
    "register_metric",
]

#: Schemes compared in the paper, in presentation order.
DEFAULT_SCHEMES = ("baseline", "mmd", "adv", "augfree", "datafree", "tasfar")


@dataclass
class ScenarioEvaluation:
    """Per-scenario, per-scheme evaluation record."""

    scenario: str
    group: str
    uncertain_indices: np.ndarray
    uncertain_ratio: float
    #: metrics[scheme][split][metric_name] -> float
    metrics: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    #: per-trajectory RTE values, when the task has trajectory structure
    rte: dict[str, dict[str, dict[int, float]]] = field(default_factory=dict)
    #: adaptation-loss curves per scheme
    losses: dict[str, list[float]] = field(default_factory=dict)
    diagnostics: dict[str, dict] = field(default_factory=dict)


@dataclass
class SchemeComparison:
    """Comparison of all schemes over all scenarios of one task."""

    task_name: str
    schemes: tuple[str, ...]
    evaluations: list[ScenarioEvaluation]

    def scenario(self, name: str) -> ScenarioEvaluation:
        """Look up one scenario's evaluation by name."""
        for evaluation in self.evaluations:
            if evaluation.scenario == name:
                return evaluation
        raise KeyError(f"no evaluation for scenario {name!r}")

    def mean_metric(self, scheme: str, split: str, metric: str, group: str | None = None) -> float:
        """Average a metric over scenarios (optionally restricted to a group)."""
        values = [
            evaluation.metrics[scheme][split][metric]
            for evaluation in self.evaluations
            if group is None or evaluation.group == group
        ]
        if not values:
            raise ValueError(f"no scenarios match group {group!r}")
        return float(np.mean(values))

    def mean_reduction(self, scheme: str, split: str, metric: str, group: str | None = None) -> float:
        """Average per-scenario relative error reduction of a scheme vs. the baseline."""
        reductions = []
        for evaluation in self.evaluations:
            if group is not None and evaluation.group != group:
                continue
            base = evaluation.metrics["baseline"][split][metric]
            adapted = evaluation.metrics[scheme][split][metric]
            reductions.append((base - adapted) / base if base else 0.0)
        if not reductions:
            raise ValueError(f"no scenarios match group {group!r}")
        return float(np.mean(reductions))


#: Metric callables resolvable from :attr:`repro.data.TaskSpec.metrics` names.
METRIC_FNS = {
    "ste": lambda p, t: step_error(p, t),
    "mae": mae,
    "mse": mse,
    "rmsle": rmsle,
}


def register_metric(name: str, fn) -> None:
    """Register (or replace) a metric callable ``fn(predictions, targets)``.

    A task registered with ``TaskSpec(metrics=("rmse", ...))`` needs its
    metric names resolvable here; one ``register_metric`` call completes the
    task's "one registration" contract for the comparison harness.
    """
    METRIC_FNS[name.lower()] = fn


def _task_metrics(bundle: TaskBundle):
    """Metric set used for a bundle's task, resolved from its registry spec."""
    spec = bundle.spec
    if spec is None:
        # Hand-constructed bundles: fall back to the registry by task name,
        # so the metric tuples live in exactly one place (data/tasks.py).
        task_name = bundle.task.name if bundle.task.name != "crowd_counting" else "crowd"
        spec = get_task_spec(task_name)
    try:
        return {name: METRIC_FNS[name] for name in spec.metrics}
    except KeyError as exc:
        raise ValueError(
            f"unknown metric {exc.args[0]!r}; known metrics: {sorted(METRIC_FNS)}"
        ) from exc


def _evaluate_splits(
    model: nn.RegressionModel,
    scenario: TargetScenario,
    uncertain_indices: np.ndarray,
    metric_fns: dict,
) -> tuple[dict[str, dict[str, float]], dict[str, dict[int, float]]]:
    """Evaluate one adapted model on the scenario's splits."""
    adapt_pred = nn.predict_batched(model, scenario.adaptation.inputs)
    test_pred = nn.predict_batched(model, scenario.test.inputs)

    metrics: dict[str, dict[str, float]] = {
        "adaptation": {name: fn(adapt_pred, scenario.adaptation.targets) for name, fn in metric_fns.items()},
        "test": {name: fn(test_pred, scenario.test.targets) for name, fn in metric_fns.items()},
    }
    if len(uncertain_indices):
        metrics["adaptation_uncertain"] = {
            name: fn(adapt_pred[uncertain_indices], scenario.adaptation.targets[uncertain_indices])
            for name, fn in metric_fns.items()
        }
    else:
        metrics["adaptation_uncertain"] = dict(metrics["adaptation"])

    rte: dict[str, dict[int, float]] = {}
    if "trajectory_ids" in scenario.metadata:
        rte["adaptation"] = per_trajectory_rte(
            adapt_pred, scenario.adaptation.targets, scenario.metadata["trajectory_ids"]
        )
        rte["test"] = per_trajectory_rte(
            test_pred, scenario.test.targets, scenario.metadata["test_trajectory_ids"]
        )
    return metrics, rte


def compare_task(
    bundle: TaskBundle,
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    scenarios: list[TargetScenario] | None = None,
    seed: int = 0,
    max_source_samples: int = 400,
) -> SchemeComparison:
    """Run every scheme on every scenario of a prepared task bundle."""
    task = bundle.task
    metric_fns = _task_metrics(bundle)
    scenarios = scenarios if scenarios is not None else task.scenarios

    # One prepared strategy per scheme, shared across scenarios: preparation
    # (TASFAR calibration, Datafree statistics, capture of the — possibly
    # subsampled — labelled source data for the source-based schemes) runs
    # once, exactly like a real deployment.
    resources = bundle.resources(max_source_samples=max_source_samples, seed=seed)
    strategy_kwargs = {"epochs": bundle.scale.baseline_epochs, "seed": seed}
    strategies = {
        scheme: create_strategy(scheme, **strategy_kwargs).prepare(
            bundle.source_model, resources
        )
        for scheme in schemes
    }

    predictor = MCDropoutPredictor(bundle.source_model)
    classifier = ConfidenceClassifier()
    classifier.threshold = bundle.calibration.threshold

    evaluations: list[ScenarioEvaluation] = []
    for scenario in scenarios:
        prediction = predictor.predict(scenario.adaptation.inputs)
        split = classifier.split(prediction.uncertainty)
        evaluation = ScenarioEvaluation(
            scenario=scenario.name,
            group=str(scenario.metadata.get("group", "target")),
            uncertain_indices=split.uncertain_indices,
            uncertain_ratio=split.uncertain_ratio,
        )
        for scheme in schemes:
            outcome = strategies[scheme].adapt(bundle.source_model, scenario.adaptation.inputs)
            metrics, rte = _evaluate_splits(
                outcome.target_model, scenario, split.uncertain_indices, metric_fns
            )
            evaluation.metrics[scheme] = metrics
            if rte:
                evaluation.rte[scheme] = rte
            evaluation.losses[scheme] = outcome.losses
            evaluation.diagnostics[scheme] = dict(outcome.diagnostics)
        evaluations.append(evaluation)
    return SchemeComparison(task_name=task.name, schemes=tuple(schemes), evaluations=evaluations)


_COMPARISON_CACHE: dict[tuple[str, str, int, tuple[str, ...]], SchemeComparison] = {}


def clear_comparison_cache() -> None:
    """Drop cached comparisons (used by tests)."""
    _COMPARISON_CACHE.clear()


def _evict_task_comparisons(task_name: str) -> None:
    """Drop cached comparisons of one task when its registration changes,
    mirroring the bundle-cache eviction in :mod:`repro.experiments.base`."""
    for key in [key for key in _COMPARISON_CACHE if key[0] == task_name]:
        del _COMPARISON_CACHE[key]


on_task_registry_change(_evict_task_comparisons)


def get_comparison(
    task_name: str,
    scale: str = "small",
    seed: int = 0,
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
) -> SchemeComparison:
    """Run (or fetch from cache) the full scheme comparison for one task."""
    key = (task_name.lower(), scale, seed, tuple(schemes))
    cached = _COMPARISON_CACHE.get(key)
    if cached is not None:
        return cached
    bundle = get_bundle(task_name, scale, seed)
    comparison = compare_task(bundle, schemes=schemes, seed=seed)
    try:
        current = get_task_spec(task_name)
    except ValueError:
        current = None
    # Cache only if the task's registration did not change while the
    # comparison ran (mirrors the stale-spec guard in get_bundle).
    if bundle.spec is not None and current is bundle.spec:
        _COMPARISON_CACHE[key] = comparison
    return comparison
