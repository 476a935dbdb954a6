"""Crowd-counting experiments: Table I, Fig. 19 and Fig. 20.

* Table I — MAE/MSE of every scheme on the adaptation set (whole and uncertain
  subset) and on the test set, pooled over the target scenes.
* Fig. 19 — per-scene test-set comparison of the schemes.
* Fig. 20 — TASFAR with the target data partitioned by scene (one adaptation
  per scene) versus pooled across scenes (a single adaptation).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core import TasfarConfig
from ..data import merge_scenarios
from ..engine import TasfarStrategy
from ..metrics import mae
from .base import ExperimentResult, get_bundle
from .comparison import get_comparison

__all__ = ["table1_crowd_counting", "fig19_counting_scenes", "fig20_partitioning"]


def table1_crowd_counting(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Table I: MAE/MSE per scheme on adaptation (whole / uncertain) and test sets."""
    comparison = get_comparison("crowd", scale, seed)
    rows = []
    base = {
        split: {
            metric: comparison.mean_metric("baseline", split, metric)
            for metric in ("mae", "mse")
        }
        for split in ("adaptation", "adaptation_uncertain", "test")
    }
    for scheme in comparison.schemes:
        row: list[object] = [scheme]
        for split in ("adaptation", "adaptation_uncertain", "test"):
            for metric in ("mae", "mse"):
                value = comparison.mean_metric(scheme, split, metric)
                row.append(value)
        for split in ("adaptation", "adaptation_uncertain", "test"):
            for metric in ("mae", "mse"):
                value = comparison.mean_metric(scheme, split, metric)
                reference = base[split][metric]
                row.append((reference - value) / reference if reference else 0.0)
        rows.append(row)
    value_columns = [
        f"{metric}_{split}"
        for split in ("adapt", "adapt_unc", "test")
        for metric in ("mae", "mse")
    ]
    reduction_columns = [
        f"red_{metric}_{split}"
        for split in ("adapt", "adapt_unc", "test")
        for metric in ("mae", "mse")
    ]
    return ExperimentResult(
        experiment_id="table1_crowd_counting",
        description="Crowd counting: MAE/MSE per scheme on adaptation (whole/uncertain) and test sets",
        columns=["scheme"] + value_columns + reduction_columns,
        rows=rows,
        paper_expectation=(
            "the baseline is much worse on the uncertain subset; TASFAR clearly outperforms "
            "AUGfree/Datafree and is comparable to the source-based MMD/ADV schemes, with the "
            "largest reductions on the uncertain subset"
        ),
    )


def fig19_counting_scenes(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Per-scene test-set MAE reduction for a subset of schemes."""
    comparison = get_comparison("crowd", scale, seed)
    schemes = [scheme for scheme in comparison.schemes if scheme != "baseline"]
    rows = []
    for evaluation in comparison.evaluations:
        base = evaluation.metrics["baseline"]["test"]["mae"]
        row: list[object] = [evaluation.scenario]
        for scheme in schemes:
            value = evaluation.metrics[scheme]["test"]["mae"]
            row.append((base - value) / base if base else 0.0)
        rows.append(row)
    return ExperimentResult(
        experiment_id="fig19_counting_scenes",
        description="Test-set MAE reduction per crowd scene and scheme",
        columns=["scene"] + [f"red_{scheme}" for scheme in schemes],
        rows=rows,
        paper_expectation=(
            "TASFAR outperforms the source-free schemes in every scene and is comparable to "
            "source-based UDA; the most crowded, most regular scene benefits clearly"
        ),
    )


def fig20_partitioning(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """TASFAR with per-scene adaptation vs. one pooled adaptation over all scenes."""
    bundle = get_bundle("crowd", scale, seed)
    config = TasfarConfig(seed=seed)

    # Partitioned: adapt separately per scene (re-use the cached comparison).
    comparison = get_comparison("crowd", scale, seed)

    # Pooled: one adaptation on the union of the scenes' adaptation sets.
    pooled_scenario = merge_scenarios(bundle.task.scenarios, name="pooled")
    strategy = TasfarStrategy(config, calibration=bundle.calibration)
    pooled_result = strategy.adapt(bundle.source_model, pooled_scenario.adaptation.inputs)

    rows = []
    for scenario in bundle.task.scenarios:
        evaluation = comparison.scenario(scenario.name)
        base = evaluation.metrics["baseline"]["test"]["mae"]
        partitioned = evaluation.metrics["tasfar"]["test"]["mae"]
        pooled_pred = nn.predict_batched(pooled_result.target_model, scenario.test.inputs)
        pooled = mae(pooled_pred, scenario.test.targets)
        rows.append(
            [
                scenario.name,
                base,
                partitioned,
                pooled,
                (base - partitioned) / base if base else 0.0,
                (base - pooled) / base if base else 0.0,
            ]
        )
    return ExperimentResult(
        experiment_id="fig20_partitioning",
        description="TASFAR test MAE with per-scene adaptation vs. pooled adaptation",
        columns=["scene", "baseline_mae", "partitioned_mae", "pooled_mae", "red_partitioned", "red_pooled"],
        rows=rows,
        paper_expectation=(
            "per-scene (partitioned) adaptation beats pooled adaptation in every scene, "
            "though pooled adaptation still helps"
        ),
    )
