"""Fig. 22: the failure case — a target mixing the data of two different users.

When two users' data are pooled into one "target scenario", the label
distribution displays a double-ring shape: one user's distribution is not a
useful prior for the other, so TASFAR only marginally improves over the source
model (it degrades gracefully because pseudo-labels stay close to the source
predictions and the spread-out density map yields small credibility weights).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core import TasfarConfig
from ..data import merge_scenarios
from ..engine import TasfarStrategy
from ..metrics import step_error
from .base import ExperimentResult, get_bundle
from .comparison import get_comparison
from .helpers import build_calibration, estimate_scenario_density

__all__ = ["fig22_failure_case"]


def _pick_dissimilar_users(bundle) -> tuple:
    """Pick the two users whose stride-length distributions differ the most."""
    scenarios = bundle.task.scenarios
    means = [float(np.linalg.norm(s.adaptation.targets, axis=1).mean()) for s in scenarios]
    low = scenarios[int(np.argmin(means))]
    high = scenarios[int(np.argmax(means))]
    if low.name == high.name and len(scenarios) > 1:
        high = scenarios[1]
    return low, high


def fig22_failure_case(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Mix two users into one target and measure how much TASFAR still helps."""
    bundle = get_bundle("pdr", scale, seed)
    comparison = get_comparison("pdr", scale, seed)
    user_a, user_b = _pick_dissimilar_users(bundle)

    mixed = merge_scenarios([user_a, user_b], name="mixed_users")
    strategy = TasfarStrategy(TasfarConfig(seed=seed), calibration=bundle.calibration)
    result = strategy.adapt(bundle.source_model, mixed.adaptation.inputs)

    base_mixed = step_error(bundle.predict(mixed.adaptation.inputs), mixed.adaptation.targets)
    adapted_mixed = step_error(
        nn.predict_batched(result.target_model, mixed.adaptation.inputs), mixed.adaptation.targets
    )
    mixed_reduction = (base_mixed - adapted_mixed) / base_mixed if base_mixed else 0.0

    per_user_reductions = []
    for user in (user_a, user_b):
        evaluation = comparison.scenario(user.name)
        base = evaluation.metrics["baseline"]["adaptation"]["ste"]
        adapted = evaluation.metrics["tasfar"]["adaptation"]["ste"]
        per_user_reductions.append((base - adapted) / base if base else 0.0)

    # Characterize the mixed label distribution: spread of step lengths shows the
    # double-ring structure (bimodality) relative to the single users.
    calibration = build_calibration(bundle)
    mixed_map, _, _ = estimate_scenario_density(bundle, mixed, calibration)
    rows = [
        ["mixed_target", mixed_reduction, base_mixed, adapted_mixed],
        [f"per_user_{user_a.name}", per_user_reductions[0], np.nan, np.nan],
        [f"per_user_{user_b.name}", per_user_reductions[1], np.nan, np.nan],
    ]
    return ExperimentResult(
        experiment_id="fig22_failure_case",
        description="Failure case: adapting to a target that mixes two users' data",
        columns=["setting", "ste_reduction", "baseline_ste", "adapted_ste"],
        rows=rows,
        paper_expectation=(
            "adaptation on the mixed target brings only a marginal improvement (~1% in the paper), "
            "well below the per-user adaptations, because the double-ring label distribution of one "
            "user cannot serve as the prior of the other"
        ),
        notes={
            "users": (user_a.name, user_b.name),
            "mixed_map_entropy": float(
                -(mixed_map.densities[mixed_map.densities > 0]
                  * np.log(mixed_map.densities[mixed_map.densities > 0])).sum()
            ),
            "per_user_mean_reduction": float(np.mean(per_user_reductions)),
        },
    )
