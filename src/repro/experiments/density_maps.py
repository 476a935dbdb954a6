"""Label-density-map studies: Fig. 6 (estimated vs. true maps) and Fig. 7 (grid size).

Fig. 6 visualizes the estimated and ground-truth 2-D displacement density maps
of two PDR users and observes that the estimator captures the ring shape and
its clusters.  Fig. 7 sweeps the grid size and reports the mean absolute error
of the estimated map, which falls as the grid gets coarser.
"""

from __future__ import annotations

import numpy as np

from ..core import LabelDensityMap
from .base import ExperimentResult, get_bundle
from .helpers import build_calibration, estimate_scenario_density, true_density_map

__all__ = ["fig6_density_maps", "fig7_grid_size_map_error", "map_similarity"]


def map_similarity(estimated: LabelDensityMap, truth: LabelDensityMap) -> dict[str, float]:
    """Similarity statistics between an estimated and a ground-truth map."""
    mae = estimated.mean_absolute_error(truth)
    est = estimated.densities.ravel()
    ref = truth.densities.ravel()
    if est.std() > 0 and ref.std() > 0:
        correlation = float(np.corrcoef(est, ref)[0, 1])
    else:
        correlation = 0.0
    overlap = float(np.minimum(est, ref).sum())
    return {"mae": mae, "correlation": correlation, "overlap": overlap}


def fig6_density_maps(scale: str = "small", seed: int = 0, n_users: int = 2) -> ExperimentResult:
    """Estimated vs. true 2-D label density maps for a couple of PDR users."""
    bundle = get_bundle("pdr", scale, seed)
    calibration = build_calibration(bundle)
    rows = []
    maps = {}
    for scenario in bundle.task.scenarios[:n_users]:
        estimated, _, _ = estimate_scenario_density(bundle, scenario, calibration)
        truth = true_density_map(scenario.adaptation.targets, estimated)
        similarity = map_similarity(estimated, truth)
        maps[scenario.name] = {
            kind: {"edges": density_map.edges, "densities": density_map.densities}
            for kind, density_map in (("estimated", estimated), ("true", truth))
        }
        rows.append(
            [
                scenario.name,
                similarity["mae"],
                similarity["correlation"],
                similarity["overlap"],
                float(np.linalg.norm(scenario.adaptation.targets, axis=1).mean()),
            ]
        )
    return ExperimentResult(
        experiment_id="fig6_density_maps",
        description="Estimated vs. true label density maps (2-D PDR displacements)",
        columns=["user", "map_mae", "map_correlation", "map_overlap", "ring_radius"],
        rows=rows,
        paper_expectation=(
            "the estimated maps capture the ring-shaped pattern of the true maps "
            "(high correlation/overlap, low MAE)"
        ),
        notes={"maps": maps},
    )


def fig7_grid_size_map_error(
    scale: str = "small",
    seed: int = 0,
    grid_sizes: tuple[float, ...] = (0.05, 0.1, 0.2, 0.4, 0.8),
) -> ExperimentResult:
    """Density-map estimation error as a function of the grid size."""
    bundle = get_bundle("pdr", scale, seed)
    calibration = build_calibration(bundle)
    scenario = bundle.task.scenarios[0]
    rows = []
    for grid_size in grid_sizes:
        estimated, _, _ = estimate_scenario_density(
            bundle, scenario, calibration, grid_size=grid_size
        )
        truth = true_density_map(scenario.adaptation.targets, estimated)
        rows.append(
            [
                grid_size,
                estimated.mean_absolute_error(truth, per_unit=True),
                estimated.mean_absolute_error(truth),
                int(np.prod(estimated.shape)),
            ]
        )
    return ExperimentResult(
        experiment_id="fig7_grid_size_map_error",
        description="Label-density-map MAE vs. grid size",
        columns=["grid_size_m", "map_mae_per_unit", "map_mae_mass", "n_cells"],
        rows=rows,
        paper_expectation="larger grid sizes give lower map estimation error (MAE falls monotonically)",
    )
