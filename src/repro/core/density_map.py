"""Label density map: the grid representation of the target label distribution.

The map is an N-dimensional histogram over label space (1-D for counts,
prices, durations; 2-D for the PDR displacement vector).  Instead of counting
hard labels — which are unavailable — the label distribution estimator
accumulates the probability mass of per-sample instance-label distributions
(Eq. 10–12).  Label dimensions are treated as independent, as the paper
suggests for multi-dimensional labels, so a cell's mass is the product of
per-axis interval probabilities.
"""

from __future__ import annotations

import numpy as np

from ..uncertainty.error_models import ErrorModel, GaussianErrorModel

__all__ = ["LabelDensityMap"]


class LabelDensityMap:
    """Grid of label densities over an axis-aligned region of label space.

    Parameters
    ----------
    edges:
        One array of bin edges per label dimension.  Each array must be
        strictly increasing with at least two entries.
    """

    def __init__(self, edges: list[np.ndarray]) -> None:
        if not edges:
            raise ValueError("at least one dimension of edges is required")
        self.edges = [np.asarray(edge, dtype=np.float64) for edge in edges]
        for axis, edge in enumerate(self.edges):
            if edge.ndim != 1 or len(edge) < 2:
                raise ValueError(f"edges for axis {axis} must be 1-D with at least 2 entries")
            if np.any(np.diff(edge) <= 0):
                raise ValueError(f"edges for axis {axis} must be strictly increasing")
        self.shape = tuple(len(edge) - 1 for edge in self.edges)
        self.densities = np.zeros(self.shape, dtype=np.float64)
        self._accumulated = 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_range(
        cls,
        lower: np.ndarray,
        upper: np.ndarray,
        grid_size: np.ndarray,
    ) -> "LabelDensityMap":
        """Build a map covering ``[lower, upper]`` with cells of ``grid_size``.

        All three arguments are broadcast per label dimension.  The upper edge
        is extended so the final cell is complete.
        """
        lower = np.atleast_1d(np.asarray(lower, dtype=np.float64))
        upper = np.atleast_1d(np.asarray(upper, dtype=np.float64))
        grid_size = np.broadcast_to(np.asarray(grid_size, dtype=np.float64), lower.shape)
        if lower.shape != upper.shape:
            raise ValueError("lower and upper must have the same shape")
        if np.any(upper <= lower):
            raise ValueError("upper must exceed lower in every dimension")
        if np.any(grid_size <= 0):
            raise ValueError("grid_size must be positive")
        edges = []
        for low, high, size in zip(lower, upper, grid_size):
            n_cells = max(1, int(np.ceil((high - low) / size)))
            edges.append(low + size * np.arange(n_cells + 1))
        return cls(edges)

    @classmethod
    def from_labels(cls, labels: np.ndarray, edges: list[np.ndarray]) -> "LabelDensityMap":
        """Ground-truth density map: a normalized histogram of true labels.

        Used to evaluate the label distribution estimator (Fig. 6 and 7).
        """
        labels = np.atleast_2d(np.asarray(labels, dtype=np.float64))
        density_map = cls(edges)
        histogram, _ = np.histogramdd(labels, bins=density_map.edges)
        density_map.densities = histogram
        density_map._accumulated = len(labels)
        density_map.normalize()
        return density_map

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def n_dims(self) -> int:
        """Number of label dimensions."""
        return len(self.edges)

    @property
    def cell_centers(self) -> list[np.ndarray]:
        """Centre coordinate of every cell along each axis."""
        return [(edge[:-1] + edge[1:]) / 2.0 for edge in self.edges]

    @property
    def cell_sizes(self) -> list[np.ndarray]:
        """Width of every cell along each axis."""
        return [np.diff(edge) for edge in self.edges]

    @property
    def global_mean_density(self) -> float:
        """Mean density over all cells (the ``d_bar_i`` of Eq. 19)."""
        return float(self.densities.mean())

    @property
    def total_mass(self) -> float:
        """Sum of all cell densities."""
        return float(self.densities.sum())

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def add_instance(
        self,
        center: np.ndarray,
        sigma: np.ndarray,
        error_model: ErrorModel | None = None,
    ) -> None:
        """Accumulate one instance-label distribution into the map (Eq. 10).

        Parameters
        ----------
        center:
            Predicted label, one value per dimension.
        sigma:
            Standard deviation of the instance-label distribution per
            dimension (``Q_s(u)``).
        error_model:
            Distribution family; defaults to Gaussian.
        """
        center = np.atleast_1d(np.asarray(center, dtype=np.float64))
        if center.shape != (self.n_dims,):
            raise ValueError(f"center must have {self.n_dims} dimensions, got {center.shape}")
        sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), center.shape)
        self.add_instances(center[None, :], sigma[None, :], error_model)

    def add_instances(
        self,
        centers: np.ndarray,
        sigmas: np.ndarray,
        error_model: ErrorModel | None = None,
    ) -> None:
        """Accumulate a batch of instance-label distributions (vectorized).

        All per-axis interval masses are evaluated in one broadcasted call
        per axis (``ErrorModel.batch_interval_probability``) and the
        per-instance outer products are reduced with a single ``sum`` over
        the instance axis, instead of a Python loop over samples.  The
        instance-axis reduction adds rows in index order, so the result is
        bit-identical to accumulating the instances one by one into a fresh
        map.
        """
        error_model = error_model if error_model is not None else GaussianErrorModel()
        centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        if centers.shape[1] != self.n_dims:
            raise ValueError(
                f"centers must have {self.n_dims} dimensions, got {centers.shape[1]}"
            )
        sigmas = np.broadcast_to(np.asarray(sigmas, dtype=np.float64), centers.shape)
        n_instances = len(centers)
        if n_instances == 0:
            return
        axis_masses = []
        for axis in range(self.n_dims):
            mass = error_model.batch_interval_probability(
                centers[:, axis], sigmas[:, axis], self.edges[axis]
            )
            axis_masses.append(np.clip(mass, 0.0, None))
        self.densities += row_outer_product(axis_masses).sum(axis=0)
        self._accumulated += n_instances

    def normalize(self) -> "LabelDensityMap":
        """Normalize the map so the densities sum to one."""
        total = self.densities.sum()
        if total > 0:
            self.densities = self.densities / total
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def locality_mask(self, center: np.ndarray, radius: np.ndarray) -> np.ndarray:
        """Boolean mask of cells whose centres lie within ``radius`` of ``center``.

        The locality is a per-axis box (|centre - prediction| < radius per
        dimension), matching the paper's 3-sigma neighbourhood (Eq. 20).
        """
        center = np.atleast_1d(np.asarray(center, dtype=np.float64))
        radius = np.broadcast_to(np.asarray(radius, dtype=np.float64), center.shape)
        axis_masks = [
            np.abs(self.cell_centers[axis] - center[axis]) < radius[axis]
            for axis in range(self.n_dims)
        ]
        return _outer_product([mask.astype(np.float64) for mask in axis_masks]) > 0

    def local_mean_density(self, center: np.ndarray, radius: np.ndarray) -> float:
        """Mean density of the cells in the locality of ``center`` (``d_bar_l``)."""
        mask = self.locality_mask(center, radius)
        if not mask.any():
            return 0.0
        return float(self.densities[mask].mean())

    def cell_volumes(self) -> np.ndarray:
        """Volume (length/area/...) of every cell, shaped like ``densities``."""
        volumes = self.cell_sizes[0]
        for sizes in self.cell_sizes[1:]:
            volumes = np.multiply.outer(volumes, sizes)
        return volumes

    def density_per_unit(self) -> np.ndarray:
        """Cell mass divided by cell volume (a proper probability density)."""
        return self.densities / self.cell_volumes()

    def mean_absolute_error(self, other: "LabelDensityMap", per_unit: bool = False) -> float:
        """MAE between two maps defined on the same grid (Fig. 7).

        With ``per_unit=True`` the comparison uses per-unit-volume densities,
        which makes the error comparable across different grid sizes.
        """
        if self.shape != other.shape:
            raise ValueError(f"maps have different shapes: {self.shape} vs {other.shape}")
        if per_unit:
            return float(np.abs(self.density_per_unit() - other.density_per_unit()).mean())
        return float(np.abs(self.densities - other.densities).mean())

    def marginal(self, axis: int) -> np.ndarray:
        """Marginal density along one axis (sums over the other axes)."""
        if not 0 <= axis < self.n_dims:
            raise ValueError(f"axis {axis} out of range for {self.n_dims}-D map")
        other_axes = tuple(i for i in range(self.n_dims) if i != axis)
        return self.densities.sum(axis=other_axes)

    def copy(self) -> "LabelDensityMap":
        """Deep copy of the map."""
        clone = LabelDensityMap([edge.copy() for edge in self.edges])
        clone.densities = self.densities.copy()
        clone._accumulated = self._accumulated
        return clone


def row_outer_product(rows: list[np.ndarray]) -> np.ndarray:
    """Per-row outer products of ``(n, c_i)`` arrays, shape ``(n, c_1, c_2, ...)``.

    Broadcasting ``(n, c1, 1, ...) * (n, 1, c2, ...)`` multiplies the same
    elements in the same order as ``np.multiply.outer`` on each row, so every
    row is bit-identical to :func:`_outer_product` of that row's vectors.
    """
    product = rows[0]
    for row in rows[1:]:
        product = product[..., None] * row.reshape(
            len(row), *([1] * (product.ndim - 1)), row.shape[1]
        )
    return product


def _outer_product(vectors: list[np.ndarray]) -> np.ndarray:
    """Outer product of 1-D vectors producing an N-D array."""
    result = vectors[0]
    for vector in vectors[1:]:
        result = np.multiply.outer(result, vector)
    return result
