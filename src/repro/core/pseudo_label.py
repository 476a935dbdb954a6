"""Pseudo-label generator (Algorithm 3 of the paper).

For every uncertain sample the generator combines two sources of information:

* the *prior* — the label density map estimated from confident data, which
  captures the scenario's label distribution; and
* the *likelihood* — the instance-label distribution centred on the source
  model's prediction with spread ``Q_s(u)``.

The posterior over grid cells is their product (Eq. 14), restricted to a
3-sigma locality around the prediction (Eq. 20).  The pseudo-label is the
density-weighted interpolation of cell centres (Eq. 15), and its credibility
``beta_t`` scales with how uncertain the prediction is and how dense the local
neighbourhood of the map is (Eq. 18–21).

All uncertain samples are labelled in one vectorized pass: locality masks,
likelihoods and posteriors are ``(n, cells)`` arrays, and each row is
bit-identical to labelling that sample on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..uncertainty.error_models import ErrorModel, get_error_model
from .density_map import LabelDensityMap, row_outer_product
from .estimator import LabelDistributionEstimator

__all__ = ["PseudoLabelBatch", "PseudoLabelGenerator"]

#: Cells per vectorized block (rows x grid cells): bounds each work array to
#: 8 MB however many samples are uncertain.  Rows are independent, so the
#: block size never changes an output bit.
_BLOCK_CELLS = 1 << 20


@dataclass
class PseudoLabelBatch:
    """Pseudo-labels and credibility weights for a batch of uncertain samples."""

    pseudo_labels: np.ndarray
    credibilities: np.ndarray
    predictions: np.ndarray
    sigmas: np.ndarray

    def __len__(self) -> int:
        return len(self.pseudo_labels)


class PseudoLabelGenerator:
    """Generate pseudo-labels for uncertain data from a label density map.

    Parameters
    ----------
    estimator:
        The fitted label-distribution estimator; re-used for its calibrators
        (``Q_s``) and error model so likelihoods match the map construction.
    threshold:
        The confidence threshold ``tau`` (used to normalize credibility).
    locality_sigmas:
        Size of the posterior support in sigmas (paper: 3).
    mode:
        ``"interpolate"`` (Eq. 15) or ``"argmax"`` (highest posterior cell).
    """

    def __init__(
        self,
        estimator: LabelDistributionEstimator,
        threshold: float,
        locality_sigmas: float = 3.0,
        mode: str = "interpolate",
        error_model: str | ErrorModel | None = None,
    ) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if locality_sigmas <= 0:
            raise ValueError("locality_sigmas must be positive")
        if mode not in ("interpolate", "argmax"):
            raise ValueError("mode must be 'interpolate' or 'argmax'")
        self.estimator = estimator
        self.threshold = float(threshold)
        self.locality_sigmas = float(locality_sigmas)
        self.mode = mode
        if error_model is None:
            self.error_model = estimator.error_model
        else:
            self.error_model = (
                error_model if isinstance(error_model, ErrorModel) else get_error_model(error_model)
            )

    # ------------------------------------------------------------------
    # Pseudo-labelling
    # ------------------------------------------------------------------
    def pseudo_label_one(
        self,
        density_map: LabelDensityMap,
        prediction: np.ndarray,
        sigma: np.ndarray,
        uncertainty: float,
    ) -> tuple[np.ndarray, float]:
        """Pseudo-label a single uncertain sample (a one-row :meth:`pseudo_label`).

        Returns
        -------
        tuple
            ``(pseudo_label, credibility)``.  When the locality holds no
            density mass the pseudo-label falls back to the model prediction
            with zero credibility, which keeps such samples from harming the
            adaptation (the failure-case behaviour discussed in Section IV-B5).
        """
        prediction = np.atleast_1d(np.asarray(prediction, dtype=np.float64))
        sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), prediction.shape)
        pseudo_labels, credibilities = self._label_rows(
            density_map, prediction[None], sigma[None], np.array([uncertainty], dtype=np.float64)
        )
        return pseudo_labels[0], float(credibilities[0])

    def pseudo_label(
        self,
        density_map: LabelDensityMap,
        predictions: np.ndarray,
        uncertainties: np.ndarray,
    ) -> PseudoLabelBatch:
        """Pseudo-label a batch of uncertain samples.

        Parameters
        ----------
        density_map:
            The estimated label density map (prior).
        predictions:
            Source-model mean predictions, shape ``(n, n_dims)``.
        uncertainties:
            Scalar prediction uncertainty ``u_t`` per sample; it feeds ``Q_s``
            and the credibility normalization against ``tau``.
        """
        predictions = np.atleast_2d(np.asarray(predictions, dtype=np.float64))
        uncertainties = np.asarray(uncertainties, dtype=np.float64).ravel()
        if len(predictions) != len(uncertainties):
            raise ValueError("predictions and uncertainties must have the same length")
        sigmas = self.estimator.sigma_for(uncertainties)
        pseudo_labels, credibilities = self._label_rows(
            density_map, predictions, sigmas, uncertainties
        )
        return PseudoLabelBatch(
            pseudo_labels=pseudo_labels,
            credibilities=credibilities,
            predictions=predictions,
            sigmas=sigmas,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _label_rows(
        self,
        density_map: LabelDensityMap,
        predictions: np.ndarray,
        sigmas: np.ndarray,
        uncertainties: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pseudo-labels and credibilities of ``(n, n_dims)`` rows, in row blocks."""
        if predictions.shape[1] != density_map.n_dims:
            raise ValueError(
                f"expected predictions with {density_map.n_dims} dimensions, "
                f"got {predictions.shape[1]}"
            )
        pseudo_labels = predictions.copy()
        credibilities = np.zeros(len(predictions))
        block = max(1, _BLOCK_CELLS // density_map.densities.size)
        for start in range(0, len(predictions), block):
            rows = slice(start, start + block)
            self._label_block(
                density_map,
                predictions[rows],
                sigmas[rows],
                uncertainties[rows],
                pseudo_labels[rows],
                credibilities[rows],
            )
        return pseudo_labels, credibilities

    def _label_block(
        self,
        density_map: LabelDensityMap,
        predictions: np.ndarray,
        sigmas: np.ndarray,
        uncertainties: np.ndarray,
        pseudo_labels: np.ndarray,
        credibilities: np.ndarray,
    ) -> None:
        """Fill one block's pseudo-labels and credibilities in place.

        ``pseudo_labels`` arrives holding the predictions and
        ``credibilities`` holding zeros: the fallback of a row whose locality
        is empty (or, for the pseudo-label, holds no posterior mass).  Every
        step is an elementwise op, a per-row reduction or a per-row BLAS dot,
        so each row is bit-identical to labelling it on its own.
        """
        n_dims = density_map.n_dims
        centers = density_map.cell_centers
        radius = self.locality_sigmas * sigmas
        # Eq. 20: the locality is a per-axis box |centre - prediction| < radius.
        axis_masks = [
            np.abs(centers[axis] - predictions[:, axis, None]) < radius[:, axis, None]
            for axis in range(n_dims)
        ]
        rows = np.flatnonzero(np.logical_and.reduce([mask.any(axis=1) for mask in axis_masks]))
        if rows.size == 0:
            return
        axis_masks = [mask[rows] for mask in axis_masks]
        predictions, sigmas = predictions[rows], sigmas[rows]

        # Eq. 14: prior times the instance-label likelihood, inside the box.
        likelihood = row_outer_product(
            [
                np.clip(
                    self.error_model.batch_interval_probability(
                        predictions[:, axis], sigmas[:, axis], edges
                    ),
                    0.0,
                    None,
                )
                for axis, edges in enumerate(density_map.edges)
            ]
        )
        boxes = row_outer_product(axis_masks)
        posterior = np.where(boxes, density_map.densities * likelihood, 0.0)
        flat = posterior.reshape(len(rows), -1)
        mass = flat.sum(axis=1)
        labelled = ~(mass <= 0)  # a NaN mass is labelled (and stays NaN)
        if self.mode == "argmax":
            cells = np.unravel_index(np.argmax(flat[labelled], axis=1), density_map.shape)
            values = np.column_stack([centers[axis][cells[axis]] for axis in range(n_dims)])
        else:
            # Eq. 15: posterior-weighted mean of the cell centres per axis.  The
            # stacked (1, c) @ (c, 1) matmul runs one BLAS dot per row, as
            # np.dot did; a single (m, c) @ (c,) gemv rounds differently.
            weights = posterior[labelled] / mass[labelled].reshape(-1, *([1] * n_dims))
            values = np.column_stack(
                [
                    np.matmul(
                        weights.sum(axis=tuple(1 + i for i in range(n_dims) if i != axis))[:, None],
                        centers[axis][:, None],
                    )[:, 0, 0]
                    for axis in range(n_dims)
                ]
            )
        pseudo_labels[rows[labelled]] = values

        # Eq. 18-21: beta_t = (d_local / d_global) * (u_t / tau).  Higher
        # uncertainty trusts the prior more, and a locally dense map means
        # the prior is informative; both push the credibility up.
        global_density = density_map.global_mean_density
        if global_density <= 0:
            return
        local_density = _box_mean_densities(density_map.densities, boxes.reshape(len(rows), -1))
        credibilities[rows] = local_density / global_density * (uncertainties[rows] / self.threshold)


def _box_mean_densities(densities: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Mean density of each row's locality (the ``d_bar_l`` of Eq. 19).

    ``boxes`` is an ``(m, cells)`` mask.  ``nonzero`` lists each row's cells
    in the order ``densities[mask]`` takes them, so after sorting the rows by
    cell count, the rows of one count are contiguous ``(rows, count)``
    blocks whose ``sum(axis=1)`` is the pairwise sum ``mean`` takes on each
    row alone.  (A zero-padded masked sum over the grid rounds differently.)
    """
    sizes = boxes.sum(axis=1)
    order = np.argsort(sizes, kind="stable")
    sizes = sizes[order]
    cells = densities.ravel()[np.nonzero(boxes[order])[1]]
    bounds = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), len(sizes)]
    ends = np.cumsum(sizes).tolist()
    sums = np.empty(len(sizes))
    for first, last in zip(bounds[:-1], bounds[1:]):
        size = int(sizes[first])
        block = cells[ends[first] - size : ends[last - 1]].reshape(last - first, size)
        sums[first:last] = block.sum(axis=1)
    means = np.empty(len(sizes))
    means[order] = sums / sizes
    return means
