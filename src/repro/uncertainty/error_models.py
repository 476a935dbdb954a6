"""Instance-label error models.

The label distribution estimator accumulates, for each confident prediction, a
probability distribution of where the true label lies (Eq. 5 and Fig. 4).  The
paper uses a Gaussian by default and reports in Fig. 8 that other
distributional forms behave similarly as long as the spread grows with
uncertainty.  This module provides the three families compared there:
Gaussian, Laplace and Uniform.

Each error model exposes ``interval_probability`` which integrates the density
over a grid interval — the quantity accumulated into the label density map
(Eq. 10) — and ``batch_interval_probability``, the same masses for a batch of
instances over a whole grid axis, from one CDF evaluation per grid edge.
"""

from __future__ import annotations

import numpy as np

from .special import erf

__all__ = ["ErrorModel", "GaussianErrorModel", "LaplaceErrorModel", "UniformErrorModel", "get_error_model"]


class ErrorModel:
    """Distribution of the true label around a prediction with scale ``sigma``."""

    name = "base"

    def interval_probability(
        self, center: float, sigma: float, lower: np.ndarray, upper: np.ndarray
    ) -> np.ndarray:
        """Probability mass assigned to each ``[lower, upper)`` interval."""
        raise NotImplementedError

    def cdf(self, value: np.ndarray, center: float, sigma: float) -> np.ndarray:
        """Cumulative distribution function."""
        raise NotImplementedError

    def batch_interval_probability(
        self, centers: np.ndarray, sigmas: np.ndarray, edges: np.ndarray
    ) -> np.ndarray:
        """Masses of a whole batch of instances over the cells between ``edges``.

        Parameters
        ----------
        centers, sigmas:
            Per-instance location and scale, shape ``(n_instances,)``.
        edges:
            Ascending cell edges shared by all instances, shape
            ``(n_cells + 1,)``.

        Returns
        -------
        np.ndarray
            Mass matrix of shape ``(n_instances, n_cells)``.  The built-in
            families evaluate their CDF once per edge and difference adjacent
            edges; this generic fallback loops over instances so any custom
            scalar-only subclass keeps working with the vectorized
            density-map path.
        """
        centers = np.asarray(centers, dtype=np.float64).ravel()
        sigmas = np.asarray(sigmas, dtype=np.float64).ravel()
        edges = np.asarray(edges, dtype=np.float64)
        return np.stack(
            [
                self.interval_probability(float(center), float(sigma), edges[:-1], edges[1:])
                for center, sigma in zip(centers, sigmas)
            ],
            axis=0,
        )


class _ClosedFormErrorModel(ErrorModel):
    """A family whose ``cdf`` broadcasts over array-valued centers and scales."""

    def interval_probability(self, center, sigma, lower, upper):
        return self.cdf(upper, center, sigma) - self.cdf(lower, center, sigma)

    def batch_interval_probability(self, centers, sigmas, edges):
        centers = np.asarray(centers, dtype=np.float64).reshape(-1, 1)
        sigmas = np.asarray(sigmas, dtype=np.float64).reshape(-1, 1)
        cdf = self.cdf(edges, centers, sigmas)
        return cdf[:, 1:] - cdf[:, :-1]


class GaussianErrorModel(_ClosedFormErrorModel):
    """Gaussian instance-label distribution (paper default, Eq. 5/11)."""

    name = "gaussian"

    def cdf(self, value, center, sigma):
        value = np.asarray(value, dtype=np.float64)
        z = (value - center) / (np.sqrt(2.0) * np.maximum(sigma, 1e-12))
        return 0.5 * (1.0 + erf(z))


class LaplaceErrorModel(_ClosedFormErrorModel):
    """Laplace instance-label distribution with matching standard deviation."""

    name = "laplace"

    def cdf(self, value, center, sigma):
        value = np.asarray(value, dtype=np.float64)
        # A Laplace(b) has std sqrt(2) * b; match the requested sigma.
        scale = np.maximum(sigma, 1e-12) / np.sqrt(2.0)
        z = np.clip((value - center) / scale, -700.0, 700.0)
        return np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))


class UniformErrorModel(_ClosedFormErrorModel):
    """Uniform instance-label distribution with matching standard deviation."""

    name = "uniform"

    def cdf(self, value, center, sigma):
        value = np.asarray(value, dtype=np.float64)
        # A Uniform(-h, h) has std h / sqrt(3); match the requested sigma.
        half_width = np.maximum(sigma, 1e-12) * np.sqrt(3.0)
        z = (value - (center - half_width)) / (2.0 * half_width)
        return np.clip(z, 0.0, 1.0)


_ERROR_MODELS = {
    "gaussian": GaussianErrorModel,
    "laplace": LaplaceErrorModel,
    "uniform": UniformErrorModel,
}


def get_error_model(name: str) -> ErrorModel:
    """Look up an error model by name (``gaussian``, ``laplace`` or ``uniform``)."""
    try:
        return _ERROR_MODELS[name.lower()]()
    except KeyError as exc:
        raise ValueError(
            f"unknown error model {name!r}; expected one of {sorted(_ERROR_MODELS)}"
        ) from exc
