"""Equivalence regression tests: vectorized vs. loop density-map accumulation.

``LabelDensityMap.add_instances`` evaluates all per-axis interval masses in
one broadcasted call per axis and reduces the per-instance outer products
with a single sum over the instance axis.  The oracle below is the old
implementation — one ``interval_probability``/outer-product/accumulate step
per sample — kept here verbatim so the vectorized path is pinned to it
**bit-for-bit**: elementwise ufuncs are shape-independent, and numpy's
``sum(axis=0)`` adds rows in index order, exactly like the old loop.
"""

import numpy as np
import pytest

from repro.core import LabelDensityMap
from repro.uncertainty.error_models import (
    ErrorModel,
    GaussianErrorModel,
    LaplaceErrorModel,
    UniformErrorModel,
)


def accumulate_loop_oracle(density_map, centers, sigmas, error_model):
    """Old per-sample accumulation (pre-vectorization ``add_instance`` loop)."""
    for center, sigma in zip(centers, sigmas):
        axis_masses = []
        for axis in range(density_map.n_dims):
            edge = density_map.edges[axis]
            mass = error_model.interval_probability(
                float(center[axis]), float(sigma[axis]), edge[:-1], edge[1:]
            )
            axis_masses.append(np.clip(mass, 0.0, None))
        outer = axis_masses[0]
        for masses in axis_masses[1:]:
            outer = np.multiply.outer(outer, masses)
        density_map.densities += outer
        density_map._accumulated += 1


def make_instances(n_dims, n_instances=40, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=1.5, size=(n_instances, n_dims))
    sigmas = np.abs(rng.normal(size=(n_instances, n_dims))) + 0.05
    return centers, sigmas


def make_edges(n_dims):
    return [np.linspace(-4.0, 4.0, 13 + axis) for axis in range(n_dims)]


ERROR_MODELS = {
    "gaussian": GaussianErrorModel,
    "laplace": LaplaceErrorModel,
    "uniform": UniformErrorModel,
}


class TestVectorizedAccumulationMatchesLoop:
    @pytest.mark.parametrize("model_name", sorted(ERROR_MODELS))
    @pytest.mark.parametrize("n_dims", [1, 2, 3])
    def test_bitwise_identical_to_loop_oracle(self, model_name, n_dims):
        error_model = ERROR_MODELS[model_name]()
        centers, sigmas = make_instances(n_dims)

        vectorized = LabelDensityMap(make_edges(n_dims))
        vectorized.add_instances(centers, sigmas, error_model)

        oracle = LabelDensityMap(make_edges(n_dims))
        accumulate_loop_oracle(oracle, centers, sigmas, error_model)

        np.testing.assert_array_equal(vectorized.densities, oracle.densities)
        assert vectorized._accumulated == oracle._accumulated

    def test_scalar_sigma_broadcast_matches_loop(self):
        centers, _ = make_instances(2)
        vectorized = LabelDensityMap(make_edges(2))
        vectorized.add_instances(centers, 0.3)
        oracle = LabelDensityMap(make_edges(2))
        accumulate_loop_oracle(
            oracle, centers, np.full_like(centers, 0.3), GaussianErrorModel()
        )
        np.testing.assert_array_equal(vectorized.densities, oracle.densities)

    def test_add_instance_matches_single_row_batch(self):
        one = LabelDensityMap(make_edges(2))
        one.add_instance(np.array([0.4, -0.2]), np.array([0.3, 0.5]))
        batch = LabelDensityMap(make_edges(2))
        batch.add_instances(np.array([[0.4, -0.2]]), np.array([[0.3, 0.5]]))
        np.testing.assert_array_equal(one.densities, batch.densities)
        assert one._accumulated == batch._accumulated == 1

    def test_empty_batch_is_a_no_op(self):
        density_map = LabelDensityMap(make_edges(1))
        density_map.add_instances(np.empty((0, 1)), np.empty((0, 1)))
        assert density_map.total_mass == 0.0
        assert density_map._accumulated == 0

    def test_custom_scalar_error_model_uses_generic_fallback(self):
        """A subclass overriding only the scalar API must still match the loop."""

        class TriangleErrorModel(ErrorModel):
            name = "triangle"

            def interval_probability(self, center, sigma, lower, upper):
                width = max(sigma, 1e-12) * 2.0
                distance = np.abs((lower + upper) / 2.0 - center)
                return np.clip(1.0 - distance / width, 0.0, None)

        error_model = TriangleErrorModel()
        centers, sigmas = make_instances(2, n_instances=15, seed=3)
        vectorized = LabelDensityMap(make_edges(2))
        vectorized.add_instances(centers, sigmas, error_model)
        oracle = LabelDensityMap(make_edges(2))
        accumulate_loop_oracle(oracle, centers, sigmas, error_model)
        np.testing.assert_array_equal(vectorized.densities, oracle.densities)


class TestBatchIntervalProbability:
    @pytest.mark.parametrize("model_name", sorted(ERROR_MODELS))
    def test_batch_rows_equal_scalar_calls(self, model_name):
        error_model = ERROR_MODELS[model_name]()
        edges = np.linspace(-3.0, 3.0, 15)
        centers = np.array([-1.2, 0.0, 0.7, 2.5])
        sigmas = np.array([0.2, 0.5, 1.0, 0.05])
        batch = error_model.batch_interval_probability(centers, sigmas, edges)
        assert batch.shape == (4, 14)
        for row, (center, sigma) in enumerate(zip(centers, sigmas)):
            scalar = error_model.interval_probability(
                float(center), float(sigma), edges[:-1], edges[1:]
            )
            np.testing.assert_array_equal(batch[row], scalar)

    def test_batch_masses_are_valid_probabilities(self):
        edges = np.linspace(-10.0, 10.0, 400)
        centers = np.array([0.0, 1.0, -2.0])
        sigmas = np.array([0.3, 0.8, 0.1])
        for error_model in (GaussianErrorModel(), LaplaceErrorModel(), UniformErrorModel()):
            batch = error_model.batch_interval_probability(centers, sigmas, edges)
            assert np.all(batch >= -1e-12)
            np.testing.assert_allclose(batch.sum(axis=1), 1.0, atol=1e-6)
