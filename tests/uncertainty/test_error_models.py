"""Tests for the instance-label error models (Gaussian, Laplace, Uniform) and ``erf``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uncertainty import (
    GaussianErrorModel,
    LaplaceErrorModel,
    UniformErrorModel,
    get_error_model,
)
from repro.uncertainty.special import erf

ALL_MODELS = [GaussianErrorModel(), LaplaceErrorModel(), UniformErrorModel()]


class TestErrorModels:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_total_mass_close_to_one(self, model):
        edges = np.linspace(-50.0, 50.0, 2001)
        mass = model.interval_probability(0.0, 1.0, edges[:-1], edges[1:])
        assert mass.sum() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_cdf_monotone(self, model):
        grid = np.linspace(-5, 5, 101)
        cdf = model.cdf(grid, center=0.3, sigma=0.7)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] <= 0.01 and cdf[-1] >= 0.99

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_mass_concentrated_near_center(self, model):
        lower = np.array([-1.0])
        upper = np.array([1.0])
        near = model.interval_probability(0.0, 0.5, lower, upper)[0]
        far = model.interval_probability(10.0, 0.5, lower, upper)[0]
        assert near > 0.9
        assert far < 1e-6

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_matching_standard_deviation(self, model):
        """Every family is parameterized so its std equals the requested sigma."""
        sigma = 0.8
        edges = np.linspace(-20, 20, 4001)
        centers = (edges[:-1] + edges[1:]) / 2
        mass = model.interval_probability(0.0, sigma, edges[:-1], edges[1:])
        empirical_std = np.sqrt((mass * centers**2).sum())
        assert empirical_std == pytest.approx(sigma, rel=0.02)

    def test_gaussian_symmetric(self):
        model = GaussianErrorModel()
        left = model.interval_probability(0.0, 1.0, np.array([-2.0]), np.array([-1.0]))
        right = model.interval_probability(0.0, 1.0, np.array([1.0]), np.array([2.0]))
        assert left[0] == pytest.approx(right[0])

    def test_uniform_support_is_bounded(self):
        model = UniformErrorModel()
        sigma = 1.0
        half_width = sigma * np.sqrt(3.0)
        outside = model.interval_probability(
            0.0, sigma, np.array([half_width + 0.01]), np.array([half_width + 1.0])
        )
        assert outside[0] == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_sigma_does_not_crash(self):
        for model in ALL_MODELS:
            mass = model.interval_probability(0.0, 0.0, np.array([-1.0]), np.array([1.0]))
            assert np.isfinite(mass).all()


class TestGetErrorModel:
    def test_lookup(self):
        assert isinstance(get_error_model("gaussian"), GaussianErrorModel)
        assert isinstance(get_error_model("Laplace"), LaplaceErrorModel)
        assert isinstance(get_error_model("UNIFORM"), UniformErrorModel)

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown error model"):
            get_error_model("cauchy")


class TestErrorModelProperties:
    @given(
        st.sampled_from(["gaussian", "laplace", "uniform"]),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=0.05, max_value=3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_interval_probabilities_are_valid(self, name, center, sigma):
        model = get_error_model(name)
        edges = np.linspace(center - 10 * sigma, center + 10 * sigma, 101)
        mass = model.interval_probability(center, sigma, edges[:-1], edges[1:])
        assert np.all(mass >= -1e-12)
        assert mass.sum() <= 1.0 + 1e-6


# (input as ``float.hex``, float64 bits of its erf), recorded from
# ``scipy.special.erf`` (Cephes, glibc ``exp``) on x86-64 Linux.  Covers both
# signed zeros, subnormals, both sides of the |x| = 1 and |x| = 6 branch
# points, the erfc range past 8, infinities and NaN.  The last rows are inputs
# where an erfc term computed with numpy's SIMD float64 ``exp`` instead of the
# C library's lands 1 ulp off.
ERF_BITS = [
    ("0x0.0p+0", 0x0000000000000000),
    ("-0x0.0p+0", 0x8000000000000000),
    ("0x0.0000000000001p-1022", 0x0000000000000001),
    ("-0x0.0000000000001p-1022", 0x8000000000000001),
    ("0x1.0000000000000p-1022", 0x00120DD750429B6D),
    ("0x1.b7cdfd9d7bdbbp-34", 0x3DDF044332D68161),
    ("0x1.0000000000000p-1", 0x3FE0A7EF5C18EDD2),
    ("-0x1.0000000000000p-1", 0xBFE0A7EF5C18EDD2),
    ("0x1.fffffffffffffp-1", 0x3FEAF767A741088A),
    ("0x1.0000000000000p+0", 0x3FEAF767A741088A),
    ("-0x1.0000000000000p+0", 0xBFEAF767A741088A),
    ("0x1.0000000000001p+0", 0x3FEAF767A741088C),
    ("0x1.8000000000000p+0", 0x3FEEEA5557137AE0),
    ("-0x1.2000000000000p+1", 0xBFEFF404760319B4),
    ("0x1.8000000000000p+1", 0x3FEFFFD1AC4135F9),
    ("0x1.3000000000000p+2", 0x3FEFFFFFFFFD759D),
    ("0x1.7ffffffffffffp+2", 0x3FF0000000000000),
    ("0x1.8000000000000p+2", 0x3FF0000000000000),
    ("-0x1.8000000000000p+2", 0xBFF0000000000000),
    ("0x1.0000000000000p+3", 0x3FF0000000000000),
    ("-0x1.0000000000000p+3", 0xBFF0000000000000),
    ("0x1.b000000000000p+4", 0x3FF0000000000000),
    ("0x1.7e43c8800759cp+996", 0x3FF0000000000000),
    ("inf", 0x3FF0000000000000),
    ("-inf", 0xBFF0000000000000),
    ("nan", 0x7FF8000000000000),
    ("0x1.23c0f0231b1acp+0", 0x3FEC9347B8D2A6FB),
    ("0x1.90661d19448b8p+0", 0x3FEF230A157CE487),
    ("0x1.15cc8f7c0e1a5p+1", 0x3FEFEE6BF40E8497),
    ("-0x1.05ea64402362bp+1", 0xBFEFE0D1A8807B81),
]


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestErf:
    def test_committed_bit_table(self):
        inputs = np.array([float.fromhex(text) for text, _ in ERF_BITS])
        expected = np.array([pattern for _, pattern in ERF_BITS], dtype=np.uint64)
        np.testing.assert_array_equal(bits(erf(inputs)), expected)

    def test_matches_scipy_bit_for_bit(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(20240513)
        magnitudes = np.exp(rng.uniform(-745.0, 6.0, 200_000))
        at_branch_points = np.concatenate(
            [np.nextafter(point, -np.inf) + np.arange(-2000, 2000) * np.spacing(point)
             for point in (1.0, 6.0)]
        )
        x = np.concatenate(
            [
                rng.normal(0.0, 3.0, 800_000),
                rng.uniform(-7.0, 7.0, 800_000),
                rng.uniform(-1.0, 1.0, 200_000),
                magnitudes * rng.choice([-1.0, 1.0], magnitudes.size),
                at_branch_points,
                -at_branch_points,
                [float.fromhex(text) for text, _ in ERF_BITS],
            ]
        )
        mismatched = np.flatnonzero(bits(erf(x)) != bits(special.erf(x)))
        assert mismatched.size == 0, f"{mismatched.size} mismatches, e.g. {x[mismatched[:5]]}"

    def test_keeps_shape(self):
        assert erf(0.5).shape == ()
        assert erf(np.empty((0, 3))).shape == (0, 3)
        grid = np.linspace(-7.0, 7.0, 60).reshape(4, 15)
        np.testing.assert_array_equal(bits(erf(grid)), bits(erf(grid.ravel())).reshape(4, 15))
        np.testing.assert_array_equal(bits(erf(grid[:, ::2])), bits(erf(grid.ravel())).reshape(4, 15)[:, ::2])


def upper_minus_lower(name, centers, sigmas, lower, upper):
    """The per-family batch masses as ``cdf(upper) - cdf(lower)`` (the pre-edges form)."""
    centers = centers.reshape(-1, 1)
    sigmas = np.maximum(sigmas.reshape(-1, 1), 1e-12)
    if name == "gaussian":
        denom = np.sqrt(2.0) * sigmas

        def cdf(value):
            return 0.5 * (1.0 + erf((value - centers) / denom))

    elif name == "laplace":
        scale = sigmas / np.sqrt(2.0)

        def cdf(value):
            z = np.clip((value - centers) / scale, -700.0, 700.0)
            return np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))

    else:
        half_width = sigmas * np.sqrt(3.0)

        def cdf(value):
            return np.clip((value - (centers - half_width)) / (2.0 * half_width), 0.0, 1.0)

    return cdf(upper) - cdf(lower)


class TestEdgesForm:
    @pytest.mark.parametrize("name", ["gaussian", "laplace", "uniform"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_upper_minus_lower_bitwise(self, name, seed):
        rng = np.random.default_rng(seed)
        edges = np.sort(rng.uniform(-4.0, 4.0, 26))
        centers = rng.normal(0.0, 2.0, 40)
        sigmas = np.concatenate([rng.uniform(0.01, 3.0, 38), [0.0, 1e-14]])
        masses = get_error_model(name).batch_interval_probability(centers, sigmas, edges)
        assert masses.shape == (40, 25)
        reference = upper_minus_lower(name, centers, sigmas, edges[:-1], edges[1:])
        np.testing.assert_array_equal(bits(masses), bits(reference))
