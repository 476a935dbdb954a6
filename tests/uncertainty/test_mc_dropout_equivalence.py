"""Equivalence regression tests: the stacked MC-dropout forward vs. the loop.

The predictor stacks all MC replicas of an input chunk into one forward
pass.  These tests pin down its contract against the paper's literal
protocol, one forward per MC pass, kept here as the reference:

* dropout masks are **bit-for-bit identical** to the loop's for the same
  seed (proved on a matmul-free model, where the network output *is* the
  masked input);
* full-model outputs are bit-for-bit identical when every chunk is full
  (MLP, TCN and MCNN);
* ragged trailing chunks stay within a couple of ULPs — BLAS picks
  differently-blocked GEMM kernels for different row counts, which is a
  rounding-order difference, not an algorithmic one.
"""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import Dropout, RegressionModel, Sequential
from repro.uncertainty import MCDropoutPredictor


class _Identity(nn.Module):
    """Pass-through head so the model output equals the dropout-masked input."""

    def forward(self, inputs):
        return inputs

    def backward(self, grad_output):
        return grad_output


def loop_oracle(build_model, inputs, n_samples, seed, chunk_rows):
    """Reference implementation: ``n_samples`` sequential stochastic passes.

    The paper's protocol — one Python-level forward per MC sample — with
    each dropout layer reading its own seeded stream, iterating chunk-major
    (all passes of a chunk before the next) so the per-layer streams are
    consumed as the predictor's stacked draw consumes them.
    """
    model = build_model()
    model.eval()
    layers = model.dropout_layers()
    children = np.random.SeedSequence(seed).spawn(len(layers))
    for layer, child in zip(layers, children):
        layer.set_mc_rng(np.random.default_rng(child))
    model.set_mc_dropout(True)
    try:
        chunks = []
        for start in range(0, len(inputs), chunk_rows):
            chunk = inputs[start : start + chunk_rows]
            passes = [model.forward(chunk) for _ in range(n_samples)]
            chunks.append(np.stack(passes, axis=0))
        return np.concatenate(chunks, axis=1)
    finally:
        for layer in layers:
            layer.set_mc_rng(None)
        model.set_mc_dropout(False)


MODEL_CASES = {
    "mlp": (
        lambda: nn.build_mlp(6, 2, hidden_dims=(32, 16), dropout=0.3, seed=3),
        (48, 6),
    ),
    "tcn": (
        lambda: nn.build_tcn_regressor(4, 20, output_dim=2, channel_sizes=(8, 8), dropout=0.2, seed=1),
        (48, 4, 20),
    ),
    "mcnn": (
        lambda: nn.build_mcnn_counter(
            image_size=8, column_channels=(3, 4), column_kernels=(3, 5), dropout=0.2, seed=2
        ),
        (24, 1, 8, 8),
    ),
}


class TestMaskEquivalence:
    def test_masks_bitwise_identical(self):
        """On a matmul-free model the outputs are exactly the masked inputs,

        so equality here proves the predictor draws the loop's dropout
        masks bit for bit — for every input size, ragged chunks included.
        """

        def build():
            rng = np.random.default_rng(5)
            encoder = Sequential(Dropout(0.4, rng=rng), Dropout(0.2, rng=rng))
            return RegressionModel(encoder, _Identity())

        inputs = np.random.default_rng(0).normal(size=(53, 3))
        for chunk_rows in (7, 16, 53):
            stacked = MCDropoutPredictor(
                build(), n_samples=9, seed=77, mc_batch_rows=chunk_rows
            ).predict(inputs, keep_samples=True)
            oracle = loop_oracle(build, inputs, n_samples=9, seed=77, chunk_rows=chunk_rows)
            np.testing.assert_array_equal(stacked.samples, oracle)

    def test_different_seeds_give_different_masks(self):
        build, shape = MODEL_CASES["mlp"]
        inputs = np.random.default_rng(0).normal(size=shape)
        one = MCDropoutPredictor(build(), n_samples=5, seed=1).predict(inputs, keep_samples=True)
        two = MCDropoutPredictor(build(), n_samples=5, seed=2).predict(inputs, keep_samples=True)
        assert not np.array_equal(one.samples, two.samples)


class TestOutputEquivalence:
    @pytest.mark.parametrize("case", sorted(MODEL_CASES))
    def test_bitwise_against_loop_oracle_on_full_chunks(self, case):
        build, shape = MODEL_CASES[case]
        inputs = np.random.default_rng(7).normal(size=shape)
        chunk_rows = 8  # divides every case's input length: no ragged chunk
        stacked = MCDropoutPredictor(
            build(), n_samples=7, seed=123, mc_batch_rows=chunk_rows
        ).predict(inputs, keep_samples=True)
        oracle = loop_oracle(build, inputs, n_samples=7, seed=123, chunk_rows=chunk_rows)
        np.testing.assert_array_equal(stacked.samples, oracle)

    @pytest.mark.parametrize("case", sorted(MODEL_CASES))
    def test_ragged_chunks_match_within_ulps(self, case):
        """Ragged tails hit differently-shaped GEMMs; allow rounding only."""
        build, shape = MODEL_CASES[case]
        inputs = np.random.default_rng(7).normal(size=shape)
        chunk_rows = 9  # leaves a ragged final chunk for every case
        stacked = MCDropoutPredictor(
            build(), n_samples=7, seed=123, mc_batch_rows=chunk_rows
        ).predict(inputs, keep_samples=True)
        oracle = loop_oracle(build, inputs, n_samples=7, seed=123, chunk_rows=chunk_rows)
        np.testing.assert_allclose(stacked.samples, oracle, rtol=1e-12, atol=1e-12)

    def test_uncertainty_statistics_agree(self):
        build, shape = MODEL_CASES["mlp"]
        inputs = np.random.default_rng(3).normal(size=shape)
        predictor = MCDropoutPredictor(build(), n_samples=20, seed=9)
        stacked = predictor.predict(inputs)
        oracle = loop_oracle(
            build, inputs, n_samples=20, seed=9, chunk_rows=predictor.mc_batch_rows
        )
        std = oracle.std(axis=0)
        np.testing.assert_allclose(stacked.uncertainty, std.mean(axis=1), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(stacked.mean, oracle.mean(axis=0), rtol=1e-12, atol=1e-14)

    def test_seeded_predictions_reproducible(self):
        build, shape = MODEL_CASES["tcn"]
        inputs = np.random.default_rng(1).normal(size=shape)
        one = MCDropoutPredictor(build(), n_samples=6, seed=42).predict(inputs, keep_samples=True)
        two = MCDropoutPredictor(build(), n_samples=6, seed=42).predict(inputs, keep_samples=True)
        np.testing.assert_array_equal(one.samples, two.samples)
