"""Adaptation workers keep their heap between MC-dropout chunks.

Under glibc's dynamic allocator thresholds, every MC-dropout chunk of the
PDR TCN frees its temporaries, glibc trims the free heap top, and the next
chunk faults the same pages back in.  ``_init_worker`` pins the thresholds
before it warms the worker up; these tests run a PDR-shaped MC probe inside
workers started through it and count the probe's minor page faults with
``getrusage`` in the worker.

The unpinned reference worker is spawned, so it starts from a fresh heap
with glibc's default thresholds; a forked one would inherit whatever the
test process's own allocations had made of them.
"""

from __future__ import annotations

import copy
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import repro.nn as nn
from repro.runtime import workers
from repro.uncertainty import MCDropoutPredictor

from test_process_workers import calibrated_tasfar

resource = pytest.importorskip("resource")

pytestmark = pytest.mark.skipif(
    workers._mallopt() is None, reason="the C library has no mallopt"
)

#: One small-scale PDR user: 216 windows of 6 IMU channels x 20 steps.
PDR_SHAPE = (216, 6, 20)


def pdr_model():
    return nn.build_tcn_regressor(6, 20, channel_sizes=(16, 16), dropout=0.2, seed=0)


def second_probe_faults(model, inputs) -> int:
    """Minor faults of the second of two 20-pass MC probes, in this process."""

    def probe(seed):
        MCDropoutPredictor(copy.deepcopy(model), n_samples=20, seed=seed).predict(inputs)

    probe(0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    probe(1)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def init_worker_unpinned(source_model, strategy) -> None:
    """``_init_worker`` without its heap policy: state and warm-up only."""
    workers._WORKER_STATE["source_model"] = source_model
    workers._WORKER_STATE["strategy"] = strategy
    workers._warm_compute_path(strategy, source_model)


def faults_in_worker(initializer, start_method: str) -> int:
    model = pdr_model()
    strategy = calibrated_tasfar(model, (64, 6, 20))
    inputs = np.random.default_rng(1).normal(size=PDR_SHAPE)
    with ProcessPoolExecutor(
        max_workers=1,
        mp_context=multiprocessing.get_context(start_method),
        initializer=initializer,
        initargs=(model, strategy),
    ) as pool:
        return pool.submit(second_probe_faults, model, inputs).result()


@pytest.fixture(scope="module")
def unpinned_faults():
    return faults_in_worker(init_worker_unpinned, "spawn")


@pytest.mark.parametrize(
    "start_method",
    [m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()],
)
def test_pinned_worker_does_not_refault_its_heap(start_method, unpinned_faults):
    pinned = faults_in_worker(workers._init_worker, start_method)
    assert pinned < 0.01 * unpinned_faults, (
        f"a {start_method} worker's second MC probe took {pinned} minor faults; "
        f"an unpinned worker's took {unpinned_faults}"
    )
