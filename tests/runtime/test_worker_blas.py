"""Adaptation workers run OpenBLAS on one thread.

The worker pool already puts one process on each core it is given; an
OpenBLAS that starts a thread per core in every worker oversubscribes them.
``_init_worker`` sets every OpenBLAS the worker loaded to one thread.  The
worker here starts with the BLAS thread variables unset, so without that
call it would run one OpenBLAS thread per core.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.nn as nn
from repro.runtime import workers

from test_process_workers import calibrated_tasfar


def blas_threads() -> list[int]:
    """The thread count every OpenBLAS loaded in this process reports."""
    return [getattr(library, getter)() for library, _setter, getter in workers._loaded_openblas()]


pytestmark = pytest.mark.skipif(
    not blas_threads(), reason="no OpenBLAS with a known thread setter is loaded"
)


@pytest.mark.parametrize(
    "start_method",
    [m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()],
)
def test_worker_runs_openblas_on_one_thread(start_method, monkeypatch):
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    model = nn.build_mlp(4, 1, hidden_dims=(8,), dropout=0.2, seed=0)
    strategy = calibrated_tasfar(model, (64, 4))
    own = blas_threads()
    with ProcessPoolExecutor(
        max_workers=1,
        mp_context=multiprocessing.get_context(start_method),
        initializer=workers._init_worker,
        initargs=(model, strategy),
    ) as pool:
        in_worker = pool.submit(blas_threads).result()
    assert in_worker and all(threads == 1 for threads in in_worker), in_worker
    assert blas_threads() == own, "starting a worker changed this process's BLAS threads"
