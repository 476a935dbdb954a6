"""``AdaptationService.adapt_many`` with ``train_batching``.

The knob must be a pure throughput lever: any stacking factor — including
one that exceeds the target count, and stacking layered on the process
executor — produces the exact reports and model bytes of the serial run.
Incompatible combinations (nonsensical factors, schemes or models without
a stacked path) are rejected up front with a clear error.
"""

import copy

import numpy as np
import pytest
from engine.scheme_oracle_fixture import build_fixture, fast_config

from repro.nn import BatchNorm1d, parameter_bytes
from repro.nn.module import Module
from repro.runtime.service import AdaptationService

REPORT_FIELDS = ("target_id", "seed", "losses", "n_confident", "n_uncertain", "stopped_epoch")


@pytest.fixture(scope="module")
def fixture():
    return build_fixture()


@pytest.fixture(scope="module")
def targets():
    rng = np.random.default_rng(31)
    data = {f"t{k}": rng.normal(loc=0.3, size=(60, 4)) for k in range(5)}
    # A ragged sixth target: its length differs, so it lands in its own
    # group and trains as a one-replica stack inside a batch.
    data["t5"] = rng.normal(loc=0.3, size=(45, 4))
    return data


def run_service(fixture, targets, train_batching=1, workers=0):
    service = AdaptationService(fixture["model"], fixture["calibration"], config=fast_config())
    if workers:
        service.use_process_workers(workers)
    try:
        reports = service.adapt_many(targets, train_batching=train_batching)
        models = {tid: parameter_bytes(service.model_for(tid)) for tid in targets}
    finally:
        service.close()
    keyed = {
        tid: {field: report.to_dict().get(field) for field in REPORT_FIELDS}
        for tid, report in reports.items()
    }
    return keyed, models


@pytest.fixture(scope="module")
def serial(fixture, targets):
    return run_service(fixture, targets)


@pytest.mark.parametrize("train_batching", [2, 3, 6])
def test_adapt_many_stacked_identical_to_serial(fixture, targets, serial, train_batching):
    reports, models = run_service(fixture, targets, train_batching=train_batching)
    assert reports == serial[0]
    assert models == serial[1]


def test_adapt_many_stacked_on_process_pool_identical(fixture, targets, serial):
    reports, models = run_service(fixture, targets, train_batching=3, workers=2)
    assert reports == serial[0]
    assert models == serial[1]


def test_adapt_many_rejects_nonpositive_train_batching(fixture, targets):
    service = AdaptationService(fixture["model"], fixture["calibration"], config=fast_config())
    try:
        with pytest.raises(ValueError, match="train_batching"):
            service.adapt_many(targets, train_batching=0)
    finally:
        service.close()


def test_unstackable_scheme_rejected(fixture):
    class NoStack:
        name = "nostack"

        def adapt(self, *args, **kwargs):  # pragma: no cover - never reached
            raise NotImplementedError

    service = AdaptationService(fixture["model"], fixture["calibration"], strategy=NoStack())
    try:
        with pytest.raises(ValueError, match="nostack"):
            service.check_train_batching(4)
    finally:
        service.close()


class Weird(Module):
    def forward(self, x):
        return x

    def backward(self, g):
        return g


@pytest.mark.parametrize(
    "make_layer", [Weird, lambda: BatchNorm1d(8)], ids=["weird", "batchnorm"]
)
def test_unstackable_model_rejected(fixture, make_layer):
    weird_model = copy.deepcopy(fixture["model"])
    weird_model.encoder.layers.append(make_layer())
    service = AdaptationService(weird_model, fixture["calibration"], config=fast_config())
    try:
        with pytest.raises(ValueError, match="stacked"):
            service.check_train_batching(4)
        # Stacking is refused, but a single target still trains through the
        # one engine as a one-replica stack, whatever its layers.
        rng = np.random.default_rng(7)
        report = service.adapt("solo", rng.normal(loc=0.3, size=(60, 4)), seed=3)
        assert report.losses
        reports = service.adapt_many(
            {f"t{k}": rng.normal(loc=0.3, size=(60, 4)) for k in range(2)},
            train_batching=1,
        )
        assert all(report.losses for report in reports.values())
    finally:
        service.close()
