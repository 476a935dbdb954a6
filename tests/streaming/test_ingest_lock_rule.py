"""Two callers ingesting the same target at once: one adaptation per round.

``ingest_many`` holds every stream lock of a wave from decision to recorded
event.  Without that, a second caller could decide while the first one's
adaptation is still training, find the same round due, and adapt it a
second time.  These tests force exactly that interleaving: the strategy
blocks the first adaptation until the second caller has had its chance to
run, then the target's rounds, buffer and events must equal the two calls
made one after the other.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from engine.scheme_oracle_fixture import build_fixture, fast_config

from repro.engine.strategy import TasfarStrategy
from repro.streaming.service import StreamingAdaptationService

WAIT_TIMEOUT = 60.0
#: How long the second caller gets to reach the strategy if nothing stops it.
RACE_WINDOW = 0.5
TARGETS = ("t0", "t1", "t2")


class GatedStrategy:
    """A strategy that records every adaptation and holds the first one.

    The first ``adapt`` / ``adapt_stacked`` call blocks until ``release``
    is set; ``entered`` says it has started.  ``seeds`` gets one entry per
    adapted job: a stream round's seed is derived from its target and round
    index, so a repeated seed is a round adapted twice.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()
        self.seeds: list[int] = []
        self._lock = threading.Lock()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _gate(self, seeds) -> None:
        with self._lock:
            self.seeds.extend(seeds)
            first = not self.entered.is_set()
            self.entered.set()
        if first:
            assert self.release.wait(WAIT_TIMEOUT)

    def adapt(self, source_model, target_inputs, *, seed=None, **kwargs):
        self._gate([seed])
        return self.inner.adapt(source_model, target_inputs, seed=seed, **kwargs)

    def adapt_stacked(self, jobs, **kwargs):
        self._gate([job.seed for job in jobs])
        return self.inner.adapt_stacked(jobs, **kwargs)


@pytest.fixture(scope="module")
def fixture():
    return build_fixture()


def build_service(fixture):
    strategy = GatedStrategy(
        TasfarStrategy(fast_config(), calibration=fixture["calibration"])
    )
    service = StreamingAdaptationService(
        fixture["model"],
        fixture["calibration"],
        config=fast_config(),
        strategy=strategy,
        min_adapt_events=24,
        readapt_budget=24,
    )
    return service, strategy


def calls(train_batching):
    """Two ingest calls, each making every target it names due."""
    rng = np.random.default_rng(5)
    targets = TARGETS[:train_batching]
    return [
        [(tid, rng.normal(loc=0.3 + 0.2 * call, size=(24, 4))) for tid in targets]
        for call in range(2)
    ]


def state_of(service, strategy, targets):
    events = {
        tid: [
            {k: v for k, v in event.to_dict().items() if k != "duration_seconds"}
            for event in service.events_for(tid)
        ]
        for tid in targets
    }
    stats = {tid: service.stream_stats(tid) for tid in targets}
    buffers = {
        tid: [batch.tobytes() for batch in service._peek_state(tid).buffer] for tid in targets
    }
    return {"events": events, "stats": stats, "buffers": buffers, "seeds": sorted(strategy.seeds)}


@pytest.mark.parametrize("train_batching", [1, 3])
def test_concurrent_ingest_of_one_target_adapts_each_round_once(fixture, train_batching):
    first, second = calls(train_batching)
    targets = [tid for tid, _ in first]

    serial, serial_strategy = build_service(fixture)
    serial_strategy.release.set()
    serial.ingest_many(first, train_batching=train_batching)
    serial.ingest_many(second, train_batching=train_batching)
    expected = state_of(serial, serial_strategy, targets)
    assert len(set(expected["seeds"])) == len(expected["seeds"]) == 2 * len(targets)

    service, strategy = build_service(fixture)
    errors = []

    def ingest(batches):
        try:
            service.ingest_many(batches, train_batching=train_batching)
        except Exception as exc:  # pragma: no cover - fails the test below
            errors.append(exc)

    one = threading.Thread(target=ingest, args=(first,))
    two = threading.Thread(target=ingest, args=(second,))
    one.start()
    try:
        assert strategy.entered.wait(WAIT_TIMEOUT), "the first adaptation never started"
        two.start()
        # Left alone, the second caller would decide now, while the first
        # adaptation is held.  It must instead wait for the first wave.
        two.join(RACE_WINDOW)
        assert two.is_alive(), "the second ingest finished while the first was adapting"
    finally:
        strategy.release.set()
        one.join(WAIT_TIMEOUT)
        if two.ident is not None:
            two.join(WAIT_TIMEOUT)
    assert not errors, errors
    assert state_of(service, strategy, targets) == expected
