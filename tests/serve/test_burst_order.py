"""A burst is answered in route order, whatever the knobs.

Each shard runs a submission as one task on one of its dispatch threads,
group by group: adapts, streams, reads, predicts.  So a burst's reports and
predictions see its own adaptations at the default ``shard_workers`` under
both executors, while two clients submitting to one shard still run side
by side.
"""

import threading
import time

import numpy as np
import pytest
from gateway_fixtures import fast_config, make_targets

from repro.serve import AdaptRequest, Gateway, PredictRequest, ReportRequest, StreamRequest
from repro.serve.gateway import _ROUTES

EXECUTORS = ("thread", "process")
MIN_ADAPT_EVENTS = 24


def build_gateway(source, executor):
    """One shard at the default ``shard_workers``."""
    model, calibration = source
    return Gateway(
        model,
        calibration,
        config=fast_config(),
        executor=executor,
        service_options={"min_adapt_events": MIN_ADAPT_EVENTS},
    )


@pytest.fixture(scope="module", params=EXECUTORS)
def gateway(request, source):
    gateway = build_gateway(source, request.param)
    yield gateway
    gateway.close()


def test_reads_and_predicts_see_the_bursts_adaptation(gateway):
    probe = np.random.default_rng(7).normal(size=(5, 4))
    for name, data in make_targets(n_targets=6, seed=300).items():
        adapt, report, predict = gateway.submit_many(
            [AdaptRequest(name, data), ReportRequest(name), PredictRequest(name, probe)]
        )
        assert adapt.ok, adapt.error
        assert report.ok and report.payload["report"] is not None, (name, report.payload)
        assert predict.ok and predict.payload["model"] == "adapted", name


def test_predict_sees_the_bursts_cold_adaptation(gateway):
    rng = np.random.default_rng(8)
    probe = rng.normal(size=(5, 4))
    for index in range(4):
        name = f"stream_{index}"
        stream, predict = gateway.submit_many(
            [
                StreamRequest(name, rng.normal(size=(MIN_ADAPT_EVENTS, 4))),
                PredictRequest(name, probe),
            ]
        )
        assert stream.ok and stream.payload["event"]["action"] == "cold_adapt", name
        assert predict.ok and predict.payload["model"] == "adapted", name


def test_a_submissions_groups_run_in_route_order_on_one_thread(gateway, monkeypatch):
    """Two clients at once: each burst's groups run one after another, in
    route order, on one of the shard's dispatch threads."""
    lock = threading.Lock()
    calls = []

    def spy(rank, handler):
        def run(shard, group):
            started = time.perf_counter()
            time.sleep(0.02)  # widen the window a concurrent group would use
            try:
                return handler(shard, group)
            finally:
                with lock:
                    calls.append(
                        (
                            group[0][1].target_id,
                            rank,
                            threading.current_thread().name,
                            started,
                            time.perf_counter(),
                        )
                    )

        return run

    for rank, (_kinds, name) in enumerate(_ROUTES):
        monkeypatch.setattr(gateway, name, spy(rank, getattr(gateway, name)))
    probe = np.random.default_rng(9).normal(size=(5, 4))
    errors = []

    def client(offset):
        try:
            for name, data in make_targets(n_targets=3, seed=offset).items():
                name = f"{offset}-{name}"
                for envelope in gateway.submit_many(
                    [PredictRequest(name, probe), ReportRequest(name), AdaptRequest(name, data)]
                ):
                    assert envelope.ok, envelope.error
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    clients = [threading.Thread(target=client, args=(offset,)) for offset in (400, 500)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in clients)
    assert not errors, errors
    by_target = {}
    for target_id, rank, thread_name, started, finished in calls:
        by_target.setdefault(target_id, []).append((started, finished, rank, thread_name))
    assert len(by_target) == 2 * 3
    for target_id, runs in by_target.items():
        runs.sort()
        assert [rank for _, _, rank, _ in runs] == [0, 2, 3], target_id
        assert len({thread_name for *_, thread_name in runs}) == 1, target_id
        assert runs[0][3].startswith("gateway-shard-0")
        for (_, finished, _, _), (started, _, _, _) in zip(runs, runs[1:]):
            assert finished <= started, target_id


def test_a_concurrent_predict_does_not_wait_for_an_adaptation(gateway, monkeypatch):
    """Another client's predict is answered while an adaptation runs."""
    entered, release = threading.Event(), threading.Event()
    adapt_group = gateway._handle_adapt_group

    def blocking_adapt(shard, group):
        entered.set()
        release.wait(timeout=60)
        return adapt_group(shard, group)

    monkeypatch.setattr(gateway, "_handle_adapt_group", blocking_adapt)
    [(name, data)] = make_targets(n_targets=1, seed=600).items()
    adapting = gateway.submit_async(AdaptRequest(f"blocked-{name}", data))
    try:
        assert entered.wait(timeout=30)
        probe = np.random.default_rng(10).normal(size=(5, 4))
        predict = gateway.submit_async(PredictRequest("bystander", probe)).result(timeout=30)
        assert predict.ok and predict.payload["model"] == "source"
        assert not adapting.done()
    finally:
        release.set()
    assert adapting.result(timeout=60).ok
