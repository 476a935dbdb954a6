"""The serving gateway: one front door for adapt / predict / stream / report.

The runtime grew three disjoint client surfaces — the batch
:class:`~repro.runtime.AdaptationService`, the
:class:`~repro.streaming.StreamingAdaptationService`, and ad-hoc CLI
subcommands — each with its own kwargs and return shapes.  The
:class:`Gateway` composes them behind the typed request/response protocol of
:mod:`repro.serve.protocol`:

* it is constructed either from **names** (a task and a scheme, resolved
  through the task and strategy registries) or from **explicit objects**
  (a source model, calibration, strategy);
* it owns one or more service **shards**, each a
  :class:`StreamingAdaptationService` (or plain ``AdaptationService`` when
  no calibration is available) with its own worker pool; targets are placed
  on shards by deterministic highest-random-weight (rendezvous) hashing, so
  the same target lands on the same shard in every process — and growing
  the shard count only ever moves targets **to the new shards**, never
  reshuffles them among the old ones;
* every interaction goes through one ``submit()`` / ``submit_many()``
  surface (plus a future-returning ``submit_async``).  A submission is one
  dispatch task per shard, which answers the shard's requests group by
  group — adapts, streams, reads, predicts — so a burst's reads and
  predictions see its own adaptations.  Every
  :class:`~repro.serve.PredictRequest` is answered by the one
  micro-batching executor (:mod:`repro.serve.batching`): concurrent
  predicts for targets sharing a model instance coalesce, bit-identical to
  submitting the same requests one at a time and measurably faster under
  bursty load (``benchmarks/test_bench_serve.py``).  Every adapt and
  stream request trains in a stack of up to ``train_batching`` targets.
  The gateway has no other predict or adapt path; the request-shaped
  forwards of :meth:`AdaptationService.predict` stay on the shard services.

The pre-existing service constructors keep working untouched; the gateway is
a facade over them, not a replacement.
"""

from __future__ import annotations

import hashlib
import threading
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..core.adapter import SourceCalibration
from ..core.config import TasfarConfig
from ..engine.strategy import AdaptationStrategy
from ..nn.losses import Loss
from ..nn.models import RegressionModel
from ..obs import RATIO_BUCKETS, MetricsRegistry, Tracer, now
from ..runtime.service import AdaptationService, canonical_target_id
from ..runtime.snapshots import SnapshotStore
from ..runtime.workers import EXECUTOR_KINDS
from ..streaming.service import StreamingAdaptationService
from .batching import PredictPlan, run_model_group
from .protocol import (
    AdaptRequest,
    Envelope,
    MetricsRequest,
    PredictRequest,
    ReportRequest,
    Request,
    StreamRequest,
)

__all__ = ["Gateway", "ShardRestartedError"]


class ShardRestartedError(RuntimeError):
    """A request was queued on a shard whose worker pool was killed.

    Delivered *as data* — inside the error envelope that resolves the
    request's future — never as a hang: :meth:`Gateway.restart_shard_workers`
    settles every orphaned future before it returns.  Adaptation is
    deterministic, so resubmitting the same request on the respawned pool
    reproduces the same result.
    """


def _placement_weight(target_id: str, shard: int) -> int:
    """Stable rendezvous weight of ``(target, shard)`` (process-independent)."""
    digest = hashlib.sha256(f"{target_id}\x00shard{shard}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


#: The group handler of each request kind, in the order a shard answers a
#: submission's groups: mutators, then reads, then predictions.
_ROUTES = (
    (AdaptRequest, "_handle_adapt_group"),
    (StreamRequest, "_handle_stream_group"),
    ((ReportRequest, MetricsRequest), "_handle_read_group"),
    (PredictRequest, "_handle_predict_group"),
)


def _route(request: object) -> int | None:
    """Index into :data:`_ROUTES` of the request's kind (``None``: unsupported)."""
    return next(
        (rank for rank, (kinds, _) in enumerate(_ROUTES) if isinstance(request, kinds)), None
    )


def _settle(future: Future, result) -> None:
    """Resolve a future exactly once; a later settler loses quietly.

    A ``submit_async`` caller may cancel its future while the task is still
    queued; the task's own settlement must then be a no-op, not a crash.
    """
    try:
        future.set_result(result)
    except InvalidStateError:
        pass


class _ShardDispatch:
    """One shard's dispatch pool, with no-orphan restart semantics.

    :meth:`submit` returns a future that this class guarantees to settle —
    with the task's result, or with what the task's ``fallback`` answers
    instead.  The fallback is called with the pool's ``RuntimeError`` when
    the pool is already shut down for good (gateway closed), with a
    :class:`ShardRestartedError` when :meth:`restart` throws the task away
    while it is still queued, and with the task's own exception should it
    raise.  ``ThreadPoolExecutor.shutdown`` simply abandons queued work, so
    without the middle leg a caller blocked on ``future.result()`` would
    wait forever.

    Tasks already *running* at restart time are not interruptible (threads
    cannot be killed); they settle their future when they finish.  Under
    the process executor that is prompt — the worker processes underneath
    them are killed, so the blocked task raises immediately and its
    requests are answered with error envelopes.
    """

    def __init__(self, index: int, workers: int, metrics: MetricsRegistry) -> None:
        self.index = index
        self.workers = workers
        self.metrics = metrics
        self._shard_label = str(index)
        self._lock = threading.Lock()
        self._pool = self._new_pool()

    def _new_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix=f"gateway-shard-{self.index}"
        )

    def submit(
        self, fn: Callable[[], object], fallback: Callable[[BaseException], object]
    ) -> Future:
        """Queue ``fn()`` on the pool; the returned future always settles."""
        outer: Future = Future()
        enqueued = now()

        def task():
            # The queue-depth gauge decrements here (not in ``_reap``, whose
            # done-callback races the caller's wakeup) so depth reconciles
            # to zero the moment every submitted request has been answered.
            labels = {"shard": self._shard_label}
            self.metrics.bulk(
                gauge_deltas=(("serve.queue_depth", -1, labels),),
                observations=(
                    ("serve.queue_wait_seconds", now() - enqueued, 1, None, labels),
                ),
            )
            try:
                result = fn()
            except BaseException as exc:  # answer, never strand a caller
                result = fallback(exc)
            _settle(outer, result)

        with self._lock:
            pool = self._pool
        self.metrics.gauge_add("serve.queue_depth", 1, shard=self._shard_label)
        try:
            inner = pool.submit(task)
        except RuntimeError as exc:
            self.metrics.gauge_add("serve.queue_depth", -1, shard=self._shard_label)
            _settle(outer, fallback(exc))
            return outer
        inner.add_done_callback(lambda inner: self._reap(inner, outer, fallback))
        return outer

    def _reap(
        self, inner: Future, outer: Future, fallback: Callable[[BaseException], object]
    ) -> None:
        if inner.cancelled():
            # Killed while still queued: the task never ran, so nothing else
            # will ever settle its future.
            self.metrics.gauge_add("serve.queue_depth", -1, shard=self._shard_label)
            self.metrics.counter("serve.orphaned_futures", shard=self._shard_label)
            _settle(
                outer,
                fallback(
                    ShardRestartedError(
                        "the shard's worker pool was restarted while this request was "
                        "queued; it never ran — resubmit it (adaptation is "
                        "deterministic, so a retry reproduces the same result)"
                    )
                ),
            )

    def restart(self) -> None:
        """Swap in a fresh pool; queued tasks are answered by their fallbacks.

        Non-draining by design (it models a crash, not a graceful stop):
        queued tasks are cancelled, which triggers :meth:`_reap`.
        """
        with self._lock:
            old = self._pool
            self._pool = self._new_pool()
        old.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


class Gateway:
    """Route typed serving requests onto sharded adaptation services.

    Predictions are served only through :meth:`submit`, :meth:`submit_many`
    and :meth:`submit_async`, all on the one micro-batching executor
    (:func:`~repro.serve.batching.run_model_group`); there is no batching
    knob.

    A submission is one dispatch task per shard, which answers the shard's
    requests in route order (adapts, streams, reads, predicts) on one
    thread.  A burst's reads and predictions therefore see its own
    adaptations, whatever the executor or ``shard_workers``.  Submissions
    from concurrent clients run side by side on a shard's dispatch threads,
    so one client's predictions do not wait for another client's
    adaptation.  A burst mixing adapt and stream requests on one shard
    trains its two groups one after the other.

    Parameters
    ----------
    source_model:
        The trained source model shared by every shard (each shard's service
        keeps its own pristine deep copy, as before).
    calibration:
        TASFAR source calibration.  With a calibration the shards are
        :class:`~repro.streaming.StreamingAdaptationService` instances and
        :class:`~repro.serve.StreamRequest` is served; without one the
        shards are batch services and stream requests come back as error
        envelopes.
    config, loss, strategy:
        Forwarded to every shard service — the same strategy object is
        shared (strategies are stateless after ``prepare``).
    n_shards:
        Number of service shards.  Each shard has its own model cache,
        worker pool, and (for streaming) per-target stream state.
    shard_workers:
        Workers per shard: dispatch threads, which serve concurrent
        submissions side by side (one burst is one task per shard, so it
        runs on one of them); under ``executor="process"`` also the size of
        the shard's worker-process pool.
    executor:
        ``"thread"`` (default) keeps shard work on the dispatch threads —
        fine for prediction, GIL-bound for adaptation.  ``"process"``
        attaches a :class:`~repro.runtime.AdaptationWorkerPool` to every
        shard service: adaptations run in worker processes on real cores
        (source weights shipped once per worker at pool start), while
        prediction, stream bookkeeping, and reports stay in-process.
        Results are bit-identical across the two executors.
    max_cached_models:
        LRU capacity *per shard*.
    base_seed:
        Seeding base forwarded to every shard; per-target seeds depend only
        on ``(target_id, base_seed)``, so a fleet adapts bit-identically
        whatever the shard count.
    train_batching:
        Stack size for cross-target batched *training*.  :meth:`submit_many`
        groups a burst's :class:`~repro.serve.AdaptRequest`\\ s per shard
        and trains them as stacks of up to K targets, each one
        ``strategy.adapt_stacked`` call (``K = 1``: stacks of one); grouped
        :class:`~repro.serve.StreamRequest`\\ s go through the streaming
        service's ``ingest_many``, whose due adaptations stack the same way.
        Results are bit-identical whatever K.  Composes with
        ``executor="process"``: each stack is one worker task, and a burst's
        stacks reach the pool together.  Validated against the scheme (at
        every K, since ``adapt_stacked`` is the one adaptation call) and
        the model (for K > 1) at construction — incompatible combinations
        raise :class:`ValueError`, never fall back silently.
    service_options:
        Extra keyword arguments forwarded to every shard service
        constructor (e.g. ``min_adapt_events`` / ``readapt_budget`` for the
        streaming shards).
    snapshot_dir:
        Optional root directory for the tiered snapshot state.  Each shard
        gets its own :class:`~repro.runtime.SnapshotStore` under
        ``<snapshot_dir>/shard-<index>`` (shard placement is deterministic,
        so a target's snapshot always lives under its shard's store):
        evicted adapted models spill to disk and warm-resume on the next
        touch, across both executors — spills and resumes happen in the
        gateway process, so ``executor="process"`` changes nothing about
        what lands on disk.
    metrics:
        The gateway-level :class:`~repro.obs.MetricsRegistry` (a fresh one
        by default).  Holds the request/queue/batching counters; each shard
        service keeps its *own* registry, and :meth:`metrics_snapshot`
        merges them all (shard entries labeled by shard index).
    tracer:
        Optional :class:`~repro.obs.Tracer`; when given, every submitted
        request emits deterministic-id spans (submit → queue → handle →
        engine) into it.
    """

    def __init__(
        self,
        source_model: RegressionModel,
        calibration: SourceCalibration | None = None,
        config: TasfarConfig | None = None,
        loss: Loss | None = None,
        *,
        strategy: AdaptationStrategy | None = None,
        n_shards: int = 1,
        shard_workers: int = 4,
        executor: str = "thread",
        max_cached_models: int = 8,
        base_seed: int = 0,
        train_batching: int = 1,
        service_options: dict | None = None,
        snapshot_dir: str | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if shard_workers < 1:
            raise ValueError("shard_workers must be at least 1")
        if executor not in EXECUTOR_KINDS:
            raise ValueError(f"executor must be one of {EXECUTOR_KINDS}, got {executor!r}")
        self.executor = executor
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.snapshot_dir = None if snapshot_dir is None else str(snapshot_dir)
        options = dict(service_options or {})
        common = dict(
            config=config,
            loss=loss,
            strategy=strategy,
            max_cached_models=max_cached_models,
            base_seed=base_seed,
        )
        self.streaming = calibration is not None
        self._shards: list[AdaptationService] = []
        for index in range(n_shards):
            shard_kwargs = dict(common)
            if self.snapshot_dir is not None:
                # One store per shard under the shared root: rendezvous
                # placement is deterministic, so a target's snapshot is
                # always read back by the shard that wrote it.
                shard_kwargs["snapshot_store"] = SnapshotStore(
                    Path(self.snapshot_dir) / f"shard-{index}"
                )
            if self.streaming:
                service: AdaptationService = StreamingAdaptationService(
                    source_model, calibration, **shard_kwargs, **options
                )
            else:
                if options:
                    raise ValueError(
                        "service_options requires a calibration (streaming shards); "
                        f"got {sorted(options)} for batch shards"
                    )
                service = AdaptationService(source_model, calibration, **shard_kwargs)
            self._shards.append(service)
        # Every shard shares the strategy and the source model, so one
        # shard's validation covers the fleet: fail at construction, not on
        # the first burst.
        self.train_batching = self._shards[0].check_train_batching(train_batching)
        if executor == "process":
            # Processes spawn eagerly, before any dispatch thread exists —
            # forking a threaded process is where the dragons live.
            for service in self._shards:
                service.use_process_workers(shard_workers)
        self._dispatch = [
            _ShardDispatch(index, shard_workers, self.metrics) for index in range(n_shards)
        ]

    def restart_shard_workers(self, shard: int) -> list[int]:
        """Kill one shard's worker pool and stand up a fresh one — no orphans.

        Models a worker crash followed by a supervisor respawn.  The shard's
        *service state* — cached models, stream buffers, reports — survives
        untouched; the in-flight work does not:

        * requests still **queued** on the shard never run; their futures
          resolve immediately to error envelopes carrying
          :class:`ShardRestartedError` (previously they were silently
          abandoned, and ``submit_async`` callers hung forever under the
          ``shard_crash`` fault plan);
        * requests already **running** keep their threads, and under
          ``executor="process"`` the worker *processes* beneath them are
          killed — the blocked call raises
          :class:`~repro.runtime.WorkerCrashError` and the caller gets an
          error envelope rather than a partial result.

        Used by the fault-injection harness (:mod:`repro.sim.faults`) and
        usable as an operational lever.  Returns the worker-process PIDs
        that were killed (empty under the thread executor).
        """
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard must be in [0, {self.n_shards}), got {shard}")
        self.metrics.counter("serve.shard_restarts", shard=shard)
        self._dispatch[shard].restart()
        return self._shards[shard].restart_workers()

    # ------------------------------------------------------------------
    # Construction from registry names
    # ------------------------------------------------------------------
    @classmethod
    def from_task(
        cls,
        task: str,
        scheme: str = "tasfar",
        scale: str = "small",
        seed: int = 0,
        *,
        config: TasfarConfig | None = None,
        max_source_samples: int = 400,
        **kwargs,
    ) -> "Gateway":
        """Build a gateway from a task name and a scheme name.

        Resolves ``task`` through the :class:`~repro.data.TaskSpec` registry
        (building or fetching the cached bundle: data, trained source model,
        calibration) and ``scheme`` through the strategy registry, prepares
        the strategy on the bundle's source resources, and hands both to the
        regular constructor.  ``config`` overrides the default
        ``TasfarConfig(seed=seed)`` for both the strategy and the shard
        services (the simulator uses this to run short, deterministic
        adaptation schedules).  Remaining keyword arguments are constructor
        parameters (``n_shards``, ``executor``, ``service_options``, ...).
        """
        from ..engine import create_strategy
        from ..experiments import get_bundle

        bundle = get_bundle(task, scale, seed)
        if config is None:
            config = TasfarConfig(seed=seed)
        strategy = create_strategy(
            scheme,
            config=config,
            epochs=bundle.scale.baseline_epochs,
            seed=seed,
        ).prepare(
            bundle.source_model,
            bundle.resources(max_source_samples=max_source_samples, seed=seed),
        )
        kwargs.setdefault("config", config)
        kwargs.setdefault("base_seed", seed)
        return cls(
            bundle.source_model,
            bundle.calibration,
            strategy=strategy,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard_for(self, target_id: str) -> int:
        """Deterministic shard index for a target (rendezvous hashing).

        A pure function of ``(canonical target id, shard index)`` digests —
        independent of the process, the gateway instance, and insertion
        order.  Against a larger shard count, a target either keeps its
        shard or moves to one of the *new* shards; it never reshuffles among
        the surviving ones.
        """
        target_id = canonical_target_id(target_id)
        return max(
            range(self.n_shards), key=lambda shard: _placement_weight(target_id, shard)
        )

    def service_for(self, target_id: str) -> AdaptationService:
        """The shard service owning ``target_id``."""
        return self._shards[self.shard_for(target_id)]

    @property
    def shards(self) -> tuple[AdaptationService, ...]:
        """The shard services, by shard index (read-only view)."""
        return tuple(self._shards)

    # ------------------------------------------------------------------
    # Submission surface
    # ------------------------------------------------------------------
    def _shard_of(self, request: Request) -> int:
        if isinstance(request, (ReportRequest, MetricsRequest)) and request.target_id is None:
            return 0
        return self.shard_for(request.target_id)

    def _count_envelope(self, envelope: Envelope) -> Envelope:
        """Fold one produced envelope into the request/error/latency metrics.

        Called at *every* envelope-producing point — handler returns, orphan
        envelopes, dead-pool and unknown-type fallbacks — so
        ``serve.requests{kind}`` equals the number of envelopes the gateway
        ever handed out (the ``metrics_accounting`` sim invariant leans on
        exactly this).
        """
        self.metrics.counter("serve.requests", kind=envelope.kind)
        if not envelope.ok:
            self.metrics.counter("serve.errors", kind=envelope.kind)
        self.metrics.observe(
            "serve.request_seconds", envelope.duration_seconds, kind=envelope.kind
        )
        return envelope

    def _begin_trace(self, request: Request):
        if self.tracer is None:
            return None
        kind = getattr(request, "kind", "unknown")
        return self.tracer.begin(kind, getattr(request, "target_id", None))

    def submit(self, request: Request) -> Envelope:
        """Handle one request synchronously and return its envelope."""
        return self.submit_many([request])[0]

    def submit_async(self, request: Request) -> "Future[Envelope]":
        """Handle one request on its shard's pool; returns a future envelope.

        The request is a one-request submission: one task on its shard's
        pool, answered by the handler :meth:`submit_many` uses for its kind,
        so its envelope is bit-identical to that request's answer inside any
        burst.  The future *always* settles — with a success envelope, an
        error envelope, or (if :meth:`restart_shard_workers` kills the shard
        while the request is queued) an error envelope carrying
        :class:`ShardRestartedError`.  Burst callers should still prefer
        :meth:`submit_many`, which coalesces predictions and stacks
        adaptations across the whole burst.
        """
        envelopes, answers = self._submit([request], lambda envelopes: envelopes[0])
        if answers:
            return answers[0]
        unsupported: "Future[Envelope]" = Future()
        unsupported.set_result(envelopes[0])
        return unsupported

    def submit_many(self, requests: Sequence[Request] | Iterable[Request]) -> list[Envelope]:
        """Handle a batch of requests, micro-batching the predictions.

        The batch is queued as one task per shard, and each shard answers
        its requests group by group: adapts, then streams, then reports and
        metrics, then predictions.  So a burst's reads and predictions
        always see its adaptations, whatever the executor or
        ``shard_workers``.  :class:`PredictRequest`\\ s that resolve to the
        same model instance (same shard, same ``batch_size``) are answered
        by coalesced forwards, and :class:`AdaptRequest`\\ s and
        :class:`StreamRequest`\\ s train in stacks of up to
        ``train_batching`` targets (a stack of one when it is 1).  Envelopes
        come back in the input order, errors as error envelopes — one bad
        request never poisons the batch.
        """
        envelopes, answers = self._submit(list(requests), lambda envelopes: None)
        for answer in answers:
            answer.result()
        return envelopes

    def _submit(
        self, requests: list[Request], unwrap: Callable[[list], object]
    ) -> tuple[list, list[Future]]:
        """Queue a submission as one task per shard, each grouped by route.

        Returns the submission's envelope list, which the shard tasks fill
        in (unsupported request types are answered here, at once), and one
        future per shard task.  A task's future settles once its requests
        are answered — by the task, or by its fallback (a dead or restarted
        pool) for every request the task left unanswered — with ``unwrap``
        of the envelope list.
        """
        traces = [self._begin_trace(request) for request in requests]
        envelopes: list[Envelope | None] = [None] * len(requests)
        by_shard: dict[int, dict[int, list[tuple[int, Request]]]] = {}
        for index, request in enumerate(requests):
            rank = _route(request)
            if rank is None:
                error = TypeError(f"unsupported request type {type(request).__name__}")
                envelope = self._count_envelope(Envelope.failure("unknown", None, error))
                envelopes[index] = self._finish(traces[index], envelope)
                continue
            by_shard.setdefault(self._shard_of(request), {}).setdefault(rank, []).append(
                (index, request)
            )

        def queue(shard: int, groups: dict) -> Future:
            def run():
                self._handle_shard(shard, groups, traces, envelopes)
                return unwrap(envelopes)

            def fallback(exc: BaseException):
                for group in groups.values():
                    for index, request in group:
                        if envelopes[index] is None:
                            envelope = Envelope.failure(request.kind, request.target_id, exc)
                            envelopes[index] = self._finish(
                                traces[index], self._count_envelope(envelope)
                            )
                return unwrap(envelopes)

            return self._dispatch[shard].submit(run, fallback)

        return envelopes, [queue(shard, groups) for shard, groups in by_shard.items()]

    @staticmethod
    def _finish(trace, envelope: Envelope) -> Envelope:
        if trace is not None:
            trace.finish(envelope)
        return envelope

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _handle_shard(self, shard: int, groups: dict, traces: list, envelopes: list) -> None:
        """Answer one shard's share of a submission, one group per kind.

        Groups run in :data:`_ROUTES` order on one dispatch thread, each
        group's envelopes landing in ``envelopes`` as soon as it is done.
        A request's queue span ends when its own group starts.
        """
        for rank in sorted(groups):
            group = groups[rank]
            if self.tracer is not None:
                for index, _ in group:
                    traces[index].mark_dequeued()
            for index, envelope in getattr(self, _ROUTES[rank][1])(shard, group):
                envelopes[index] = self._finish(traces[index], envelope)

    def _handle_read_group(
        self, shard: int, group: list[tuple[int, ReportRequest | MetricsRequest]]
    ) -> list[tuple[int, Envelope]]:
        """Answer one shard's report and metrics requests, one at a time."""
        results: list[tuple[int, Envelope]] = []
        for index, request in group:
            start = now()
            try:
                if isinstance(request, ReportRequest):
                    payload = self._do_report(request)
                else:
                    payload = self._do_metrics(request)
            except Exception as exc:
                envelope = Envelope.failure(
                    request.kind, request.target_id, exc, now() - start
                )
            else:
                envelope = Envelope.success(
                    request.kind, request.target_id, payload, now() - start
                )
            results.append((index, self._count_envelope(envelope)))
        return results

    def _do_report(self, request: ReportRequest) -> dict:
        if request.target_id is None:
            reports = self.reports()
            return {"reports": {name: report.to_dict() for name, report in reports.items()}}
        service = self.service_for(request.target_id)
        report = service.report_for(request.target_id)
        payload: dict = {
            "report": None if report is None else report.to_dict(),
            "shard": self.shard_for(request.target_id),
        }
        if isinstance(service, StreamingAdaptationService):
            payload["stream"] = service.stream_stats(request.target_id)
        return payload

    def _do_metrics(self, request: MetricsRequest) -> dict:
        if request.target_id is None:
            return {"metrics": self.metrics_snapshot()}
        shard = self.shard_for(request.target_id)
        merged = MetricsRegistry()
        merged.merge(self.metrics.snapshot())
        merged.merge(self._shards[shard].metrics.snapshot(), extra_labels={"shard": shard})
        return {"metrics": merged.snapshot(), "shard": shard}

    def _handle_adapt_group(
        self, shard: int, group: list[tuple[int, AdaptRequest]]
    ) -> list[tuple[int, Envelope]]:
        """Serve one shard's adapt burst in stacks of up to ``train_batching``.

        The whole burst goes to the shard service in one
        :meth:`~repro.runtime.AdaptationService.adapt_stack` call, so an
        attached worker pool runs its stacks side by side.  Per-request
        failures come back as data; a failure of the call itself (e.g. the
        worker pool was already dead) fails every request of the burst.
        """
        start = now()
        try:
            raw = self._shards[shard].adapt_stack(
                [(request.target_id, request.inputs, request.seed) for _, request in group],
                self.train_batching,
            )
        except Exception as exc:
            raw = [(None, exc)] * len(group)
        duration = now() - start
        results: list[tuple[int, Envelope]] = []
        for (index, request), (report, error) in zip(group, raw):
            if error is not None:
                envelope = Envelope.failure(request.kind, request.target_id, error, duration)
            else:
                envelope = Envelope.success(
                    request.kind,
                    request.target_id,
                    {"report": report.to_dict(), "shard": shard},
                    duration,
                )
            results.append((index, self._count_envelope(envelope)))
        return results

    def _handle_stream_group(
        self, shard: int, group: list[tuple[int, StreamRequest]]
    ) -> list[tuple[int, Envelope]]:
        """Serve one shard's stream burst through ``ingest_many``.

        Waves of distinct target ids go through the streaming service
        together, their due adaptations in stacks of up to
        ``train_batching`` (a repeated id cuts a wave — its second batch
        must see the state its first produced).  Batches are
        already shape-validated at :class:`StreamRequest` construction, so a
        wave failure here means the machinery (not a payload) broke — every
        request of the wave gets that error as its envelope.
        """
        service = self._shards[shard]
        start = now()
        waves: list[list[tuple[int, StreamRequest]]] = [[]]
        seen: set[str] = set()
        for index, request in group:
            target_id = canonical_target_id(request.target_id)
            if target_id in seen:
                waves.append([])
                seen = set()
            waves[-1].append((index, request))
            seen.add(target_id)
        results: list[tuple[int, Envelope]] = []
        for wave in waves:
            try:
                if not isinstance(service, StreamingAdaptationService):
                    raise TypeError(
                        "stream requests need streaming shards: construct the Gateway "
                        "with a calibration (streaming requires the source confidence "
                        "threshold)"
                    )
                events = service.ingest_many(
                    [(request.target_id, request.batch) for _, request in wave],
                    train_batching=self.train_batching,
                )
                error = None
            except Exception as exc:
                error = exc
            duration = now() - start
            envelopes = [
                Envelope.failure(request.kind, request.target_id, error, duration)
                if error is not None
                else Envelope.success(
                    request.kind,
                    request.target_id,
                    {
                        "event": events[canonical_target_id(request.target_id)].to_dict(),
                        "shard": shard,
                    },
                    duration,
                )
                for _, request in wave
            ]
            for (index, _), envelope in zip(wave, envelopes):
                results.append((index, self._count_envelope(envelope)))
        return results

    def _handle_predict_group(
        self, shard: int, group: list[tuple[int, PredictRequest]]
    ) -> list[tuple[int, Envelope]]:
        """Serve one shard's predict burst with micro-batched forwards."""
        start = now()
        service = self._shards[shard]
        results: list[tuple[int, Envelope]] = []
        plans: list[PredictPlan] = []
        by_index: dict[int, PredictPlan] = {}
        # Telemetry for the whole burst is tallied locally and issued as a
        # handful of aggregated registry calls — per-request counting would
        # put a lock acquisition on every entry of the serving hot path.
        n_hits = n_misses = n_strict_misses = 0
        for index, request in group:
            try:
                model, fallback = service._predict_entry(
                    request.target_id, request.strict, count_metrics=False
                )
            except Exception as exc:
                if request.strict and isinstance(exc, KeyError):
                    n_strict_misses += 1
                results.append(
                    (
                        index,
                        self._count_envelope(
                            Envelope.failure(
                                request.kind, request.target_id, exc, now() - start
                            )
                        ),
                    )
                )
                continue
            if fallback:
                n_misses += 1
            else:
                n_hits += 1
            plan = PredictPlan(
                index=index,
                target_id=request.target_id,
                inputs=request.inputs,
                batch_size=request.batch_size,
                fallback=fallback,
                model=model,
            )
            plans.append(plan)
            by_index[index] = plan
        cache_tally = [
            pair
            for pair in (
                ("service.cache.hits", n_hits),
                ("service.cache.misses", n_misses),
                ("service.cache.strict_misses", n_strict_misses),
            )
            if pair[1]
        ]
        if cache_tally:
            service.metrics.counter_many(cache_tally)

        # Group by (model instance, batch_size): dedup and stacking must
        # never mix chunkings.  Batching accounting accumulates in one
        # shared tally across the burst's model groups and settles with the
        # registry once, below; a group's counts join it only if the group
        # answered.
        batch_tally: list[tuple[str, float]] = [("batch.plans", len(plans))] if plans else []
        occupancies: list[float] = []
        model_groups: dict[tuple[int, int], list[PredictPlan]] = {}
        for plan in plans:
            model_groups.setdefault((id(plan.model), plan.batch_size), []).append(plan)

        def run(grouped: list[PredictPlan]) -> None:
            tally, tiles = run_model_group(grouped[0].model, grouped)
            batch_tally.extend(tally)
            occupancies.extend(tiles)

        for grouped in model_groups.values():
            try:
                run(grouped)
            except Exception:
                # A coalesced forward cannot attribute its failure (one bad
                # payload fails the whole tile), so degrade to per-plan
                # execution: good requests still get answers, each bad one
                # gets its own error envelope instead of poisoning the batch.
                for plan in grouped:
                    plan.output, plan.coalesced = None, False
                    try:
                        run([plan])
                    except Exception as exc:
                        plan.error = exc

        duration = now() - start
        n_ok = 0
        for index, request in group:
            plan = by_index.get(index)
            if plan is None:
                continue  # already answered with an error envelope
            if plan.error is not None or plan.output is None:
                error = plan.error if plan.error is not None else RuntimeError(
                    "prediction produced no output"
                )
                results.append(
                    (
                        index,
                        self._count_envelope(
                            Envelope.failure(request.kind, request.target_id, error, duration)
                        ),
                    )
                )
                continue
            n_ok += 1
            results.append(
                (
                    index,
                    Envelope.success(
                        request.kind,
                        request.target_id,
                        {
                            "prediction": plan.output,
                            "n_rows": int(len(plan.output)),
                            "model": "source" if plan.fallback else "adapted",
                            "coalesced": bool(plan.coalesced),
                        },
                        duration,
                    ),
                )
            )
        # One settlement for the whole burst: all successful envelopes share
        # one kind and one duration, and the batching tally accumulated
        # across the model groups — a single bulk registry call.
        folded: dict[str, float] = {}
        for name, value in batch_tally:
            folded[name] = folded.get(name, 0) + value
        counters = [(name, value, None) for name, value in folded.items()]
        observations = [
            ("batch.tile_occupancy", occupancy, 1, RATIO_BUCKETS, None)
            for occupancy in occupancies
        ]
        if n_ok:
            counters.append(("serve.requests", n_ok, {"kind": "predict"}))
            observations.append(
                ("serve.request_seconds", duration, n_ok, None, {"kind": "predict"})
            )
        if counters or observations:
            self.metrics.bulk(counters=counters, observations=observations)
        return results

    # ------------------------------------------------------------------
    # Fleet-level conveniences (thin wrappers over the shard services)
    # ------------------------------------------------------------------
    def model_for(self, target_id: str, required: bool = False):
        """The cached adapted model for ``target_id`` from its shard."""
        return self.service_for(target_id).model_for(target_id, required=required)

    def report_for(self, target_id: str):
        """The stored report for ``target_id`` from its shard."""
        return self.service_for(target_id).report_for(target_id)

    def reports(self) -> dict:
        """All reports across all shards, keyed by target id."""
        merged: dict = {}
        for service in self._shards:
            merged.update(service.reports())
        return merged

    def metrics_snapshot(self) -> dict:
        """One merged ``repro.metrics/v1`` snapshot for the whole fleet.

        The gateway's own registry (requests, queues, batching) merged with
        every shard service's registry (cache, adaptation, streaming, worker
        and engine counters), shard entries labeled ``shard=<index>`` so one
        hot shard stands out instead of averaging away.
        """
        merged = MetricsRegistry()
        merged.merge(self.metrics.snapshot())
        for index, service in enumerate(self._shards):
            merged.merge(service.metrics.snapshot(), extra_labels={"shard": index})
        return merged.snapshot()

    def set_metrics_enabled(self, enabled: bool) -> None:
        """Toggle metric collection across the gateway and every shard."""
        self.metrics.enabled = bool(enabled)
        for service in self._shards:
            service.metrics.enabled = bool(enabled)

    def stream_stats(self, target_id: str) -> dict:
        """Per-target streaming counters from the owning shard."""
        service = self.service_for(target_id)
        if not isinstance(service, StreamingAdaptationService):
            raise TypeError("this gateway has batch shards (no calibration): no streams")
        return service.stream_stats(target_id)

    def events_for(self, target_id: str) -> list:
        """Per-target stream event log from the owning shard."""
        service = self.service_for(target_id)
        if not isinstance(service, StreamingAdaptationService):
            raise TypeError("this gateway has batch shards (no calibration): no streams")
        return service.events_for(target_id)

    def close(self) -> None:
        """Shut the shard worker pools down (idempotent).

        Each dispatch pool finishes its running tasks, and its queued ones
        are answered with :class:`ShardRestartedError` envelopes.  Any
        attached process worker pools are released (their weights die with
        them; the shard services and their caches remain usable in-process).
        """
        for dispatch in self._dispatch:
            dispatch.close()
        for service in self._shards:
            service.close()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
