"""Multi-target adaptation runtime.

TASFAR's deployment story (Section IV of the paper) is one adapted model per
*target domain* — a PDR user, a crowd scene, a city district.  The
:class:`AdaptationService` is the serving-side driver for that story: the
source model and its calibration are registered once, then ``adapt(target_id,
data)`` is called for as many targets as show up, optionally on worker
processes (:meth:`AdaptationService.use_process_workers`).

Design points:

* **Determinism under parallelism** — every target's adaptation is seeded by
  a stable hash of its id (or an explicit per-call seed), and each job
  adapts a private deep copy of the pristine source model, so running four
  targets on four worker processes produces bit-identical results to
  running them one after another.
* **One runner** — ``adapt`` and ``adapt_many`` wrap ``adapt_stack``, and
  it and the streaming subclass's re-adaptations hand a list of tasks to
  :meth:`AdaptationService._run_tasks` in one call and settle the results
  through :meth:`AdaptationService._settle`; only the runner knows whether
  a task runs in process or on worker processes.
* **Bounded memory** — adapted models are kept in an LRU cache
  (``max_cached_models``); evicted targets keep their (tiny, JSON-friendly)
  :class:`~repro.runtime.AdaptationReport` and can simply be re-adapted on
  demand since adaptation is deterministic.
* **No target labels** — the service never sees labels, mirroring the
  source-free setting; callers that hold evaluation labels can attach
  metrics to ``report.extra`` themselves.
"""

from __future__ import annotations

import copy
import hashlib
import threading
from collections import OrderedDict, deque
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from ..core.adapter import SourceCalibration
from ..core.config import TasfarConfig
from ..engine.strategy import AdaptationStrategy, StrategyOutcome, TasfarStrategy
from ..nn.losses import Loss
from ..nn.models import RegressionModel
from ..nn.stacked import StackingError, assert_stackable
from ..nn.module import predict_batched
from ..obs import MetricsRegistry, Stopwatch
from .report import AdaptationReport
from .snapshots import (
    SnapshotError,
    SnapshotStore,
    encode_model_weights,
    restore_model_weights,
)
from .workers import AdaptationWorkerPool, Job, JobResult, WorkerCrashError, run_task

__all__ = ["AdaptationService", "canonical_target_id"]

#: An evicted model waiting for its snapshot: ``(target_id, model, report)``.
_Spill = tuple[str, RegressionModel, AdaptationReport]


def canonical_target_id(target_id: object) -> str:
    """The canonical string form of a target identifier.

    Targets arrive as whatever the caller has at hand — ints from a user
    table, strings from a JSON request — and ``7`` and ``"7"`` must name the
    same target everywhere (reports, cached models, seeds, shard placement).
    Every public entry point of the runtime, streaming, and serving layers
    funnels ids through this one helper instead of scattering ``str(...)``
    calls that are easy to miss.
    """
    return target_id if isinstance(target_id, str) else str(target_id)


class AdaptationService:
    """Adapt one registered source model to a fleet of target domains.

    The service is *strategy-generic*: by default it runs TASFAR (built from
    ``calibration``/``config``/``loss``), but any prepared
    :class:`~repro.engine.AdaptationStrategy` — one of the five baselines
    from the registry, or a third-party scheme — serves through exactly the
    same ``adapt`` / ``adapt_many`` / ``predict`` surface.

    Parameters
    ----------
    source_model:
        The trained source model.  The service keeps a pristine deep copy;
        the caller's instance is never mutated.
    calibration:
        The source calibration (``Q_s`` and ``tau``) fitted once before
        deployment via :meth:`repro.core.Tasfar.calibrate_on_source`.
        Required for the default TASFAR strategy (and for the streaming
        subclass's drift probes); optional when an explicit prepared
        ``strategy`` is supplied.
    config:
        TASFAR hyper-parameters shared by every target adaptation.
    loss:
        Task loss for the fine-tuning; defaults to weighted MSE.
    strategy:
        Optional prepared :class:`~repro.engine.AdaptationStrategy` that
        replaces the default TASFAR strategy.
    max_cached_models:
        Upper bound on the number of adapted models kept in memory.  The
        least recently used model is evicted first; its report survives.
    base_seed:
        Mixed into every per-target seed so two services with different base
        seeds adapt the same targets differently (useful for seed studies).
    metrics:
        Optional shared :class:`~repro.obs.MetricsRegistry`; the service
        builds its own (enabled) registry when none is given.  Cache
        hits/misses/evictions, adaptation counts and latency by mode, and
        the engine's epoch timing all land here.
    snapshot_store:
        Optional :class:`~repro.runtime.SnapshotStore` warm tier.  With a
        store attached, every eviction — explicit :meth:`evict` and LRU
        capacity pressure alike — spills the adapted model's exact weights
        and report (plus streaming drift state in the subclass) to disk,
        and the next touch of that target warm-resumes bit-identical state
        from the snapshot instead of falling back to a cold adaptation.
        Corrupt snapshot files are detected by checksum, counted
        (``snapshots.corrupt``), discarded, and degrade to a clean miss.
    """

    def __init__(
        self,
        source_model: RegressionModel,
        calibration: SourceCalibration | None = None,
        config: TasfarConfig | None = None,
        loss: Loss | None = None,
        *,
        strategy: AdaptationStrategy | None = None,
        max_cached_models: int = 8,
        base_seed: int = 0,
        metrics: MetricsRegistry | None = None,
        snapshot_store: SnapshotStore | None = None,
    ) -> None:
        if max_cached_models < 1:
            raise ValueError("max_cached_models must be at least 1")
        self._source_model = copy.deepcopy(source_model)
        self._source_model.eval()
        self.calibration = calibration
        self.config = config if config is not None else TasfarConfig()
        self.loss = loss
        if strategy is None:
            if calibration is None:
                raise ValueError(
                    "provide a calibration for the default TASFAR strategy, or pass an "
                    "explicit prepared strategy="
                )
            strategy = TasfarStrategy(self.config, loss=loss, calibration=calibration)
        self.strategy = strategy
        self.max_cached_models = max_cached_models
        self.base_seed = int(base_seed)
        # Evaluation forwards write no layer state, and MC-dropout probes
        # (the one forward that does) run on private copies, so the source
        # model and every cached model forward from many threads at once
        # without a lock.  ``self._lock`` guards only the cache and report
        # bookkeeping.
        self._models: OrderedDict[str, RegressionModel] = OrderedDict()
        self._reports: dict[str, AdaptationReport] = {}
        self._lock = threading.Lock()
        # Evicted entries whose snapshot is not on disk yet, newest per
        # target (guarded by ``self._lock``): a miss re-admits from here
        # instead of reading a stale or missing file.  One writer at a time
        # drains the queue (``self._spill_lock``).
        self._spilling: dict[str, _Spill] = {}
        self._spill_queue: deque[_Spill] = deque()
        self._spill_lock = threading.Lock()
        self._worker_pool: AdaptationWorkerPool | None = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.snapshot_store = snapshot_store

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------
    def target_seed(self, target_id: str) -> int:
        """Deterministic per-target seed, independent of adaptation order.

        Derived from a stable hash of the target id mixed with ``base_seed``
        (``hash()`` would change between interpreter runs).
        """
        digest = hashlib.sha256(canonical_target_id(target_id).encode("utf-8")).digest()
        return (int.from_bytes(digest[:8], "little") ^ self.base_seed) % (2**63)

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    @property
    def executor(self) -> str:
        """``"process"`` with a worker pool attached, else ``"thread"`` (the caller's)."""
        return "process" if self._worker_pool is not None else "thread"

    @property
    def worker_pool(self) -> AdaptationWorkerPool | None:
        """The attached process worker pool, if any."""
        return self._worker_pool

    def use_process_workers(
        self, workers: int, *, start_method: str | None = None
    ) -> AdaptationWorkerPool:
        """Attach a process worker pool; every adaptation then runs on real cores.

        The pristine source model and the prepared strategy are shipped to
        each worker once, at pool start, and the workers are spawned before
        this returns.  All adaptation entry points — :meth:`adapt`,
        :meth:`adapt_stack`, :meth:`adapt_many`, and the streaming
        subclass's re-adaptations — route through the pool from here on;
        results stay bit-identical to the in-process path.  Replaces (and
        closes) any previously attached pool.
        """
        pool = AdaptationWorkerPool(
            workers,
            self._source_model,
            self.strategy,
            start_method=start_method,
            metrics=self.metrics,
        )
        old, self._worker_pool = self._worker_pool, pool
        if old is not None:
            old.close()
        return pool

    def restart_workers(self) -> list[int]:
        """Kill and respawn the attached worker processes (no-op without a pool).

        Fault-injection hook: models a crashed worker fleet.  Returns the
        PIDs that were killed (empty when no process pool is attached).
        """
        if self._worker_pool is None:
            return []
        return self._worker_pool.restart()

    def close(self) -> None:
        """Release the process worker pool, if one is attached (idempotent)."""
        pool, self._worker_pool = self._worker_pool, None
        if pool is not None:
            pool.close()

    # ------------------------------------------------------------------
    # Adaptation
    # ------------------------------------------------------------------
    def adapt(
        self,
        target_id: str,
        inputs: np.ndarray,
        seed: int | None = None,
    ) -> AdaptationReport:
        """Adapt the source model to one target domain.

        Thread-safe: the heavy work runs on a private copy of the source
        model, only the cache/report bookkeeping is locked.

        Parameters
        ----------
        target_id:
            Identifier of the target; reports and cached models are keyed
            by it.  Re-adapting an existing id replaces both.
        inputs:
            The target's unlabeled adaptation samples.
        seed:
            Optional explicit seed; defaults to :meth:`target_seed`.

        Returns
        -------
        AdaptationReport
            The JSON-serializable summary; the adapted model itself is
            retrievable via :meth:`model_for` while cached.
        """
        [(report, error)] = self.adapt_stack([(target_id, inputs, seed)])
        if error is not None:
            raise error
        return report

    def _run_tasks(
        self, tasks: list[list[Job]], warm_epochs: int | None = None
    ) -> Iterator[list[JobResult]]:
        """Run adaptation tasks; yield each task's per-job results, in input order.

        A task is a list of ``(target_id, inputs, seed, base_model)`` jobs
        run by :func:`~repro.runtime.workers.run_task`: one seeded
        ``strategy.adapt`` for a single job, one stacked fine-tune for more.
        This is the one place that decides *where* adaptations run — on the
        attached process pool when there is one (every task is submitted up
        front, then results are collected in order), otherwise in the calling
        thread, one task at a time as the caller consumes results.  Failures
        come back as data: a job's own error, or, for every job of a task
        whose pool was killed while it ran, the
        :class:`~repro.runtime.WorkerCrashError`; a pool that is already
        dead raises it when the tasks are submitted.
        """
        pool = self._worker_pool
        if pool is None:
            metrics = self.metrics if self.metrics.enabled else None
            for task in tasks:
                yield run_task(self.strategy, self._source_model, task, warm_epochs, metrics)
            return
        futures = [pool.submit_stacked(task, warm_epochs) for task in tasks]
        for task, future in zip(tasks, futures):
            try:
                results = pool.collect_stacked(future)
            except WorkerCrashError as exc:
                results = [(None, None, exc)] * len(task)
            yield results

    def _settle(
        self,
        task: list[Job],
        results: list[JobResult],
        mode: str,
        publish: Callable[[int, AdaptationReport, StrategyOutcome], None] | None = None,
    ) -> list[tuple[AdaptationReport | None, Exception | None]]:
        """Account for one finished task and publish its successes.

        One ``service.adaptations{mode}`` count per success and one
        ``service.adapt_seconds`` sample per task: its jobs shared one wall
        clock, and K copies of it would skew the histogram.  Each success is
        published by ``publish(job_index, report, outcome)`` — by default
        into the report table and the LRU cache (:meth:`_store_result`).
        Returns ``(report, error)`` per job, in input order.
        """
        settled: list[tuple[AdaptationReport | None, Exception | None]] = []
        observed = False
        for index, ((target_id, *_), (report, outcome, error)) in enumerate(
            zip(task, results)
        ):
            if error is not None:
                settled.append((None, error))
                continue
            self.metrics.counter("service.adaptations", mode=mode)
            if not observed:
                self.metrics.observe("service.adapt_seconds", report.duration_seconds, mode=mode)
                observed = True
            if publish is None:
                self._store_result(target_id, report, outcome.target_model)
            else:
                publish(index, report, outcome)
            settled.append((report, None))
        return settled

    def _store_result(
        self, target_id: str, report: AdaptationReport, model: RegressionModel
    ) -> None:
        """Record a finished adaptation in the report table and the LRU cache."""
        with self._lock:
            self._reports[target_id] = report
            self._models[target_id] = model
            self._models.move_to_end(target_id)
            self._evict_over_capacity_locked()
        self._drain_spills()

    def _evict_over_capacity_locked(self) -> None:
        """Pop LRU entries past capacity and queue their spills (``self._lock`` held)."""
        while len(self._models) > self.max_cached_models:
            evicted_id, model = self._models.popitem(last=False)
            self.metrics.counter("service.cache.evictions", reason="capacity")
            self._queue_spill_locked(evicted_id, model)

    # ------------------------------------------------------------------
    # Snapshot tier (spill on evict, resume on next touch)
    # ------------------------------------------------------------------
    def _queue_spill_locked(self, target_id: str, model: RegressionModel) -> None:
        """Queue an evicted model for the snapshot tier (``self._lock`` held)."""
        report = self._reports.get(target_id)
        if self.snapshot_store is not None and report is not None:
            spill = (target_id, model, report)
            self._spilling[target_id] = spill
            self._spill_queue.append(spill)

    def _readmit_locked(self, target_id: str) -> RegressionModel | None:
        """Put a target whose spill is still in flight back in the cache.

        Its in-memory model is the newest state of the target; the file may
        be older or not written yet.  Must run under ``self._lock``; the
        caller drains the spills this admission queues.
        """
        spill = self._spilling.get(target_id)
        if spill is None:
            return None
        model = spill[1]
        self._models[target_id] = model
        self._evict_over_capacity_locked()
        return model

    def _snapshot_stream_state(self, target_id: str) -> dict | None:
        """Streaming drift state for a spilling target (batch service: none).

        Overridden by :class:`~repro.streaming.StreamingAdaptationService`
        to capture the target's drift monitor and round counters.
        """
        return None

    def _drain_spills(self) -> None:
        """Write queued snapshots, one writer per service at a time.

        Runs without the cache lock: spilling streaming drift state takes
        per-stream locks whose ordering forbids holding it, and disk IO
        under it would stall every lookup.  Whoever holds the spill lock
        writes the whole queue while other evicting threads only enqueue,
        so spills land in eviction order, and a spill that a newer eviction
        of the same target superseded is skipped instead of racing it to
        the file.
        """
        store = self.snapshot_store
        if store is None:
            return
        while self._spill_lock.acquire(blocking=False):
            try:
                while True:
                    with self._lock:
                        if not self._spill_queue:
                            break
                        spill = self._spill_queue.popleft()
                        if self._spilling.get(spill[0]) is not spill:
                            continue
                    target_id, model, report = spill
                    try:
                        store.save(
                            target_id,
                            {
                                "report": report.to_dict(),
                                "weights": encode_model_weights(model),
                                "stream": self._snapshot_stream_state(target_id),
                            },
                        )
                    finally:
                        with self._lock:
                            if self._spilling.get(target_id) is spill:
                                del self._spilling[target_id]
                    self.metrics.counter("snapshots.spilled")
            finally:
                self._spill_lock.release()
            with self._lock:
                if not self._spill_queue:
                    return

    def _resume_from_snapshot(self, target_id: str) -> RegressionModel | None:
        """Rebuild a target's adapted model from its snapshot, if one exists.

        Returns the freshly cached model, or ``None`` for a clean miss.  A
        snapshot that exists but cannot be trusted (checksum, schema,
        structure) is counted as
        ``snapshots.corrupt``, deleted — so it is detected exactly once and
        the accounting invariant ``resumed + corrupt <= spilled`` holds —
        and treated as a miss; the caller then cold-adapts as before.
        """
        store = self.snapshot_store
        if store is None:
            return None
        watch = Stopwatch()
        model = copy.deepcopy(self._source_model)
        try:
            payload = store.load(target_id)
            if payload is None:
                return None
            restore_model_weights(model, payload.get("weights"))
            report = AdaptationReport.from_dict(payload["report"])
        except (SnapshotError, KeyError, TypeError, ValueError):
            store.discard(target_id)
            self.metrics.counter("snapshots.corrupt")
            return None
        model.eval()
        with self._lock:
            # A concurrent resume, re-adaptation or eviction may have won
            # the race while we were reading disk; keep its state.
            current = self._models.get(target_id)
            if current is None:
                current = self._readmit_locked(target_id)
            if current is None:
                self._reports[target_id] = report
                self._models[target_id] = model
                self._evict_over_capacity_locked()
            else:
                self._models.move_to_end(target_id)
        self._drain_spills()
        if current is not None:
            return current
        self.metrics.counter("snapshots.resumed")
        self.metrics.observe("snapshots.resume_seconds", watch.elapsed())
        return model

    def check_train_batching(self, train_batching: int) -> int:
        """Validate a ``train_batching`` knob against the scheme and model.

        Stacked training is an opt-in with hard requirements — the scheme
        must expose a stacked adaptation path and the model tree must be
        stackable — so an incompatible combination is a loud ``ValueError``
        at the entry point, never a silent serial fallback.
        """
        train_batching = int(train_batching)
        if train_batching < 1:
            raise ValueError("train_batching must be at least 1")
        if train_batching == 1:
            return 1
        if not getattr(self.strategy, "supports_stacked", False):
            raise ValueError(
                f"train_batching={train_batching} is not supported by scheme "
                f"{self.strategy.name!r}: it has no stacked adaptation path; "
                "use train_batching=1 for this scheme"
            )
        try:
            assert_stackable(self._source_model)
        except StackingError as exc:
            raise ValueError(
                f"train_batching={train_batching} cannot stack this model: {exc}"
            ) from exc
        return train_batching

    def adapt_stack(
        self,
        entries: list[tuple[str, np.ndarray, int | None]],
        train_batching: int = 1,
    ) -> list[tuple[AdaptationReport | None, Exception | None]]:
        """Adapt a batch of targets: the one body every adapt entry point runs.

        ``entries`` are ``(target_id, inputs, seed)`` with ``seed=None``
        meaning the usual :meth:`target_seed`.  They are chunked into stacks
        of up to ``train_batching`` targets, each stack one task (one
        stacked fine-tune, or one ``strategy.adapt`` for a stack of one),
        and every stack goes to the runner in one call, so an attached
        process pool gets them all at once.  Each job's scheme adapts its
        own copy of the source model, so results are bit-identical whatever
        the stack size.  Successes are stored; failures are returned as data,
        one ``(report, error)`` per entry in input order, for the caller's
        error policy (the serving gateway answers them as error envelopes,
        :meth:`adapt` and :meth:`adapt_many` raise the first).  Raises
        :class:`ValueError` when ``train_batching > 1`` and the scheme or
        model cannot stack — no silent fallback.
        """
        size = self.check_train_batching(train_batching)
        jobs = [
            (
                canonical_target_id(tid),
                data,
                self.target_seed(tid) if seed is None else int(seed),
                None,
            )
            for tid, data, seed in entries
        ]
        tasks = [jobs[start : start + size] for start in range(0, len(jobs), size)]
        settled: list[tuple[AdaptationReport | None, Exception | None]] = []
        for task, results in zip(tasks, self._run_tasks(tasks)):
            settled.extend(self._settle(task, results, "cold"))
        return settled

    def adapt_many(
        self,
        targets: Mapping[str, np.ndarray] | Iterable[tuple[str, np.ndarray]],
        train_batching: int = 1,
    ) -> dict[str, AdaptationReport]:
        """Adapt a batch of targets, on the attached worker pool if there is one.

        Parameters
        ----------
        targets:
            ``{target_id: inputs}`` mapping or an iterable of pairs.
        train_batching:
            Stack size for cross-target batched training (see
            :meth:`adapt_stack`).  Every target is independently seeded, so
            any stack size, and any worker count attached through
            :meth:`use_process_workers`, produces identical numbers.

        Returns
        -------
        dict
            Reports keyed by target id, in the input order.  The first
            failing target's error is raised.
        """
        items = [
            (canonical_target_id(tid), data)
            for tid, data in (
                targets.items() if isinstance(targets, Mapping) else targets
            )
        ]
        settled = self.adapt_stack(
            [(tid, data, None) for tid, data in items], train_batching
        )
        reports: dict[str, AdaptationReport] = {}
        for (tid, _data), (report, error) in zip(items, settled):
            if error is not None:
                raise error
            reports[tid] = report
        return reports

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _missing_model_error(self, target_id: str) -> KeyError:
        """A ``KeyError`` explaining *why* no model is cached for ``target_id``.

        Distinguishes the two very different situations a bare ``None`` used
        to conflate: the target was never adapted at all, versus it was
        adapted but its model fell out of the LRU cache.
        """
        with self._lock:
            adapted = target_id in self._reports
        if adapted:
            return KeyError(
                f"target {target_id!r} was adapted but its model was evicted from the "
                f"LRU cache (max_cached_models={self.max_cached_models}); re-adapt it "
                "(adaptation is deterministic) or raise max_cached_models"
            )
        return KeyError(
            f"target {target_id!r} was never adapted by this service; call "
            f"adapt({target_id!r}, inputs) first"
        )

    def _cached_model(self, target_id: str) -> RegressionModel | None:
        """Resolve a target's cached model, resuming it when it was spilled.

        On a cache miss with a snapshot tier attached, the target's model is
        re-admitted from an in-flight spill or warm-resumed from disk
        (bit-identical weights, original report) before the miss is
        conceded — this one chokepoint serves :meth:`model_for`,
        :meth:`predict`, the gateway micro-batcher, and the streaming
        probes, so every touch of an evicted target resumes.
        """
        target_id = canonical_target_id(target_id)
        with self._lock:
            model = self._models.get(target_id)
            if model is not None:
                self._models.move_to_end(target_id)
                return model
            model = self._readmit_locked(target_id)
        if model is not None:
            self._drain_spills()
            return model
        return self._resume_from_snapshot(target_id)

    def model_for(self, target_id: str, required: bool = False) -> RegressionModel | None:
        """The cached adapted model for ``target_id`` (``None`` if evicted).

        With ``required=True`` a missing model raises a :class:`KeyError`
        whose message says whether the target was never adapted or merely
        evicted from the LRU cache, instead of handing back ``None``.

        The returned model is the cached instance, not a copy, and other
        threads may be forwarding it: evaluation forwards are safe beside
        them, but anything that changes its mode or parameters (training,
        an MC-dropout probe) needs a copy first.
        """
        model = self._cached_model(target_id)
        if model is None and required:
            raise self._missing_model_error(canonical_target_id(target_id))
        return model

    def _predict_entry(
        self, target_id: str, strict: bool = False, count_metrics: bool = True
    ) -> tuple[RegressionModel, bool]:
        """Resolve the model a prediction for ``target_id`` must run on.

        Returns ``(model, fallback)`` where ``fallback`` says the shared
        source model was substituted for a missing adapted model.
        This is the seam the serving gateway's micro-batcher shares with
        :meth:`predict`: both resolve requests to the same model instances,
        so coalesced and per-request predictions are computed on identical
        parameters.

        ``count_metrics=False`` skips the per-call hit/miss counters; the
        micro-batcher uses it to tally a whole burst locally and issue one
        aggregated counter per outcome instead of one per request.
        """
        model = self._cached_model(target_id)
        if model is None:
            if strict:
                if count_metrics:
                    self.metrics.counter("service.cache.strict_misses")
                raise self._missing_model_error(canonical_target_id(target_id))
            if count_metrics:
                self.metrics.counter("service.cache.misses")
            return self._source_model, True
        if count_metrics:
            self.metrics.counter("service.cache.hits")
        return model, False

    def predict(
        self,
        target_id: str,
        inputs: np.ndarray,
        batch_size: int = 256,
        strict: bool = False,
    ) -> np.ndarray:
        """Predict with the target's adapted model (source model if unknown).

        Targets that were never adapted — or whose model was evicted — fall
        back to the source model, which is exactly the pre-adaptation
        behaviour and therefore always a safe default.  When silent fallback
        is not acceptable, pass ``strict=True``: a missing model then raises
        a :class:`KeyError` distinguishing "never adapted" from "evicted
        from the LRU cache".

        Thread-safe without a lock: an evaluation forward writes no layer
        state, so any number of threads may forward one model at once.  For
        serving throughput, go through the :class:`~repro.serve.Gateway`
        (which micro-batches across targets).
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        model, _ = self._predict_entry(target_id, strict=strict)
        return predict_batched(model, inputs, batch_size)

    def evict(self, target_id: str | None = None) -> list[str]:
        """Drop cached adapted models; reports survive.

        ``target_id=None`` evicts every cached model (memory pressure, or a
        fault-injection harness forcing source fallbacks and cold
        re-adaptations); a specific id evicts just that target.  Returns the
        ids actually evicted.  Eviction is exactly what LRU capacity
        pressure does, made explicit: adaptation is deterministic, so an
        evicted target can always be re-adapted to the same bits.

        With a snapshot store attached, every evicted model spills to the
        warm tier first, so the next touch resumes instead of cold-adapting.
        """
        with self._lock:
            if target_id is None:
                popped = list(self._models.items())
                self._models.clear()
            else:
                target_id = canonical_target_id(target_id)
                model = self._models.pop(target_id, None)
                popped = [(target_id, model)] if model is not None else []
            for tid, model in popped:
                self._queue_spill_locked(tid, model)
        evicted = [tid for tid, _model in popped]
        if evicted:
            self.metrics.counter("service.cache.evictions", len(evicted), reason="explicit")
        self._drain_spills()
        return evicted

    def report_for(self, target_id: str) -> AdaptationReport | None:
        """The stored report for ``target_id`` (survives model eviction)."""
        with self._lock:
            return self._reports.get(canonical_target_id(target_id))

    def reports(self) -> dict[str, AdaptationReport]:
        """All reports, keyed by target id."""
        with self._lock:
            return dict(self._reports)

    @property
    def cached_targets(self) -> list[str]:
        """Ids whose adapted models are currently cached (LRU order, oldest first)."""
        with self._lock:
            return list(self._models)

    @property
    def n_adapted(self) -> int:
        """Number of targets adapted so far (reports, not cached models)."""
        with self._lock:
            return len(self._reports)
