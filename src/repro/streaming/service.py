"""Streaming multi-target adaptation service.

The batch :class:`~repro.runtime.AdaptationService` assumes each target hands
over its unlabeled data once.  Real target domains — a pedestrian walking all
day, a taxi district across rush hours — produce *streams* whose label
distribution drifts.  :class:`StreamingAdaptationService` extends the batch
service with one new verb, :meth:`ingest`, and three pieces of per-target
state behind it:

* a **buffer** of un-adapted event batches;
* an **online density map** of recent confident predictions
  (:class:`~repro.streaming.OnlineDensityMap` with exponential decay), kept
  on the grid of the map estimated at the last adaptation;
* a **drift monitor** (:class:`~repro.streaming.DensityDriftMonitor`)
  Page-Hinkley-testing the divergence between the recent map and the
  adapted-time map.

The service reacts lazily: batches are only buffered until either (a) the
target has never been adapted and the buffer reaches ``min_adapt_events``
(cold adaptation from the source model), or (b) the target is adapted and
the drift monitor fires or the buffer reaches ``readapt_budget``
(**warm-start** re-adaptation: the *cached adapted model* is fine-tuned on
the recent window with a shorter schedule, instead of repeating the full
cold adaptation from the source model).  Warm starts are the measurable
speed win — see ``benchmarks/test_bench_streaming.py``.

Everything stays deterministic: probe predictions and each re-adaptation
round are seeded from the target id and the round/step counter, so replaying
the same stream reproduces the same events, models, and reports bit for bit.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from threading import Lock
from typing import Iterable, Mapping

import numpy as np

from ..core.adapter import NoConfidentSamplesError, SourceCalibration
from ..core.config import TasfarConfig
from ..core.density_map import LabelDensityMap
from ..core.estimator import LabelDistributionEstimator
from ..engine.rng import PROBE_STREAM, stream_seed_sequence
from ..engine.strategy import AdaptationStrategy, StackJob, StrategyOutcome
from ..nn.losses import Loss
from ..nn.models import RegressionModel
from ..obs import MetricsRegistry, Stopwatch
from ..runtime.report import AdaptationReport
from ..runtime.service import AdaptationService, canonical_target_id
from ..runtime.snapshots import (
    SnapshotError,
    SnapshotStore,
    decode_drift_state,
    encode_drift_state,
)
from ..uncertainty.mc_dropout import MCDropoutPredictor
from .drift import DensityDriftMonitor, DriftDetector

__all__ = ["StreamEvent", "StreamingAdaptationService"]


def _checked_batch(batch: np.ndarray) -> np.ndarray:
    """One ingest batch as float64, rejecting empty or feature-less input."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim < 2 or len(batch) == 0:
        raise ValueError("batch must be a non-empty array of shape (n_events, ...features)")
    return batch


@dataclass
class StreamEvent:
    """JSON-safe record of one :meth:`StreamingAdaptationService.ingest` call.

    Attributes
    ----------
    target_id:
        The stream this event belongs to.
    step:
        1-based per-target ingest counter.
    n_events:
        Number of samples in this batch.
    total_events:
        Cumulative samples ingested for this target so far.
    buffered:
        Samples waiting in the buffer *after* this call (zero right after
        an adaptation consumed the buffer).
    action:
        ``"buffered"``, ``"cold_adapt"``, ``"warm_adapt"`` or
        ``"adapt_failed"`` (an adaptation was due but no buffered sample
        cleared the confidence threshold; the buffer is kept and the next
        ingest retries).
    trigger:
        Why an adaptation ran (or was attempted): ``"warmup"`` (first
        adaptation), ``"budget"`` (buffer reached ``readapt_budget``) or
        ``"drift"``; ``None`` while merely buffering.
    drift_distance:
        Total-variation distance between the recent-window map and the
        adapted-time map (``None`` before the first adaptation or when the
        batch had no confident samples).
    drift_statistic:
        Page-Hinkley statistic after this batch (``None`` likewise).
    drifted:
        Whether the drift detector flagged this batch.
    duration_seconds:
        Wall-clock cost of the whole ingest call (probing plus any
        re-adaptation).
    """

    target_id: str
    step: int
    n_events: int
    total_events: int
    buffered: int
    action: str
    trigger: str | None = None
    drift_distance: float | None = None
    drift_statistic: float | None = None
    drifted: bool = False
    duration_seconds: float = 0.0

    def to_dict(self) -> dict:
        """Plain-builtins dictionary form (safe for ``json.dumps``)."""
        return asdict(self)


@dataclass
class _TargetStream:
    """Per-target mutable streaming state (guarded by its own lock)."""

    lock: Lock = field(default_factory=Lock)
    buffer: list[np.ndarray] = field(default_factory=list)
    n_buffered: int = 0
    total_events: int = 0
    step: int = 0
    monitor: DensityDriftMonitor | None = None
    events: list[StreamEvent] = field(default_factory=list)
    n_cold: int = 0
    n_warm: int = 0
    #: last committed ``repro.snapshot/v1`` stream section — the fallback a
    #: concurrent spill uses when this state's lock is held mid-ingest
    spill_cache: dict | None = None


@dataclass
class _PendingIngest:
    """One target's ingest decision, frozen before any adaptation runs.

    Every ingest is *decide* (buffer the batch, probe for drift, snapshot
    everything an adaptation would consume: inputs, seed, warm base model),
    *adapt* (one task on the service's runner), *commit* and *record*.
    :meth:`~StreamingAdaptationService.ingest_many` decides a whole wave
    first, then trains the due adaptations together, then records, all
    under the wave's stream locks.  This record carries the decision
    between the phases; only its owning target's state is ever referenced,
    which is what makes the phase split equivalent to serial per-target
    ingestion.
    """

    target_id: str
    state: _TargetStream
    watch: Stopwatch
    step: int
    n_events: int
    action: str = "buffered"
    trigger: str | None = None
    observation: object | None = None
    #: the due adaptation (``model=None``: cold, from the source model), set
    #: by :meth:`StreamingAdaptationService._mark_due`
    job: StackJob | None = None
    n_snapshot: int = 0
    round_index: int = 0


class StreamingAdaptationService(AdaptationService):
    """Adapt a fleet of target domains from *streams* instead of batches.

    Parameters (beyond :class:`~repro.runtime.AdaptationService`)
    ----------
    min_adapt_events:
        Buffered samples required before the first (cold) adaptation of a
        target; earlier batches are only buffered.
    readapt_budget:
        Buffered samples that force a re-adaptation even without a drift
        alarm, bounding how stale an adapted model may grow.
    max_buffer_events:
        Hard cap on buffered samples per target; the oldest batches are
        dropped beyond it.  Without a cap, a stream whose samples never
        clear the confidence threshold (every adaptation attempt fails)
        would buffer the entire stream forever.  Defaults to four times the
        larger of ``min_adapt_events`` and ``readapt_budget``.
    warm_epochs:
        Fine-tuning epochs for warm-start re-adaptations; defaults to a
        quarter of the active strategy's cold epoch budget (at least one).
        The short schedule is what makes a warm re-adaptation cheaper than
        a cold one.
    window_decay:
        Exponential decay of the recent-window density map fed to the drift
        monitor.
    drift_threshold, drift_delta, drift_min_batches:
        Page-Hinkley parameters of the per-target drift detectors.  The
        defaults are tuned to the total-variation scale of the divergence
        statistic on the bundled tasks: a sustained rise of a few hundredths
        fires within a handful of batches, while stationary noise does not.
    drift_warmup_events:
        Confident events the recent window must accumulate after each
        (re-)adaptation before observations reach the detector — an almost
        empty window diverges from any reference for small-sample reasons
        alone, and those early distances would poison the Page-Hinkley
        baseline.
    drift_mc_samples:
        MC-dropout passes used to probe incoming batches; defaults to
        ``config.n_mc_samples``.  Probing is on the ingest hot path, so a
        smaller value buys throughput at some monitor noise.
    """

    def __init__(
        self,
        source_model: RegressionModel,
        calibration: SourceCalibration,
        config: TasfarConfig | None = None,
        loss: Loss | None = None,
        *,
        strategy: AdaptationStrategy | None = None,
        max_cached_models: int = 8,
        base_seed: int = 0,
        min_adapt_events: int = 32,
        readapt_budget: int = 128,
        max_buffer_events: int | None = None,
        warm_epochs: int | None = None,
        window_decay: float = 0.35,
        drift_threshold: float = 0.10,
        drift_delta: float = 0.01,
        drift_min_batches: int = 3,
        drift_warmup_events: int = 32,
        drift_mc_samples: int | None = None,
        metrics: MetricsRegistry | None = None,
        snapshot_store: SnapshotStore | None = None,
    ) -> None:
        if calibration is None:
            # The base service can run calibration-free behind an explicit
            # strategy, but streaming cannot: drift probing and the
            # reference density maps both need the source confidence
            # threshold and the sigma calibrators, whatever the scheme.
            raise ValueError(
                "StreamingAdaptationService always needs the source calibration "
                "(drift probing uses its threshold and calibrators), even when an "
                "explicit strategy is supplied"
            )
        super().__init__(
            source_model,
            calibration,
            config,
            loss,
            strategy=strategy,
            max_cached_models=max_cached_models,
            base_seed=base_seed,
            metrics=metrics,
            snapshot_store=snapshot_store,
        )
        if min_adapt_events < 1:
            raise ValueError("min_adapt_events must be at least 1")
        if readapt_budget < 1:
            raise ValueError("readapt_budget must be at least 1")
        self.min_adapt_events = int(min_adapt_events)
        self.readapt_budget = int(readapt_budget)
        floor = max(self.min_adapt_events, self.readapt_budget)
        if max_buffer_events is None:
            max_buffer_events = 4 * floor
        if max_buffer_events < floor:
            raise ValueError(
                "max_buffer_events must be at least max(min_adapt_events, readapt_budget)"
            )
        self.max_buffer_events = int(max_buffer_events)
        if warm_epochs is None:
            # A quarter of the *strategy's* cold budget, so "warm is shorter
            # than cold" holds for every scheme (a baseline running 5-epoch
            # cold adaptations must not warm-start with 10).
            cold_budget = self.strategy.default_epochs
            if cold_budget is None:
                cold_budget = self.config.adaptation_epochs
            warm_epochs = max(1, cold_budget // 4)
        if warm_epochs < 1:
            raise ValueError("warm_epochs must be at least 1")
        self.warm_epochs = int(warm_epochs)
        self.window_decay = float(window_decay)
        self.drift_threshold = float(drift_threshold)
        self.drift_delta = float(drift_delta)
        self.drift_min_batches = int(drift_min_batches)
        self.drift_warmup_events = int(drift_warmup_events)
        self.drift_mc_samples = (
            self.config.n_mc_samples if drift_mc_samples is None else int(drift_mc_samples)
        )
        self._sigma_estimator = LabelDistributionEstimator(
            calibrators=self.calibration.calibrators,
            error_model=self.config.error_model,
        )
        self._streams: OrderedDict[str, _TargetStream] = OrderedDict()
        self._streams_lock = Lock()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, target_id: str, batch: np.ndarray) -> StreamEvent:
        """Fold one batch of unlabeled target events into the stream.

        Buffers the batch, refreshes the target's recent density map, and —
        when warranted — runs a cold or warm-start (re-)adaptation.  Returns
        the :class:`StreamEvent` describing what happened; the full event
        log is available via :meth:`events_for`.  A one-item
        :meth:`ingest_many`.
        """
        target_id = canonical_target_id(target_id)
        return self.ingest_many([(target_id, batch)])[target_id]

    def ingest_many(
        self,
        batches: Mapping[str, np.ndarray] | Iterable[tuple[str, np.ndarray]],
        train_batching: int = 1,
    ) -> dict[str, StreamEvent]:
        """Ingest one batch for each of several targets.

        Items are processed in **waves**: consecutive runs of distinct
        target ids.  A repeated id cuts a wave, because its second batch
        must observe the buffer/model state its first one produced —
        exactly what serial ingestion would see.  A wave decides every
        target in input order (buffering, drift probes, triggers), then
        hands the due (re-)adaptations to the runner together, in stacks of
        up to ``train_batching`` targets (warm and cold rounds stacked
        separately, since they run different epoch schedules), then records
        the events.  All streaming state is per-target, so this is
        bit-identical to serial ingestion provided ``max_cached_models``
        covers the active fleet.

        A wave holds every one of its targets' stream locks, taken in
        sorted id order, from decision to recorded event: each ingest is as
        atomic as a lone one, and two callers sharing a target cannot both
        adapt the same round.  Raises :class:`ValueError` when
        ``train_batching > 1`` and the scheme or model cannot stack — no
        silent fallback.
        """
        items = list(batches.items()) if isinstance(batches, Mapping) else list(batches)
        train_batching = self.check_train_batching(train_batching)
        events: dict[str, StreamEvent] = {}
        wave: list[tuple[str, np.ndarray]] = []
        seen: set[str] = set()
        for tid, batch in items:
            tid = canonical_target_id(tid)
            if tid in seen:
                self._ingest_wave(wave, train_batching, events)
                wave, seen = [], set()
            wave.append((tid, _checked_batch(batch)))
            seen.add(tid)
        if wave:
            self._ingest_wave(wave, train_batching, events)
        return events

    def _ingest_wave(
        self,
        wave: list[tuple[str, np.ndarray]],
        train_batching: int,
        events: dict[str, StreamEvent],
    ) -> None:
        """Decide, adapt and record one wave under all of its stream locks."""
        states = {tid: self._stream_state(tid) for tid, _ in wave}
        with ExitStack() as held:
            for tid in sorted(states):
                held.enter_context(states[tid].lock)
            pendings = [self._decide_locked(tid, states[tid], batch) for tid, batch in wave]
            due = [pending for pending in pendings if pending.job is not None]
            for warm in (False, True):
                # Warm and cold rounds never share a stack: they train under
                # different epoch schedules (and from different start models).
                group = [pending for pending in due if (pending.job.model is not None) is warm]
                stacks = range(0, len(group), train_batching)
                self._adapt_pending(
                    [group[start : start + train_batching] for start in stacks], warm
                )
            for pending in pendings:
                events[pending.target_id] = self._record_event_locked(pending)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _stream_state(self, target_id: str) -> _TargetStream:
        with self._streams_lock:
            state = self._streams.get(target_id)
            if state is None:
                state = self._streams[target_id] = self._restored_stream_state(target_id)
            return state

    def _restored_stream_state(self, target_id: str) -> _TargetStream:
        """A fresh per-target state, warm-resumed from the snapshot tier if possible.

        In-memory streaming state is never LRU-evicted, so this restore only
        matters for a *new process* picking up a fleet an earlier process
        spilled: the round counters and the drift monitor come back from the
        target's snapshot, making the next trigger a warm re-adaptation (the
        model itself resumes lazily through the cache-miss chokepoint).  The
        event buffer is deliberately transient and restarts empty.  A corrupt
        snapshot reads as absent here; the model-resume path is the one place
        that counts and discards it, so ``snapshots.corrupt`` is exact.
        """
        state = _TargetStream()
        store = self.snapshot_store
        if store is None:
            return state
        try:
            payload = store.load(target_id)
        except SnapshotError:
            return state
        if payload is None:
            return state
        stream = payload.get("stream")
        if not isinstance(stream, dict):
            return state
        try:
            monitor = decode_drift_state(
                stream.get("monitor"), error_model=self._sigma_estimator.error_model
            )
            n_cold = int(stream["n_cold"])
            n_warm = int(stream["n_warm"])
            step = int(stream["step"])
            total_events = int(stream["total_events"])
        except (SnapshotError, KeyError, TypeError, ValueError):
            return state
        state.monitor = monitor
        state.n_cold = n_cold
        state.n_warm = n_warm
        state.step = step
        state.total_events = total_events
        state.spill_cache = dict(stream)
        return state

    def _encode_stream_state(self, state: _TargetStream) -> dict:
        """The ``stream`` section of a snapshot (caller holds ``state.lock``).

        The buffer is deliberately not captured: buffered batches are raw
        un-adapted events a restarted stream can simply re-accumulate, and
        spilling them would multiply every snapshot by the buffer size.
        """
        return {
            "n_cold": int(state.n_cold),
            "n_warm": int(state.n_warm),
            "step": int(state.step),
            "total_events": int(state.total_events),
            "monitor": encode_drift_state(state.monitor),
        }

    def _snapshot_stream_state(self, target_id: str) -> dict | None:
        """Capture a spilling target's drift state without risking deadlock.

        The spiller may already hold other targets' stream locks (a wave
        whose commit evicted this target, or this target itself), so this
        never blocks on ``state.lock``: it try-acquires for a live capture
        and falls back to the last committed capture when the target is
        mid-ingest, on another thread or in the spiller's own wave.
        """
        state = self._peek_state(target_id)
        if state is None:
            return None
        if state.lock.acquire(blocking=False):
            try:
                payload = self._encode_stream_state(state)
                state.spill_cache = payload
                return payload
            finally:
                state.lock.release()
        return state.spill_cache

    def _probe(self, target_id: str, state: _TargetStream, batch: np.ndarray):
        """Update the drift monitor with the batch's confident predictions.

        Probes with the target's *current* model (adapted if cached, source
        otherwise) so the monitor measures divergence from what is actually
        being served.  Returns ``None`` when no sample clears the confidence
        threshold — an all-uncertain batch carries no density information.
        """
        # The probe switches dropout into MC mode for the call, so it runs on
        # a private copy: the served model keeps forwarding on other threads
        # meanwhile.
        model = self._cached_model(target_id)
        predictor = MCDropoutPredictor(
            copy.deepcopy(self._source_model if model is None else model),
            n_samples=self.drift_mc_samples,
            seed=stream_seed_sequence(self.target_seed(target_id), PROBE_STREAM, state.step),
        )
        prediction = predictor.predict(batch)
        confident = np.flatnonzero(prediction.uncertainty <= self.calibration.threshold)
        if len(confident) == 0:
            return None
        sigmas = self._sigma_estimator.sigma_for(prediction.uncertainty[confident])
        assert state.monitor is not None
        return state.monitor.observe(prediction.mean[confident], sigmas)

    def _decide_locked(
        self, target_id: str, state: _TargetStream, batch: np.ndarray
    ) -> _PendingIngest:
        """The decision phase of an ingest (caller holds ``state.lock``).

        Buffers the batch, updates the drift monitor, and decides whether an
        adaptation is due; a due adaptation's inputs, seed and base model are
        snapshotted onto the returned :class:`_PendingIngest`.
        """
        watch = Stopwatch()
        state.step += 1
        state.buffer.append(batch)
        state.n_buffered += len(batch)
        state.total_events += len(batch)
        self.metrics.counter("stream.ingest_batches")
        self.metrics.counter("stream.ingest_events", len(batch))
        # Bound the buffer: drop the oldest batches (never the newest) so a
        # target whose adaptations keep failing can't hoard the whole stream
        # in memory.
        while state.n_buffered > self.max_buffer_events and len(state.buffer) > 1:
            dropped = state.buffer.pop(0)
            state.n_buffered -= len(dropped)
            self.metrics.counter("stream.buffer_dropped_events", len(dropped))
        pending = _PendingIngest(
            target_id=target_id,
            state=state,
            watch=watch,
            step=state.step,
            n_events=len(batch),
        )
        adapted = (state.n_cold + state.n_warm) > 0
        if not adapted:
            if state.n_buffered >= self.min_adapt_events:
                pending.trigger = "warmup"
                self._mark_due(pending, base_model=None)
            return pending
        # state.monitor can be None for an adapted target when no reference
        # density map could be estimated (non-TASFAR scheme, nothing
        # confident in the window): drift detection is then unavailable and
        # re-adaptation falls back to budget-only.
        if state.monitor is not None:
            pending.observation = self._probe(target_id, state, batch)
            if pending.observation is not None:
                self.metrics.counter("stream.drift.observations")
                if pending.observation.drifted:
                    self.metrics.counter("stream.drift.detections")
        drifted = pending.observation is not None and pending.observation.drifted
        if drifted or state.n_buffered >= self.readapt_budget:
            pending.trigger = "drift" if drifted else "budget"
            # One lookup decides warm-vs-cold AND supplies the warm base
            # model, so a concurrent eviction between "check" and "use"
            # can't sneak a short warm schedule onto the source model.
            self._mark_due(pending, base_model=self.model_for(target_id))
        return pending

    def _mark_due(self, pending: _PendingIngest, base_model: RegressionModel | None) -> None:
        """Snapshot everything the due adaptation will consume (lock held)."""
        state = pending.state
        pending.n_snapshot = len(state.buffer)
        pending.round_index = state.n_cold + state.n_warm
        pending.job = StackJob(
            base_model,
            state.buffer[0] if len(state.buffer) == 1 else np.concatenate(state.buffer, axis=0),
            self.target_seed(f"{pending.target_id}#round{pending.round_index}"),
            pending.target_id,
        )

    def _adapt_pending(self, groups: list[list[_PendingIngest]], warm: bool) -> None:
        """Run due (re-)adaptations, one task per group, and commit each success.

        The service's runner and settle step do the work and the accounting
        (one ``service.adaptations`` count per success, one latency sample
        per task).  TASFAR cannot adapt when *no* buffered sample clears the
        confidence threshold (e.g. a window dominated by a sensor glitch):
        that per-job :class:`~repro.core.NoConfidentSamplesError` becomes
        ``adapt_failed`` with the buffer kept, so the next ingest retries
        once more confident data has arrived; any other error propagates.
        The caller holds every pending target's stream lock.
        """
        tasks = [[pending.job for pending in group] for group in groups]
        results = self._run_tasks(tasks, self.warm_epochs if warm else None)
        for group, task, task_results in zip(groups, tasks, results):
            settled = self._settle(
                task,
                task_results,
                "warm" if warm else "cold",
                publish=lambda index, report, outcome: self._commit_adaptation(
                    group[index], report, outcome  # noqa: B023 - runs in this iteration
                ),
            )
            for pending, (_report, error) in zip(group, settled):
                if error is None:
                    pending.action = "warm_adapt" if warm else "cold_adapt"
                elif isinstance(error, NoConfidentSamplesError):
                    pending.action = "adapt_failed"
                else:
                    raise error

    def _record_event_locked(self, pending: _PendingIngest) -> StreamEvent:
        """Record the :class:`StreamEvent` of one settled ingest (caller holds its lock)."""
        state = pending.state
        observation = pending.observation
        event = StreamEvent(
            target_id=pending.target_id,
            step=pending.step,
            n_events=pending.n_events,
            total_events=state.total_events,
            buffered=state.n_buffered,
            action=pending.action,
            trigger=pending.trigger,
            drift_distance=None if observation is None else float(observation.distance),
            drift_statistic=None if observation is None else float(observation.statistic),
            drifted=observation is not None and observation.drifted,
            duration_seconds=pending.watch.elapsed(),
        )
        state.events.append(event)
        self.metrics.counter("stream.actions", action=event.action)
        self.metrics.observe("stream.ingest_seconds", event.duration_seconds)
        return event

    def _commit_adaptation(
        self,
        pending: _PendingIngest,
        report: AdaptationReport,
        outcome: StrategyOutcome,
    ) -> None:
        """Publish one finished (re-)adaptation: report, model, monitor, buffer.

        The caller holds the target's stream lock.  Only the decision-time
        snapshot of the buffer is consumed.
        """
        target_id, state = pending.target_id, pending.state
        warm = pending.job.model is not None
        density_map = outcome.density_map
        if density_map is None:
            # The scheme does not estimate a label density map itself
            # (any non-TASFAR strategy).  The drift monitor wants a
            # reference map of "what the freshly adapted model
            # believes", so estimate one by probing the adapted model on
            # the adaptation window.
            density_map = self._reference_density_map(
                target_id, pending.round_index, outcome.target_model, pending.job.inputs
            )
        report.extra["round"] = pending.round_index
        report.extra["mode"] = "warm" if warm else "cold"
        report.extra["drift_reference"] = density_map is not None
        self._store_result(target_id, report, outcome.target_model)
        if density_map is None:
            # The fine-tune itself succeeded — publish the model rather
            # than throw the paid-for training away (TASFAR's equivalent
            # failure aborts *before* training, which is why it is
            # treated as ``adapt_failed`` instead).  Until a future
            # adaptation yields a reference map, drift detection is
            # unavailable for this target and re-adaptation is
            # budget-triggered only.
            state.monitor = None
        elif state.monitor is None:
            state.monitor = DensityDriftMonitor(
                density_map,
                DriftDetector(self.drift_threshold, self.drift_delta, self.drift_min_batches),
                window_decay=self.window_decay,
                warmup_events=self.drift_warmup_events,
                error_model=self._sigma_estimator.error_model,
            )
        else:
            state.monitor.rebase(density_map)
        del state.buffer[: pending.n_snapshot]
        state.n_buffered = sum(len(batch) for batch in state.buffer)
        if warm:
            state.n_warm += 1
        else:
            state.n_cold += 1
        if self.snapshot_store is not None:
            # Refresh the spill fallback while the stream lock is held: an
            # eviction that cannot take this lock spills this committed
            # capture instead of skipping the target.
            state.spill_cache = self._encode_stream_state(state)

    def _reference_density_map(
        self,
        target_id: str,
        round_index: int,
        model: RegressionModel,
        inputs: np.ndarray,
    ) -> LabelDensityMap | None:
        """Estimate a drift-reference density map for a scheme without one.

        Probes the freshly adapted (not yet published) model on the
        adaptation window with seeded MC dropout, keeps the predictions that
        clear the source confidence threshold, and fits the same estimator
        TASFAR uses.  Returns ``None`` when nothing clears the threshold —
        the adapted model is still published, but drift detection stays off
        for the target until a later adaptation yields a reference map.
        """
        predictor = MCDropoutPredictor(
            model,
            n_samples=self.drift_mc_samples,
            seed=stream_seed_sequence(
                self.target_seed(f"{target_id}#map{round_index}"), PROBE_STREAM
            ),
        )
        prediction = predictor.predict(inputs)
        confident = np.flatnonzero(prediction.uncertainty <= self.calibration.threshold)
        if len(confident) == 0:
            return None
        estimator = LabelDistributionEstimator(
            calibrators=self.calibration.calibrators,
            grid_size=self.config.grid_size,
            auto_grid_bins=self.config.auto_grid_bins,
            margin_sigmas=self.config.grid_margin_sigmas,
            error_model=self.config.error_model,
        )
        return estimator.estimate(
            prediction.mean[confident], prediction.uncertainty[confident]
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stream_ids(self) -> list[str]:
        """Target ids that have ingested at least one batch, in first-seen order."""
        with self._streams_lock:
            return list(self._streams)

    def _peek_state(self, target_id: str) -> _TargetStream | None:
        """Read-only state lookup: never registers state for unknown ids."""
        with self._streams_lock:
            return self._streams.get(canonical_target_id(target_id))

    def events_for(self, target_id: str) -> list[StreamEvent]:
        """The per-target event log, oldest first (empty for unknown ids)."""
        state = self._peek_state(target_id)
        if state is None:
            return []
        with state.lock:
            return list(state.events)

    def stream_stats(self, target_id: str) -> dict:
        """Per-target counters: events, adaptations, current buffer depth.

        An id that never ingested anything reports all-zero counters; it is
        not registered as a stream by being asked about.
        """
        state = self._peek_state(target_id)
        if state is None:
            state = _TargetStream()
        with state.lock:
            return {
                "target_id": canonical_target_id(target_id),
                "steps": state.step,
                "total_events": state.total_events,
                "buffered": state.n_buffered,
                "cold_adaptations": state.n_cold,
                "warm_adaptations": state.n_warm,
            }

    def event_table(self) -> list[dict]:
        """All events of all targets as dictionaries (JSON-ready)."""
        rows: list[dict] = []
        for target_id in self.stream_ids():
            rows.extend(event.to_dict() for event in self.events_for(target_id))
        return rows
