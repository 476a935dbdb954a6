"""Span recording around the program's public functions, and per-layer self time.

:class:`Recorder` wraps the functions listed in :data:`BOUNDARIES`, each
named after the per-layer row its time belongs to.  A span has an id, a
parent, a row, a start and an end; spans are kept in memory and written to
one file per process when recording ends.

The parent of a span is the span that caused it:

* in the same thread, the enclosing wrapped call;
* across threads, the span that was open when the work was handed to a
  ``ThreadPoolExecutor`` (the gateway's shard dispatch, the socket server's
  pool);
* across processes, the span that *waits* on the ``ProcessPoolExecutor``
  future (falling back to the one that submitted it).  Worker processes
  inherit the wrappers under ``fork`` and write their own span files at
  exit.

:func:`attribute` turns the merged spans into self times that sum to wall
time: at every instant, the wall clock is shared equally among the open
spans that have no open child (the work actually being done, in every
thread and process); instants with no open span are ``unattributed_s``.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from time import perf_counter


def _mc_rows(args, result) -> dict:
    predictor, inputs = args[0], args[1]
    return {"uncertainty.mc_rows": len(inputs) * predictor.n_samples}


def _split_counts(args, result) -> dict:
    return {
        "core.uncertain_rows": result.n_uncertain,
        "core.split_rows": result.n_uncertain + result.n_confident,
    }


#: (row, module, attribute[, counter]) — the timed boundary of each layer.
BOUNDARIES = [
    ("data.bundle_s", "repro.experiments.base", "get_bundle"),
    ("nn.forward_s", "repro.nn.models", "RegressionModel.forward"),
    ("nn.backward_s", "repro.nn.models", "RegressionModel.backward"),
    ("nn.forward_s", "repro.nn.stacked", "StackedRegressionModel.forward"),
    ("nn.backward_s", "repro.nn.stacked", "StackedRegressionModel.backward"),
    ("nn.optim_s", "repro.nn.optim", "SGD.step"),
    ("nn.optim_s", "repro.nn.optim", "Adam.step"),
    ("nn.optim_s", "repro.nn.optim", "clip_gradients"),
    ("nn.optim_s", "repro.nn.stacked", "StackedSGD.step"),
    ("nn.optim_s", "repro.nn.stacked", "StackedAdam.step"),
    ("nn.optim_s", "repro.nn.stacked", "stacked_clip_gradients"),
    ("uncertainty.mc_dropout_s", "repro.uncertainty.mc_dropout", "MCDropoutPredictor.predict", _mc_rows),
    ("core.confidence_split_s", "repro.core.confidence", "ConfidenceClassifier.split", _split_counts),
    ("core.density_estimate_s", "repro.core.estimator", "LabelDistributionEstimator.estimate"),
    ("core.pseudo_label_s", "repro.core.pseudo_label", "PseudoLabelGenerator.pseudo_label"),
    ("core.tasfar_s", "repro.core.adapter", "Tasfar.adapt"),
    ("core.tasfar_s", "repro.core.adapter", "Tasfar.adapt_stacked"),
    ("engine.finetune_s", "repro.engine.finetune", "FineTuneEngine.run"),
    ("engine.stacked_s", "repro.engine.stacked", "StackedFineTuneEngine.run"),
    ("engine.strategy_s", "repro.engine.strategy", "TasfarStrategy.adapt"),
    ("engine.strategy_s", "repro.engine.strategy", "TasfarStrategy.adapt_stacked"),
    ("engine.strategy_s", "repro.engine.strategy", "BaselineStrategy.adapt"),
    ("engine.strategy_s", "repro.engine.strategy", "BaselineStrategy.adapt_stacked"),
    ("runtime.service_s", "repro.runtime.service", "AdaptationService.adapt"),
    ("runtime.service_s", "repro.runtime.service", "AdaptationService.adapt_stack"),
    ("runtime.service_s", "repro.runtime.service", "AdaptationService.adapt_many"),
    ("runtime.service_s", "repro.runtime.service", "AdaptationService.predict"),
    ("runtime.service_s", "repro.runtime.service", "AdaptationService.model_for"),
    ("runtime.workers.ipc_s", "repro.runtime.workers", "AdaptationWorkerPool.submit"),
    ("runtime.workers.ipc_s", "repro.runtime.workers", "AdaptationWorkerPool.collect"),
    ("runtime.workers.ipc_s", "repro.runtime.workers", "AdaptationWorkerPool.submit_stacked"),
    ("runtime.workers.ipc_s", "repro.runtime.workers", "AdaptationWorkerPool.collect_stacked"),
    ("runtime.snapshots.save_s", "repro.runtime.snapshots", "SnapshotStore.save"),
    ("runtime.snapshots.save_s", "repro.runtime.snapshots", "encode_model_weights"),
    ("runtime.snapshots.load_s", "repro.runtime.snapshots", "SnapshotStore.load"),
    ("runtime.snapshots.load_s", "repro.runtime.snapshots", "restore_model_weights"),
    ("streaming.ingest_s", "repro.streaming.service", "StreamingAdaptationService.ingest"),
    ("streaming.ingest_s", "repro.streaming.service", "StreamingAdaptationService.ingest_many"),
    ("streaming.drift_observe_s", "repro.streaming.drift", "DensityDriftMonitor.observe"),
    ("serve.gateway_s", "repro.serve.gateway", "Gateway.submit"),
    ("serve.gateway_s", "repro.serve.gateway", "Gateway.submit_many"),
    ("serve.gateway_s", "repro.serve.gateway", "Gateway.submit_async"),
    ("serve.gateway_s", "repro.serve.loop", "Session.handle_requests"),
    ("serve.decode_s", "repro.serve.loop", "decode_line"),
    ("serve.encode_s", "repro.serve.protocol", "Envelope.to_json"),
    ("serve.batch_forward_s", "repro.serve.batching", "run_model_group"),
    ("net.framing_s", "repro.net.framing", "LineFramer.feed"),
    ("net.framing_s", "repro.net.framing", "LineFramer.flush"),
    *(
        ("obs.record_s", "repro.obs.metrics", f"MetricsRegistry.{name}")
        for name in (
            "counter", "counter_many", "gauge_set", "gauge_add", "observe",
            "bulk", "observe_many", "observe_n", "merge",
        )
    ),
]  # fmt: skip

ROWS = tuple(dict.fromkeys(boundary[0] for boundary in BOUNDARIES))


class _State:
    enabled = False


_STATE = _State()
_LOCAL = threading.local()
_IDS = itertools.count(1)
_SPANS: list = []  # (id, parent, row, start, end)
_WAITS: list = []  # (waiting span id, token)
_SUBMITS: list = []  # (submitting span id, token)
_COUNTERS: collections.Counter = collections.Counter()


def _top():
    stack = getattr(_LOCAL, "stack", None)
    return stack[-1] if stack else None


def _wrap(fn, row, counter=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not _STATE.enabled:
            return fn(*args, **kwargs)
        stack = getattr(_LOCAL, "stack", None)
        if stack is None:
            stack = _LOCAL.stack = []
        parent = stack[-1] if stack else None
        span_id = next(_IDS)
        stack.append(span_id)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            _SPANS.append((span_id, parent, row, start, end))
        if counter is not None:
            _COUNTERS.update(counter(args, result))
        return result

    return traced


class _TracedCall:
    """A process-pool task that records its spans under the submitter's token."""

    def __init__(self, fn, token) -> None:
        self.fn = fn
        self.token = token

    def __call__(self, *args, **kwargs):
        saved_stack, saved_enabled = getattr(_LOCAL, "stack", None), _STATE.enabled
        _LOCAL.stack = [("token", *self.token)]
        _STATE.enabled = True
        try:
            return self.fn(*args, **kwargs)
        finally:
            _LOCAL.stack, _STATE.enabled = saved_stack, saved_enabled


def _with_parent(parent, fn):
    def run(*args, **kwargs):
        saved = getattr(_LOCAL, "stack", None)
        _LOCAL.stack = [] if parent is None else [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            _LOCAL.stack = saved

    return run


class Recorder:
    """Installs the wrappers in this process and writes this process's spans."""

    def __init__(self, spans_dir) -> None:
        self.spans_dir = Path(spans_dir)
        self._undo: list = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for boundary in BOUNDARIES:
            row, module_name, attribute = boundary[:3]
            counter = boundary[3] if len(boundary) > 3 else None
            module = importlib.import_module(module_name)
            owner_name, _, name = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__.get(name)
                if original is None:
                    continue  # inherited: the defining class is wrapped
                self._set(owner, name, _wrap(original, row, counter))
            else:
                original = getattr(module, name)
                wrapped = _wrap(original, row, counter)
                for loaded in list(_repro_modules()):
                    if getattr(loaded, name, None) is original:
                        self._set(loaded, name, wrapped)
        self._patch_pools()
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def _set(self, owner, name, value) -> None:
        previous = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((owner, name, previous))
        setattr(owner, name, value)

    def _patch_pools(self) -> None:
        thread_submit = ThreadPoolExecutor.submit
        process_submit = ProcessPoolExecutor.submit
        future_result = Future.result

        def submit_thread(pool, fn, /, *args, **kwargs):
            if _STATE.enabled:
                fn = _with_parent(_top(), fn)
            return thread_submit(pool, fn, *args, **kwargs)

        def submit_process(pool, fn, /, *args, **kwargs):
            if not _STATE.enabled:
                return process_submit(pool, fn, *args, **kwargs)
            token = (os.getpid(), next(_IDS))
            _SUBMITS.append((_top(), token))
            future = process_submit(pool, _TracedCall(fn, token), *args, **kwargs)
            future.perfbench_token = token
            return future

        def result(future, timeout=None):
            token = getattr(future, "perfbench_token", None)
            if token is not None and _STATE.enabled:
                _WAITS.append((_top(), token))
            return future_result(future, timeout)

        self._set(ThreadPoolExecutor, "submit", submit_thread)
        self._set(ProcessPoolExecutor, "submit", submit_process)
        self._set(Future, "result", result)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _after_fork(self) -> None:
        """In a forked worker: start empty and write spans at process exit."""
        global _LOCAL
        _LOCAL = threading.local()
        _STATE.enabled = False
        del _SPANS[:], _WAITS[:], _SUBMITS[:]
        _COUNTERS.clear()
        multiprocessing.util.Finalize(None, self.write, exitpriority=10)

    # -- switching and output ----------------------------------------------
    @staticmethod
    def enable() -> None:
        _STATE.enabled = True

    @staticmethod
    def disable() -> None:
        _STATE.enabled = False

    def write(self) -> None:
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        path = self.spans_dir / f"spans-{os.getpid()}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "pid": os.getpid(),
                    "spans": _SPANS,
                    "waits": _WAITS,
                    "submits": _SUBMITS,
                    "counts": dict(_COUNTERS),
                },
                handle,
            )


def _repro_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            yield module


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
#: Layers that own the model passes they make: a forward inside MC-dropout or
#: a serving tile counts to that layer, so the ``nn.*`` rows are training.
ABSORBING_ROWS = ("uncertainty.mc_dropout_s", "serve.batch_forward_s")


def _owning_row(gid, spans, parents) -> str:
    row = spans[gid][1]
    if not row.startswith("nn."):
        return row
    parent = parents[gid]
    while parent is not None and parent in spans:
        parent_row = spans[parent][1]
        if parent_row in ABSORBING_ROWS:
            return parent_row
        if not parent_row.startswith("nn."):
            return row
        parent = parents[parent]
    return row


def attribute(spans_dir, windows) -> dict:
    """Per-row self time over ``windows`` (absolute perf_counter intervals)."""
    spans: dict = {}  # global id -> (parent global id | token, row, start, end)
    token_parent: dict = {}
    counts: collections.Counter = collections.Counter()
    for path in sorted(Path(spans_dir).glob("spans-*.json")):
        data = json.loads(path.read_text())
        pid = data["pid"]
        for span_id, token in data["submits"]:
            if span_id is not None and not isinstance(span_id, list):
                token_parent.setdefault(tuple(token), (pid, span_id))
        for span_id, token in data["waits"]:
            if span_id is not None and not isinstance(span_id, list):
                token_parent[tuple(token)] = (pid, span_id)  # the waiter wins
        for span_id, parent, row, start, end in data["spans"]:
            if isinstance(parent, list):  # ["token", pid, n]
                parent = ("token", parent[1], parent[2])
            elif parent is not None:
                parent = (pid, parent)
            spans[(pid, span_id)] = (parent, row, start, end)
        counts.update(data["counts"])

    def resolve(parent):
        if parent is not None and parent[0] == "token":
            return token_parent.get((parent[1], parent[2]))
        return parent

    parents = {gid: resolve(info[0]) for gid, info in spans.items()}
    for gid, (parent, row, start, end) in list(spans.items()):
        owner = _owning_row(gid, spans, parents)
        if owner != row:
            spans[gid] = (parent, owner, start, end)

    events = []
    for gid, (parent, row, start, end) in spans.items():
        events.append((start, 1, gid))
        events.append((end, 0, gid))
    events.sort()
    windows = sorted(windows)
    wall = sum(end - start for start, end in windows)

    rows = collections.defaultdict(float)
    unattributed = 0.0
    active: set = set()
    open_children: collections.Counter = collections.Counter()
    frontier_rows: collections.Counter = collections.Counter()

    def in_windows(a: float, b: float) -> float:
        total = 0.0
        for start, end in windows:
            lo, hi = max(a, start), min(b, end)
            if hi > lo:
                total += hi - lo
        return total

    def leave_frontier(gid):
        row = spans[gid][1]
        frontier_rows[row] -= 1
        if not frontier_rows[row]:
            del frontier_rows[row]

    previous = windows[0][0] if windows else 0.0
    for time, kind, gid in events:
        if time > previous:
            dt = in_windows(previous, time)
            if dt > 0:
                n_frontier = sum(frontier_rows.values())
                if n_frontier:
                    for row, n in frontier_rows.items():
                        rows[row] += dt * n / n_frontier
                else:
                    unattributed += dt
            previous = time
        parent = parents[gid]
        if kind == 1:
            active.add(gid)
            frontier_rows[spans[gid][1]] += 1
            if parent in active:
                open_children[parent] += 1
                if open_children[parent] == 1:
                    leave_frontier(parent)
        else:
            active.discard(gid)
            if open_children.get(gid, 0) == 0:
                leave_frontier(gid)
            else:
                del open_children[gid]  # ended before its children
            if parent in active and open_children.get(parent, 0) > 0:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    del open_children[parent]
                    frontier_rows[spans[parent][1]] += 1
    if windows:
        tail = in_windows(previous, windows[-1][1])
        unattributed += tail  # nothing is open after the last event

    result_rows = {row: rows.get(row, 0.0) for row in ROWS}
    result_rows["unattributed_s"] = unattributed
    split = counts.get("core.split_rows", 0)
    return {
        "rows": result_rows,
        "wall_s": wall,
        "counts": {
            "uncertainty.mc_rows": counts.get("uncertainty.mc_rows", 0),
            "core.uncertain_ratio": counts.get("core.uncertain_rows", 0) / split if split else 0.0,
        },
    }
