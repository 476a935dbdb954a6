"""Process-backed adaptation workers: real cores for the fine-tune hot path.

The adaptation hot path is hundreds of *small* numpy operations per epoch —
tiny gemms, elementwise updates, RNG draws — and CPython holds the GIL
through nearly all of them (the kernels are too small for numpy to release
it for long), so threads add no speed (measured 0.56–0.96x of serial).
:class:`AdaptationWorkerPool` moves the work onto a ``ProcessPoolExecutor``
so a fleet adaptation can actually use the machine.

Design points:

* **Weights ship once per worker.**  The pool's initializer receives the
  pristine source model and the prepared strategy as ``initargs`` — pickled
  once per worker under the ``spawn`` start method, inherited copy-on-write
  under ``fork`` — and stashes them in a module global.  Per-task traffic is
  only ``(target_id, inputs, seed)`` out and ``(report, adapted model)``
  back.
* **Bit-identical to in-process adaptation.**  The worker runs
  :func:`run_task`, the very function the in-process path runs, and
  pickling preserves float64 bits exactly, so process results are
  byte-equal to serial results (the equivalence oracles in
  ``tests/runtime`` and ``tests/sim`` pin this for all six schemes).
* **Registry-addressable strategies.**  Everything crossing the pool
  boundary must pickle: strategies are plain objects built through
  :mod:`repro.engine.registry` (no closures), models are numpy-parameter
  containers, reports are JSON-friendly dataclasses.
* **Eager start.**  The pool spawns every worker at construction (and at
  :meth:`~AdaptationWorkerPool.restart`), so the first adaptation never
  pays for spawn and no worker is forked from a serving thread.
* **Workers keep their heap.**  Before warming up, a worker pins glibc's
  allocator thresholds (``mallopt``): blocks up to 32 MiB come from the
  heap, and the heap top is trimmed only once 64 MiB of it is free — the
  ceilings glibc's own dynamic rule would reach on 64-bit.  Under the
  dynamic rule every MC-dropout chunk of the PDR TCN freed its
  temporaries, glibc trimmed the heap top, and the next chunk faulted the
  same pages back in: the seven small-scale PDR users' MC probes took
  128k minor faults in one process, and one onboarding wave of them 55k
  in two workers; pinned, a wave takes a few dozen.  Only the pool's own
  worker processes are pinned, never the process that imports
  :mod:`repro`; where ``mallopt`` is missing (macOS, Windows) nothing
  changes.
* **Workers run BLAS on one thread.**  The pool already puts a process on
  each core it is given; an OpenBLAS starting a thread per core in every
  worker oversubscribes them (a 7-user PDR adapt burst on two workers and
  two cores: 1.25 s median with OpenBLAS's default, 0.48 s with one
  thread).  A worker sets every OpenBLAS it loaded to one thread through
  the library's own setter — numpy's wheels prefix and suffix its name,
  a system OpenBLAS does not; a worker without either, and the process
  that imports :mod:`repro`, are left as they are.
* **Crash isolation.**  :meth:`AdaptationWorkerPool.restart` *kills* the
  worker processes (it does not drain them) and stands up a fresh pool.
  In-flight futures then raise instead of hanging — queued ones come back
  ``CancelledError``, running ones ``BrokenProcessPool`` — and the pool
  translates both into the typed :class:`WorkerCrashError` the serving
  layer answers as an error envelope.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import threading
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from ..engine.strategy import AdaptationStrategy, StackJob, StrategyOutcome
from ..nn.conv import Conv1d, Conv2d
from ..nn.linear import Linear
from ..nn.models import RegressionModel
from ..obs import MetricsRegistry, Stopwatch, use_metrics
from .report import AdaptationReport

__all__ = [
    "EXECUTOR_KINDS",
    "AdaptationWorkerPool",
    "WorkerCrashError",
    "default_start_method",
]

#: Executor kinds the serving layer accepts: adaptations on the shard
#: dispatch threads, or on per-shard worker processes.
EXECUTOR_KINDS = ("thread", "process")

#: One adaptation job: ``(target_id, inputs, seed, base_model)``.  ``base_model``
#: is ``None`` for a cold adaptation from the source model, or a previously
#: adapted model to warm-start from.
Job = tuple[str, np.ndarray, int, "RegressionModel | None"]
#: What one job settles to: ``(report, outcome, None)`` or ``(None, None, error)``.
JobResult = tuple["AdaptationReport | None", "StrategyOutcome | None", "Exception | None"]


class WorkerCrashError(RuntimeError):
    """An adaptation was in flight when its worker pool was killed.

    Raised in the *submitting* process (never hangs the caller): the serving
    layer turns it into a typed error envelope, and because adaptation is
    deterministic the request can simply be retried on the respawned pool.
    """


def default_start_method() -> str:
    """``fork`` where available (cheap workers, copy-on-write weights), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def run_task(
    strategy: AdaptationStrategy,
    source_model: RegressionModel,
    task: list[Job],
    warm_epochs: int | None,
    metrics: MetricsRegistry | None,
) -> list[JobResult]:
    """Run one adaptation task and return one result per job, in input order.

    A one-job task is one seeded ``strategy.adapt`` call; a longer task is
    one ``strategy.adapt_stacked`` call (``train_batching``), so schemes and
    models without a stacked path only ever see the serial call.  Start
    models are passed as they are: every scheme trains, and TASFAR probes,
    a private copy, so the source model and a warm base model may keep
    serving on other threads meanwhile.  Per-job failures come back as data,
    so one bad target does not poison its stack-mates.  The jobs of a task
    share one wall clock, which every report carries as its duration.
    """
    watch = Stopwatch()
    with use_metrics(metrics):
        if len(task) == 1:
            [(_target_id, inputs, seed, base_model)] = task
            try:
                outcome = strategy.adapt(
                    source_model,
                    inputs,
                    seed=seed,
                    base_model=base_model,
                    warm_epochs=warm_epochs,
                )
                pairs = [(outcome, None)]
            except Exception as exc:  # noqa: BLE001 - attributed to the job
                pairs = [(None, exc)]
        else:
            jobs = [
                StackJob(source_model if base is None else base, inputs, seed, target_id)
                for target_id, inputs, seed, base in task
            ]
            pairs = strategy.adapt_stacked(jobs, warm_epochs=warm_epochs)
    duration = watch.elapsed()
    return [
        (None, None, error)
        if error is not None
        else (
            AdaptationReport.from_outcome(target_id, seed, outcome, len(inputs), duration),
            outcome,
            None,
        )
        for (target_id, inputs, seed, _base), (outcome, error) in zip(task, pairs)
    ]


# One payload per worker *process*: set once by the pool initializer, read by
# every task that worker runs.  Module-global (not a closure) so the worker
# entry point pickles under every start method.
_WORKER_STATE: dict = {}


#: glibc ``mallopt`` parameters (``malloc.h``) and the values workers pin:
#: glibc's 64-bit ceiling for the mmap threshold, and twice that for trimming.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 2 * _MMAP_THRESHOLD_BYTES


def _mallopt():
    """The C library's ``mallopt``, or ``None`` where there is none."""
    try:
        return getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):  # no C library to load, or no dlopen(NULL)
        return None


def _pin_heap() -> None:
    """Stop glibc from trimming and re-faulting this process's heap."""
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


#: OpenBLAS's thread-count setter and getter, by the names numpy's wheels and
#: a system OpenBLAS export them under.
_OPENBLAS_THREADS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _loaded_openblas() -> list[tuple[ctypes.CDLL, str, str]]:
    """``(library, setter, getter)`` of every OpenBLAS this process has loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted(
                {
                    fields[5].strip()
                    for fields in (line.split(maxsplit=5) for line in maps)
                    if len(fields) == 6 and "blas" in fields[5].lower()
                }
            )
    except OSError:  # no procfs: nothing to find
        return []
    found = []
    for path in paths:
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        found.extend(
            (library, setter, getter)
            for setter, getter in _OPENBLAS_THREADS
            if hasattr(library, setter) and hasattr(library, getter)
        )
    return found


def _single_thread_blas() -> None:
    """Run every OpenBLAS loaded in this process on one thread."""
    for library, setter, _getter in _loaded_openblas():
        getattr(library, setter)(1)


def _init_worker(source_model: RegressionModel, strategy: AdaptationStrategy) -> None:
    _pin_heap()
    _single_thread_blas()
    _WORKER_STATE["source_model"] = source_model
    _WORKER_STATE["strategy"] = strategy
    _warm_compute_path(strategy, source_model)


#: Rows, and temporal / spatial extent for convolutional models, of the
#: warm-up probe.
_PROBE_ROWS, _PROBE_EXTENT = 32, 16


def _warm_compute_path(strategy: AdaptationStrategy, source_model: RegressionModel) -> bool:
    """Run one throwaway one-epoch adaptation of a random probe target.

    A freshly started worker runs its first adaptation about twice as slow
    as warm ones (first-touch allocations, cold caches, first calls into
    every stage), and the first adaptation a pool serves is the one billed
    for it.  The pass goes through :func:`run_task` like any job, so it
    covers the MC-dropout draw, the forward, backward and optimizer steps of
    the fine-tune, and the stages between them.  The scheme trains and
    probes its own copy of the model, dropout generators included, with an
    explicit seed, under a throwaway metrics registry here: no seeded
    stream, parameter or counter that real adaptations see moves.  The
    adapted model is discarded; returns whether the pass ran without error.
    Models whose first layer gives no input shape to probe with are left
    cold.
    """
    first = next(
        (m for m in source_model.modules() if isinstance(m, (Linear, Conv1d, Conv2d))), None
    )
    if isinstance(first, Linear):
        shape: tuple[int, ...] = (_PROBE_ROWS, first.in_features)
    elif isinstance(first, Conv1d):
        shape = (_PROBE_ROWS, first.in_channels, _PROBE_EXTENT)
    elif isinstance(first, Conv2d):
        shape = (_PROBE_ROWS, first.in_channels, _PROBE_EXTENT, _PROBE_EXTENT)
    else:
        return False
    probe = np.random.default_rng(0).normal(size=shape)
    [(_report, _outcome, error)] = run_task(
        strategy, source_model, [("warm-up", probe, 0, None)], 1, MetricsRegistry()
    )
    return error is None


def _worker_ready() -> None:
    """No-op task: its completion proves a worker process is up."""


def _worker_run(task: list[Job], warm_epochs: int | None) -> tuple[list[JobResult], dict]:
    """Run one :func:`run_task` inside a worker process.

    The heavyweight ``outcome.result`` (per-sample prediction arrays) is
    dropped before the outcomes cross back: the parent's bookkeeping needs
    only the adapted model, the losses, and the density map.

    The second element is a metrics **delta**: the work runs under a fresh
    worker-local :class:`~repro.obs.MetricsRegistry` (the parent's registry
    does not exist in this process), whose snapshot rides home once per task
    so the pool can fold engine-level counters (epochs, epoch timing) into
    the parent's registry.
    """
    delta = MetricsRegistry()
    results = run_task(
        _WORKER_STATE["strategy"], _WORKER_STATE["source_model"], task, warm_epochs, delta
    )
    for _report, outcome, _error in results:
        if outcome is not None:
            outcome.result = None
    return results, delta.snapshot()


class AdaptationWorkerPool:
    """A restartable process pool running seeded adaptations on real cores.

    Parameters
    ----------
    workers:
        Worker process count.
    source_model:
        The pristine (already ``eval()``-ed) source model shipped to every
        worker at initialization — once, not per task.
    strategy:
        The prepared :class:`~repro.engine.AdaptationStrategy`; must pickle
        (all registry-built strategies do).
    start_method:
        Multiprocessing start method; defaults to
        :func:`default_start_method`.
    metrics:
        Optional parent :class:`~repro.obs.MetricsRegistry`.  When given,
        worker metric deltas are merged into it as results are collected,
        and the pool counts its own lifecycle events (tasks, restarts,
        killed workers, crash errors) there.
    """

    def __init__(
        self,
        workers: int,
        source_model: RegressionModel,
        strategy: AdaptationStrategy,
        *,
        start_method: str | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = int(workers)
        self.start_method = start_method if start_method else default_start_method()
        self._payload = (source_model, strategy)
        self._lock = threading.Lock()
        self._closed = False
        self.metrics = metrics
        self._pool: ProcessPoolExecutor | None = self._new_pool()

    def _count(self, name: str, value: float = 1, **labels) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, value, **labels)

    def _new_pool(self) -> ProcessPoolExecutor:
        """A started pool: one awaited no-op task per worker spawns them all now.

        ``ProcessPoolExecutor`` otherwise spawns on the first submit — from
        whatever thread makes it (a gateway dispatch thread), billed to the
        first adaptation.
        """
        pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context(self.start_method),
            initializer=_init_worker,
            initargs=self._payload,
        )
        for future in [pool.submit(_worker_ready) for _ in range(self.workers)]:
            future.result()
        return pool

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_stacked(self, stack: list[Job], warm_epochs: int | None = None) -> Future:
        """Queue one task of ``(target_id, inputs, seed, base_model)`` jobs.

        Resolve it with :meth:`collect_stacked`.  A one-job task is one
        ``strategy.adapt`` call; a multi-job task is one stacked
        (``train_batching``) fine-tune inside the worker — batching *within*
        a worker composes with processes *across* workers.
        """
        with self._lock:
            if self._closed or self._pool is None:
                raise WorkerCrashError("the adaptation worker pool is closed")
            pool = self._pool
        try:
            future = pool.submit(_worker_run, stack, warm_epochs)
        except RuntimeError as exc:
            # The pool broke or was swapped out between the lock release and
            # the submit; surface the same typed error a collect would.
            self._count("workers.crash_errors", stage="submit")
            raise WorkerCrashError(
                "the adaptation worker pool died before the task was queued; retry"
            ) from exc
        self._count("workers.tasks")
        return future

    def collect_stacked(self, future: Future) -> list[JobResult]:
        """Resolve a :meth:`submit_stacked` future to one result per job.

        ``CancelledError`` (queued when the pool was killed) and
        ``BrokenProcessPool`` (running when the pool was killed) both become
        :class:`WorkerCrashError` — an ``Exception`` the serving layer's
        errors-as-data discipline knows how to answer.  The worker's
        piggybacked metrics delta is folded into the parent registry here,
        the one place every result passes through.
        """
        try:
            results, delta = future.result()
        except (CancelledError, BrokenProcessPool) as exc:
            self._count("workers.crash_errors", stage="collect")
            raise WorkerCrashError(
                "the worker pool was killed while this adaptation was in flight; "
                "adaptation is deterministic, so retrying on the respawned pool "
                "reproduces the same result"
            ) from exc
        if self.metrics is not None:
            self.metrics.merge(delta)
        return results

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (all spawned at pool start)."""
        with self._lock:
            pool = self._pool
        if pool is None:
            return []
        processes = getattr(pool, "_processes", None) or {}
        return sorted(p.pid for p in processes.values() if p.pid is not None)

    def restart(self) -> list[int]:
        """Kill the worker processes and stand up a fresh, started pool.

        Models a crashed-and-respawned worker fleet, so it terminates the
        processes instead of draining them.  Futures that were queued or
        running raise (``CancelledError`` / ``BrokenProcessPool``, both
        translated into :class:`WorkerCrashError`) rather than hang.
        Returns the PIDs that were killed.
        """
        with self._lock:
            if self._closed:
                raise WorkerCrashError("the adaptation worker pool is closed")
            old, self._pool = self._pool, None
        killed: list[int] = []
        if old is not None:
            processes = list((getattr(old, "_processes", None) or {}).values())
            for process in processes:
                if process.pid is not None:
                    killed.append(process.pid)
                process.terminate()
            old.shutdown(wait=True, cancel_futures=True)
        with self._lock:
            if not self._closed:
                self._pool = self._new_pool()
        self._count("workers.restarts")
        if killed:
            self._count("workers.killed", len(killed))
        return sorted(killed)

    def close(self) -> None:
        """Shut the pool down for good (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            old, self._pool = self._pool, None
        if old is not None:
            old.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "AdaptationWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
