"""Deployment-time runtime: multi-target adaptation service and result store.

This package is the serving seam of the reproduction — everything needed to
run TASFAR for a *fleet* of target domains rather than one figure at a time:

* :class:`AdaptationService` — register the source model and calibration
  once, then adapt many targets (optionally on worker processes) with an LRU
  cache of adapted models and JSON-serializable per-target reports;
* :class:`AdaptationReport` — the per-target record the service keeps;
* :class:`ResultStore` — disk persistence for experiment results, making
  ``run-all --resume`` incremental;
* :class:`SnapshotStore` — the warm tier under the LRU: evicted adapted
  models spill to ``repro.snapshot/v1`` files and warm-resume on the next
  touch instead of cold-adapting.

See ``examples/multi_user_service.py`` for an end-to-end walkthrough and
``python -m repro.cli adapt-many --help`` for the CLI entry point.
"""

from .report import AdaptationReport
from .serialization import to_jsonable
from .service import AdaptationService, canonical_target_id
from .snapshots import SNAPSHOT_SCHEMA, SnapshotError, SnapshotStore
from .store import ResultStore
from .workers import EXECUTOR_KINDS, AdaptationWorkerPool, WorkerCrashError

__all__ = [
    "EXECUTOR_KINDS",
    "SNAPSHOT_SCHEMA",
    "AdaptationReport",
    "AdaptationService",
    "AdaptationWorkerPool",
    "ResultStore",
    "SnapshotError",
    "SnapshotStore",
    "WorkerCrashError",
    "canonical_target_id",
    "to_jsonable",
]
