"""Shared infrastructure for the per-figure experiment harness.

Every experiment in :mod:`repro.experiments` is a function taking a *scale*
(``"small"`` for tests/benchmarks, ``"full"`` for a closer-to-paper run) and
returning an :class:`ExperimentResult` — a structured record of the rows or
series the corresponding paper figure/table reports, plus a short note about
the expected shape from the paper.

Because several figures share the same expensive preparation (generate the
task, train the source model, calibrate TASFAR), the harness builds cached
:class:`TaskBundle` objects keyed by ``(task, scale, seed)``.  Which tasks
exist — and how their data, models, and training recipes are built — lives
in the :class:`~repro.data.TaskSpec` registry (:mod:`repro.data.tasks`);
this module only drives it, so registering a new task never requires an
experiments-layer edit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..core import SourceCalibration, Tasfar, TasfarConfig
from ..data import AdaptationTask
from ..data.tasks import (
    SCALES,
    ScaleProfile,
    TaskSpec,
    get_task_spec,
    on_task_registry_change,
    task_names,
)
from ..engine import train_supervised
from ..metrics import format_table

__all__ = [
    "ScaleProfile",
    "SCALES",
    "ExperimentResult",
    "TaskBundle",
    "get_bundle",
    "clear_bundle_cache",
    "task_names",
]


@dataclass
class ExperimentResult:
    """Structured result of one reproduced figure or table."""

    experiment_id: str
    description: str
    columns: list[str]
    rows: list[list[object]]
    paper_expectation: str = ""
    notes: dict = field(default_factory=dict)

    def summary(self) -> str:
        """Human-readable rendering of the result (printed by the CLI and benches)."""
        header = f"[{self.experiment_id}] {self.description}"
        table = format_table(self.columns, self.rows)
        expectation = f"paper expectation: {self.paper_expectation}" if self.paper_expectation else ""
        return "\n".join(part for part in (header, table, expectation) if part)

    def row_dicts(self) -> list[dict[str, object]]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]


@dataclass
class TaskBundle:
    """A prepared task: data, trained source model and TASFAR source calibration."""

    task: AdaptationTask
    source_model: nn.RegressionModel
    calibration: SourceCalibration
    scale: ScaleProfile
    seed: int
    #: Per-epoch training losses of the source model.
    source_losses: list[float]
    spec: TaskSpec | None = None

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Deterministic source-model predictions."""
        return nn.predict_batched(self.source_model, inputs)

    def tasfar(self, config: TasfarConfig | None = None) -> Tasfar:
        """A TASFAR instance with a default or custom configuration."""
        return Tasfar(config if config is not None else TasfarConfig())

    def resources(self, max_source_samples: int | None = None, seed: int = 0):
        """The :class:`~repro.engine.SourceResources` strategies prepare from.

        ``max_source_samples`` subsamples the labelled source data handed to
        source-based schemes (seeded, without replacement), keeping their
        re-training affordable at comparison scale.
        """
        from ..engine.strategy import SourceResources

        source_data = self.task.source_train
        if max_source_samples is not None and len(source_data) > max_source_samples:
            chosen = np.random.default_rng(seed).choice(
                len(source_data), size=max_source_samples, replace=False
            )
            source_data = source_data.subset(chosen)
        return SourceResources(
            source_data=source_data,
            calibration_data=self.task.source_calibration,
            calibration=self.calibration,
        )


_BUNDLE_CACHE: dict[tuple[str, str, int], TaskBundle] = {}
#: Guards the cache dict itself; builds happen outside it, under a per-key
#: lock, so two threads asking for *different* bundles build concurrently
#: while two asking for the *same* bundle build it exactly once.
_CACHE_LOCK = threading.Lock()
_BUILD_LOCKS: dict[tuple[str, str, int], threading.Lock] = {}


def clear_bundle_cache() -> None:
    """Drop all cached bundles (used by tests to control memory)."""
    with _CACHE_LOCK:
        _BUNDLE_CACHE.clear()
        _BUILD_LOCKS.clear()


def _evict_task_bundles(task_name: str) -> None:
    """Drop cached bundles of one task when its registration changes.

    Without this, ``register_task(spec, replace=True)`` would keep serving
    bundles built from the replaced spec.
    """
    with _CACHE_LOCK:
        for key in [key for key in _BUNDLE_CACHE if key[0] == task_name]:
            del _BUNDLE_CACHE[key]
        for key in [key for key in _BUILD_LOCKS if key[0] == task_name]:
            del _BUILD_LOCKS[key]


on_task_registry_change(_evict_task_bundles)


def get_bundle(task_name: str, scale: str = "small", seed: int = 0) -> TaskBundle:
    """Build (or fetch from cache) the bundle for one registered task.

    Thread-safe: the cache is shared by ``adapt_many``/``run-all`` workers,
    so lookups are locked and concurrent first requests for the same
    ``(task, scale, seed)`` key build one bundle, not several.
    """
    # Normalized like the registry key, so registry-change eviction matches.
    key = (task_name.lower(), scale, seed)
    with _CACHE_LOCK:
        bundle = _BUNDLE_CACHE.get(key)
        if bundle is not None:
            return bundle
        build_lock = _BUILD_LOCKS.setdefault(key, threading.Lock())
    with build_lock:
        with _CACHE_LOCK:
            bundle = _BUNDLE_CACHE.get(key)
            if bundle is not None:
                return bundle
        spec = get_task_spec(task_name)
        profile = SCALES[scale]
        bundle = _build_bundle(spec, profile, seed)
        with _CACHE_LOCK:
            try:
                current = get_task_spec(task_name)
            except ValueError:
                current = None
            # Cache only if the spec was not replaced/unregistered while the
            # build ran; the caller still gets the bundle it asked for, but a
            # stale-spec bundle must not outlive the registry change.
            if current is spec:
                _BUNDLE_CACHE[key] = bundle
            _BUILD_LOCKS.pop(key, None)
    return bundle


def _build_bundle(spec: TaskSpec, profile: ScaleProfile, seed: int) -> TaskBundle:
    """Generate the task, train the source model, calibrate TASFAR."""
    task = spec.build_task(profile, seed)
    model = spec.build_model(task, profile, seed)
    trained = train_supervised(
        model,
        task.source_train,
        epochs=spec.epochs(profile),
        batch_size=spec.batch_size,
        lr=spec.lr,
        rng=np.random.default_rng(seed),
    )
    return TaskBundle(
        task, model, _calibrate(model, task), profile, seed, trained.losses, spec=spec
    )


def _calibrate(model: nn.RegressionModel, task: AdaptationTask) -> SourceCalibration:
    tasfar = Tasfar(TasfarConfig())
    return tasfar.calibrate_on_source(
        model, task.source_calibration.inputs, task.source_calibration.targets
    )
