"""Tiered persistence for adapted per-target model state (``repro.snapshot/v1``).

The LRU cache in :class:`~repro.runtime.AdaptationService` is a *hot tier*:
eviction used to throw the adapted model away, so re-serving that target cost
a full cold adaptation.  The :class:`SnapshotStore` is the warm tier under it:
on eviction the service spills the adapted model's exact weights, its
adaptation report, and (for streaming targets) the drift-monitor state to one
JSON file per target; on the next touch of that target the service resumes
the model from the snapshot — bit-identical parameters, original report —
instead of cold-adapting.

Durability discipline (shared with :class:`~repro.runtime.ResultStore`):

* writes (:func:`~repro.runtime.serialization.write_durably`) go to a
  per-writer unique temp file (pid + uuid, ``O_EXCL``) in the destination
  directory, are ``fsync``\\ ed, then ``os.replace``\\ d into place —
  a killed writer can never leave a torn snapshot under the final name;
* every snapshot embeds a SHA-256 checksum over its canonical JSON body, so
  a corrupted or truncated file is *detected* on load (typed
  :class:`SnapshotError`) rather than silently served;
* leftover temp files from crashed writers are garbage-collected the next
  time a store opens on the directory.

Weights are encoded as base64 of the C-order float64 bytes, so a resumed
model carries byte-identical parameters (`nn.serialization.parameter_bytes`)
to the model that was evicted — the equivalence the snapshot test battery
pins for all six schemes.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import re
from pathlib import Path

import numpy as np

from ..core.density_map import LabelDensityMap
from ..nn.module import Module
from .serialization import write_durably

__all__ = [
    "SNAPSHOT_SCHEMA",
    "SnapshotError",
    "SnapshotStore",
    "encode_array",
    "decode_array",
    "encode_model_weights",
    "restore_model_weights",
    "encode_density_map",
    "decode_density_map",
    "encode_drift_state",
    "decode_drift_state",
]

#: Version tag embedded in every snapshot file; files carrying any other
#: schema string are rejected with a :class:`SnapshotError` on load.
SNAPSHOT_SCHEMA = "repro.snapshot/v1"

_SLUG_UNSAFE = re.compile(r"[^A-Za-z0-9._-]")


class SnapshotError(Exception):
    """A snapshot file could not be decoded into adapted-model state.

    Raised for every failure mode between "file exists" and "state restored":
    unreadable file, invalid JSON, unknown schema version, checksum mismatch
    (torn or corrupted write), and structurally broken payload sections.  The
    service layer treats any :class:`SnapshotError` as a clean cache miss —
    count it, discard the file, cold-adapt — never as a crash.
    """


# ----------------------------------------------------------------------
# Array / weights codec
# ----------------------------------------------------------------------
def encode_array(array: np.ndarray) -> dict:
    """Encode one array as shape + dtype + base64 of its C-order bytes."""
    array = np.ascontiguousarray(array)
    return {
        "shape": [int(size) for size in array.shape],
        "dtype": array.dtype.str,
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_array(spec: dict) -> np.ndarray:
    """Decode :func:`encode_array` output; any malformation is a :class:`SnapshotError`."""
    try:
        shape = tuple(int(size) for size in spec["shape"])
        dtype = np.dtype(spec["dtype"])
        raw = base64.b64decode(spec["data"].encode("ascii"), validate=True)
    except (KeyError, TypeError, ValueError, AttributeError, binascii.Error) as exc:
        raise SnapshotError(f"malformed array encoding: {exc}") from exc
    expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
    if len(raw) != expected:
        raise SnapshotError(
            f"array payload holds {len(raw)} bytes but shape {shape} of {dtype} needs {expected}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def encode_model_weights(model: Module) -> list[dict]:
    """Every parameter of ``model``, in parameter order, exactly as stored bytes."""
    return [
        {"name": param.name or "param", **encode_array(param.data)}
        for param in model.parameters()
    ]


def restore_model_weights(model: Module, weights: object) -> Module:
    """Load :func:`encode_model_weights` output back into ``model`` in order.

    Count, shape, and dtype must all match the model — a snapshot written
    for a different architecture must fail loudly, not be cast into place.
    """
    params = model.parameters()
    if not isinstance(weights, list) or len(weights) != len(params):
        found = len(weights) if isinstance(weights, list) else f"{type(weights).__name__}"
        raise SnapshotError(
            f"snapshot holds {found} weight arrays but the model has {len(params)} parameters"
        )
    values = [decode_array(spec) for spec in weights]
    for index, (value, param) in enumerate(zip(values, params)):
        if value.shape != param.data.shape:
            raise SnapshotError(
                f"weight {index} shape mismatch: snapshot {value.shape} vs model {param.data.shape}"
            )
        if value.dtype != param.data.dtype:
            raise SnapshotError(
                f"weight {index} dtype mismatch: snapshot {value.dtype} vs model {param.data.dtype}"
            )
    for value, param in zip(values, params):
        param.data[...] = value
    return model


# ----------------------------------------------------------------------
# Density map / drift state codec
# ----------------------------------------------------------------------
def encode_density_map(density: LabelDensityMap | None) -> dict | None:
    """Encode a density map: its grid edges plus the accumulated densities."""
    if density is None:
        return None
    return {
        "edges": [encode_array(edge) for edge in density.edges],
        "densities": encode_array(density.densities),
        "accumulated": int(density._accumulated),
    }


def decode_density_map(payload: object) -> LabelDensityMap | None:
    """Rebuild a :class:`LabelDensityMap` from :func:`encode_density_map` output."""
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise SnapshotError(f"density map payload must be an object, got {type(payload).__name__}")
    try:
        edge_specs = list(payload["edges"])
        densities_spec = payload["densities"]
        accumulated = int(payload.get("accumulated", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed density map payload: {exc}") from exc
    edges = [decode_array(spec) for spec in edge_specs]
    try:
        density = LabelDensityMap(edges)
    except ValueError as exc:
        raise SnapshotError(f"snapshot density map has an invalid grid: {exc}") from exc
    densities = decode_array(densities_spec)
    if densities.shape != density.shape:
        raise SnapshotError(
            f"density grid shape mismatch: densities {densities.shape} vs edges {density.shape}"
        )
    density.densities = densities
    density._accumulated = accumulated
    return density


def encode_drift_state(monitor) -> dict | None:
    """Encode a :class:`~repro.streaming.DensityDriftMonitor` and its detector.

    Captures everything the monitor needs to carry a restart: the Page-
    Hinkley detector's running scalars, the reference map of the last
    (re-)adaptation, and the exponentially decayed recent-window map.  The
    error model is *not* serialized — it belongs to the service's calibration
    and is re-attached on :func:`decode_drift_state`.
    """
    if monitor is None:
        return None
    detector = monitor.detector
    recent = monitor.recent
    return {
        "detector": {
            "threshold": float(detector.threshold),
            "delta": float(detector.delta),
            "min_samples": int(detector.min_samples),
            "n_observations": int(detector.n_observations),
            "mean": float(detector._mean),
            "cumulative": float(detector._cumulative),
            "cumulative_min": float(detector._cumulative_min),
            "drifted": bool(detector.drifted),
        },
        "window_decay": float(monitor.window_decay),
        "warmup_events": int(monitor.warmup_events),
        "reference": encode_density_map(monitor.reference),
        "recent": {
            "densities": encode_array(recent._map.densities),
            "accumulated": int(recent._map._accumulated),
            "n_events": int(recent.n_events),
            "n_updates": int(recent.n_updates),
        },
    }


def decode_drift_state(payload: object, error_model=None):
    """Rebuild a drift monitor from :func:`encode_drift_state` output.

    ``error_model`` is the calibration's instance-label family (the one the
    reference map was estimated with); it is supplied by the restoring
    service, never read from disk.  ``last_observation`` restarts as ``None``
    — it is a diagnostic of the last in-process batch, not monitor state.
    """
    if payload is None:
        return None
    from ..streaming.drift import DensityDriftMonitor, DriftDetector

    if not isinstance(payload, dict):
        raise SnapshotError(f"drift state payload must be an object, got {type(payload).__name__}")
    try:
        det = payload["detector"]
        detector = DriftDetector(
            threshold=float(det["threshold"]),
            delta=float(det["delta"]),
            min_samples=int(det["min_samples"]),
        )
        reference = decode_density_map(payload["reference"])
        if reference is None:
            raise SnapshotError("drift state requires a reference density map")
        monitor = DensityDriftMonitor(
            reference,
            detector,
            window_decay=float(payload["window_decay"]),
            warmup_events=int(payload["warmup_events"]),
            error_model=error_model,
        )
        # rebase() inside __init__ re-normalized the reference and reset the
        # detector; restore the exact stored state over both so a decoded
        # monitor is bit-identical to the one that was encoded.
        monitor.reference = reference
        detector.n_observations = int(det["n_observations"])
        detector._mean = float(det["mean"])
        detector._cumulative = float(det["cumulative"])
        detector._cumulative_min = float(det["cumulative_min"])
        detector.drifted = bool(det["drifted"])
        recent = payload["recent"]
        densities = decode_array(recent["densities"])
        if densities.shape != monitor.recent.shape:
            raise SnapshotError(
                f"recent-window shape mismatch: {densities.shape} vs grid {monitor.recent.shape}"
            )
        monitor.recent._map.densities = densities
        monitor.recent._map._accumulated = int(recent["accumulated"])
        monitor.recent.n_events = int(recent["n_events"])
        monitor.recent.n_updates = int(recent["n_updates"])
    except SnapshotError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed drift state payload: {exc}") from exc
    return monitor


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
def _checksum(body: dict) -> str:
    """SHA-256 over the canonical JSON of ``body`` (checksum key excluded)."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SnapshotStore:
    """One ``repro.snapshot/v1`` JSON file per target under a root directory.

    Opening a store garbage-collects temp files left behind by writers that
    crashed mid-spill (their count lands in :attr:`collected_temp_files`).
    ``save`` is atomic and durable; ``load`` either returns a complete,
    checksum-verified payload, returns ``None`` for a clean miss, or raises
    :class:`SnapshotError` for a file that exists but cannot be trusted.
    Concurrent writers racing on the same target are safe: each writes its
    own ``O_EXCL`` temp file and the last rename wins with a complete
    document either way.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.collected_temp_files = self._collect_temp_files()

    def _collect_temp_files(self) -> int:
        """Remove orphaned ``.*.tmp`` files from crashed writers; return the count."""
        collected = 0
        for leftover in self.root.glob(".*.tmp"):
            try:
                leftover.unlink()
            except OSError:
                continue
            collected += 1
        return collected

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path_for(self, target_id: str) -> Path:
        """The file backing one target's snapshot.

        Target ids are arbitrary strings (slashes, unicode, …), so the name
        pairs a readable sanitized slug with a digest of the exact id — two
        ids that sanitize identically still get distinct files.
        """
        target_id = target_id if isinstance(target_id, str) else str(target_id)
        slug = _SLUG_UNSAFE.sub("_", target_id)[:48] or "target"
        digest = hashlib.sha256(target_id.encode("utf-8")).hexdigest()[:12]
        return self.root / f"{slug}-{digest}.json"

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, target_id: str, payload: dict) -> Path:
        """Atomically write one target's snapshot, replacing any previous one.

        ``payload`` carries the caller's sections (``report``, ``weights``,
        ``stream``); the store stamps the schema version, the exact target
        id, and the body checksum.
        """
        target_id = target_id if isinstance(target_id, str) else str(target_id)
        path = self.path_for(target_id)
        body = dict(payload)
        body.pop("checksum", None)
        body["schema"] = SNAPSHOT_SCHEMA
        body["target_id"] = target_id
        body["checksum"] = _checksum(body)
        return write_durably(path, json.dumps(body, sort_keys=True) + "\n")

    def load(self, target_id: str) -> dict | None:
        """One target's verified payload, ``None`` if absent.

        Raises
        ------
        SnapshotError
            If a file exists for the target but is unreadable, not JSON, of
            an unknown schema version, fails its checksum, or names a
            different target (all the ways a snapshot can lie).
        """
        target_id = target_id if isinstance(target_id, str) else str(target_id)
        path = self.path_for(target_id)
        if not path.is_file():
            return None
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise SnapshotError(f"cannot read snapshot {path.name}: {exc}") from exc
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"snapshot {path.name} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise SnapshotError(
                f"snapshot {path.name} must be a JSON object, got {type(payload).__name__}"
            )
        schema = payload.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise SnapshotError(
                f"snapshot {path.name} carries schema {schema!r}; this build reads {SNAPSHOT_SCHEMA!r}"
            )
        stored = payload.get("checksum")
        body = {key: value for key, value in payload.items() if key != "checksum"}
        if stored != _checksum(body):
            raise SnapshotError(
                f"snapshot {path.name} failed its checksum (torn or corrupted write)"
            )
        if payload.get("target_id") != target_id:
            raise SnapshotError(
                f"snapshot {path.name} names target {payload.get('target_id')!r}, "
                f"expected {target_id!r}"
            )
        return payload

    def has(self, target_id: str) -> bool:
        """Whether a *loadable* snapshot exists (corrupt files read as absent)."""
        try:
            return self.load(target_id) is not None
        except SnapshotError:
            return False

    def discard(self, target_id: str) -> bool:
        """Delete one target's snapshot file; returns whether one was removed."""
        path = self.path_for(target_id)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        return True

    # ------------------------------------------------------------------
    # Listing
    # ------------------------------------------------------------------
    def files(self) -> list[Path]:
        """Every snapshot file currently on disk (sorted; no validity check)."""
        return sorted(path for path in self.root.glob("*.json") if path.is_file())

    def targets(self) -> list[str]:
        """Target ids with a loadable snapshot, sorted (corrupt files skipped)."""
        found = []
        for path in self.files():
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue
            if not isinstance(payload, dict) or payload.get("schema") != SNAPSHOT_SCHEMA:
                continue
            target_id = payload.get("target_id")
            if isinstance(target_id, str) and self.path_for(target_id) == path:
                found.append(target_id)
        return sorted(found)
