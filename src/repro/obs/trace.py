"""Deterministic per-request tracing for the serving gateway.

A :class:`Tracer` attached to a :class:`~repro.serve.Gateway` records one
trace per submitted request, broken into spans mirroring the request's
actual path through the stack::

    request (root)            submit -> envelope returned
      queue                   submit -> the shard's dispatch thread
                              starts the request's group
      handle                  shard thread working the request
        engine                training time, from the report the engine
                              already stamps (adapt/stream only)

Span **IDs are deterministic**: the root ID is
``sha256("{kind}:{target_id}:{occurrence}")[:16]`` where ``occurrence``
counts prior requests of the same kind for the same target at submit
time, and child IDs are ``sha256("{root}:{name}")[:16]``.  Two replays of
the same seeded workload therefore produce the same tree of IDs — only
the timings differ, and those live in fields ``scrub_wall_clock`` knows
how to zero (``start_seconds``/``duration_seconds``).

Export is JSON lines (:meth:`Tracer.export` / :meth:`Tracer.export_lines`),
one span per line, ready for ``jq`` or any trace viewer ingest.
"""

from __future__ import annotations

import hashlib
import json
import threading

from .clock import now

__all__ = ["Tracer", "RequestTrace", "span_id"]


def span_id(kind: str, target_id: object, occurrence: int) -> str:
    """Deterministic 16-hex-digit root span ID for a request."""
    seed = f"{kind}:{target_id}:{occurrence}"
    return hashlib.sha256(seed.encode("utf-8")).hexdigest()[:16]


def _child_id(root: str, name: str) -> str:
    return hashlib.sha256(f"{root}:{name}".encode("utf-8")).hexdigest()[:16]


class RequestTrace:
    """Lifecycle marker for one in-flight request; created by ``Tracer.begin``."""

    __slots__ = (
        "tracer", "kind", "target_id", "occurrence", "trace_id",
        "_t_submit", "_t_start", "_done",
    )

    def __init__(self, tracer: "Tracer", kind: str, target_id: object, occurrence: int):
        self.tracer = tracer
        self.kind = kind
        self.target_id = target_id
        self.occurrence = occurrence
        self.trace_id = span_id(kind, target_id, occurrence)
        self._t_submit = now()
        self._t_start: float | None = None
        self._done = False

    def mark_dequeued(self) -> None:
        """The dispatch thread started this request's group; ends the queue span."""
        if self._t_start is None:
            self._t_start = now()

    def finish(self, envelope=None) -> None:
        """Close the trace, deriving child spans from what actually ran."""
        if self._done:  # idempotent: sync paths and done-callbacks may race
            return
        self._done = True
        t_end = now()
        ok = bool(getattr(envelope, "ok", False)) if envelope is not None else None
        spans = [
            {
                "trace_id": self.trace_id,
                "span_id": self.trace_id,
                "parent_id": None,
                "name": "request",
                "kind": self.kind,
                "target_id": None if self.target_id is None else str(self.target_id),
                "start_seconds": self._t_submit - self.tracer.t0,
                "duration_seconds": t_end - self._t_submit,
                "ok": ok,
            }
        ]
        if self._t_start is not None:
            spans.append(
                {
                    "trace_id": self.trace_id,
                    "span_id": _child_id(self.trace_id, "queue"),
                    "parent_id": self.trace_id,
                    "name": "queue",
                    "kind": self.kind,
                    "target_id": spans[0]["target_id"],
                    "start_seconds": self._t_submit - self.tracer.t0,
                    "duration_seconds": self._t_start - self._t_submit,
                    "ok": ok,
                }
            )
            spans.append(
                {
                    "trace_id": self.trace_id,
                    "span_id": _child_id(self.trace_id, "handle"),
                    "parent_id": self.trace_id,
                    "name": "handle",
                    "kind": self.kind,
                    "target_id": spans[0]["target_id"],
                    "start_seconds": self._t_start - self.tracer.t0,
                    "duration_seconds": t_end - self._t_start,
                    "ok": ok,
                }
            )
        engine_seconds = _engine_seconds(envelope)
        if engine_seconds is not None:
            parent = spans[-1]
            spans.append(
                {
                    "trace_id": self.trace_id,
                    "span_id": _child_id(self.trace_id, "engine"),
                    "parent_id": parent["span_id"],
                    "name": "engine",
                    "kind": self.kind,
                    "target_id": spans[0]["target_id"],
                    "start_seconds": parent["start_seconds"],
                    "duration_seconds": engine_seconds,
                    "ok": ok,
                }
            )
        self.tracer._record(spans)


def _engine_seconds(envelope) -> float | None:
    """Training time already stamped on the payload, if the kind has one."""
    payload = getattr(envelope, "payload", None)
    if not isinstance(payload, dict):
        return None
    report = payload.get("report")
    if isinstance(report, dict):
        duration = report.get("duration_seconds")
        if isinstance(duration, (int, float)):
            return float(duration)
    event = payload.get("event")
    if isinstance(event, dict):
        duration = event.get("duration_seconds")
        if isinstance(duration, (int, float)):
            return float(duration)
    return None


class Tracer:
    """Collects finished request traces; thread-safe; attach via ``Gateway``."""

    def __init__(self) -> None:
        self.t0 = now()
        self._lock = threading.Lock()
        self._occurrences: dict = {}
        self._spans: list[dict] = []

    def begin(self, kind: str, target_id: object) -> RequestTrace:
        """Open a trace for one request; occurrence counted at submit time."""
        key = (kind, None if target_id is None else str(target_id))
        with self._lock:
            occurrence = self._occurrences.get(key, 0)
            self._occurrences[key] = occurrence + 1
        return RequestTrace(self, kind, target_id, occurrence)

    def _record(self, spans: list[dict]) -> None:
        with self._lock:
            self._spans.extend(spans)

    @property
    def spans(self) -> list[dict]:
        with self._lock:
            return list(self._spans)

    def export_lines(self) -> list[str]:
        """One sorted-keys JSON line per span, in completion order."""
        return [json.dumps(span, sort_keys=True) for span in self.spans]

    def export(self, path) -> int:
        """Write the JSON-lines trace to ``path``; returns the span count."""
        lines = self.export_lines()
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
        return len(lines)
