"""The serving gateway: one typed front door over the adaptation runtime.

This package is the client-facing API of the reproduction's serving story:

* :mod:`repro.serve.protocol` — the typed request types
  (:class:`AdaptRequest`, :class:`PredictRequest`, :class:`StreamRequest`,
  :class:`ReportRequest`, :class:`MetricsRequest`), the versioned
  :class:`Envelope` response, and the stable JSON wire codec behind them;
* :mod:`repro.serve.gateway` — the :class:`Gateway` facade: constructed
  from registry names (task + scheme) or explicit objects, owning sharded
  adaptation services with deterministic rendezvous placement and
  per-shard worker pools, serving everything through ``submit`` /
  ``submit_many`` / ``submit_async``;
* :mod:`repro.serve.batching` — cross-target micro-batched prediction:
  the gateway's one predict executor: concurrent predicts that share a
  model instance are deduped and stacked into coalesced forwards,
  bit-identical to per-request predicts;
* :mod:`repro.serve.loop` — the JSON-lines request loop behind
  ``python -m repro.cli serve``.

See ``examples/gateway_serving.py`` for an end-to-end walkthrough and the
README's "Serving" section for the wire schema.
"""

from .gateway import Gateway, ShardRestartedError
from .loop import Session, decode_line, serve_lines, serve_loop
from .protocol import (
    SCHEMA,
    AdaptRequest,
    Envelope,
    MetricsRequest,
    PredictRequest,
    ReportRequest,
    Request,
    StreamRequest,
    decode_request,
    encode_request,
)

__all__ = [
    "SCHEMA",
    "AdaptRequest",
    "Envelope",
    "Gateway",
    "MetricsRequest",
    "PredictRequest",
    "ReportRequest",
    "Request",
    "Session",
    "ShardRestartedError",
    "StreamRequest",
    "decode_line",
    "decode_request",
    "encode_request",
    "serve_lines",
    "serve_loop",
]
