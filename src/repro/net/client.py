"""The socket client: ``NetClient`` for programs, ``RemoteGateway`` for the sim.

:class:`NetClient` is deliberately synchronous — one socket, blocking I/O,
per-operation timeouts — because every caller of the gateway surface is
synchronous: the CLI, the simulator, the benchmark harness.  Concurrency
comes from *many* clients (one per calling thread), matching how the server
multiplexes connections.

Retry policy is bounded and honest about side effects.  A failure while
*connecting or sending* is always safe to retry: the server cannot have
seen the request.  A failure while *waiting for the answer* is retried
only when every request in flight is idempotent (``predict`` / ``report``
/ ``metrics``) — re-running an ``adapt`` would train the target twice,
so those surface as :class:`NetError` for the caller to decide.

:class:`RemoteGateway` wraps clients in the gateway submission surface
(``submit`` / ``submit_many`` / ``metrics_snapshot``) so the simulator and
CLI can point existing code at a live server unchanged.  It is also where
the network fault plans attach: :meth:`~RemoteGateway.schedule_churn`
drops every connection at its next safe point (the start of an operation,
never mid-exchange, so transcripts stay byte-identical) and
:meth:`~RemoteGateway.schedule_stall` parks one reader after sending, the
client-side half of the backpressure story.
"""

from __future__ import annotations

import json
import socket
import threading
import time

from ..obs import MetricsRegistry
from ..serve.protocol import Envelope, MetricsRequest, Request, encode_request

__all__ = ["NetClient", "NetError", "RemoteGateway"]

#: Request kinds safe to re-send after a failure mid-exchange: re-running
#: them cannot change fleet state.  ``adapt`` and ``stream`` mutate.
IDEMPOTENT_KINDS = frozenset({"predict", "report", "metrics"})


class NetError(RuntimeError):
    """A network operation failed after exhausting its bounded retries."""


class NetClient:
    """One TCP connection speaking ``repro.serve/v1`` JSON lines.

    Not thread-safe by design — a connection's response order is its
    request order, so interleaving writers would scramble correlation.
    Use one client per thread (:class:`RemoteGateway` automates this).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        retries: int = 2,
        retry_delay: float = 0.05,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.retry_delay = float(retry_delay)
        self._sock: socket.socket | None = None
        self._rfile = None
        self._stall_seconds: float | None = None

    # -- connection lifecycle ---------------------------------------------
    def connect(self) -> None:
        """Open the connection if it is not already open."""
        if self._sock is not None:
            return
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.settimeout(self.timeout)
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def close(self) -> None:
        """Close the connection; the next operation reconnects."""
        sock, self._sock = self._sock, None
        rfile, self._rfile = self._rfile, None
        for closable in (rfile, sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:
                    pass

    def __enter__(self) -> "NetClient":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stall_next(self, seconds: float) -> None:
        """Sleep ``seconds`` after the next send, before reading the answer.

        The ``slow_client`` fault plan's hook: the server has produced the
        response but this client is not reading it, so the response (and
        anything queued behind it) backs up into the server's bounded
        queue and, past the hard cap, into the TCP window.
        """
        self._stall_seconds = float(seconds)

    # -- the exchange core -------------------------------------------------
    def _exchange(self, lines: list[str], n_responses: int, idempotent: bool) -> list[str]:
        """Send ``lines``, read ``n_responses`` answers, with bounded retry."""
        payload = "".join(line + "\n" for line in lines).encode("utf-8")
        attempts = self.retries + 1
        for attempt in range(attempts):
            sent = False
            try:
                self.connect()
                self._sock.sendall(payload)
                sent = True
                stall, self._stall_seconds = self._stall_seconds, None
                if stall:
                    time.sleep(stall)
                return [self._read_line() for _ in range(n_responses)]
            except (OSError, EOFError) as exc:
                # OSError covers refused connects, resets, and timeouts
                # (socket.timeout is a subclass); EOFError is the server
                # closing mid-read.  Either way this connection is done.
                self.close()
                retriable = not sent or idempotent
                if not retriable or attempt + 1 >= attempts:
                    raise NetError(
                        f"{self.host}:{self.port}: "
                        f"{'response' if sent else 'send'} failed after "
                        f"{attempt + 1} attempt(s): {exc}"
                    ) from exc
                time.sleep(self.retry_delay * (attempt + 1))
        raise AssertionError("unreachable: the retry loop returns or raises")

    def _read_line(self) -> str:
        raw = self._rfile.readline()
        if not raw:
            raise EOFError("server closed the connection")
        return raw.decode("utf-8", errors="replace")

    # -- typed operations ---------------------------------------------------
    def request(self, request: Request) -> Envelope:
        """Submit one request; return its envelope."""
        return self.request_many([request])[0]

    def request_many(self, requests: list[Request]) -> list[Envelope]:
        """Submit a burst as one server-side ``submit_many``.

        Blank lines bracket the burst — they are no-ops in the line codec,
        but the server reads them as burst markers and submits everything
        between them through one :meth:`~repro.serve.Gateway.submit_many`.
        That keeps micro-batch coalescing (and therefore the ``coalesced``
        flag in predict payloads) identical to an in-process burst,
        whatever TCP did to the segmentation.
        """
        if not requests:
            return []
        body = [_encode_line(request) for request in requests]
        if len(requests) == 1:
            lines = body  # submit(); markers would be pure overhead
        else:
            lines = ["", *body, ""]
        idempotent = all(request.kind in IDEMPOTENT_KINDS for request in requests)
        responses = self._exchange(lines, len(requests), idempotent)
        return [_parse_envelope(self, raw) for raw in responses]

    def request_line(self, line: str) -> str | None:
        """Raw passthrough for ``repro serve --connect``: one line, one answer.

        Blank lines return ``None`` without touching the wire (the stdio
        loop skips them too — and on the socket they would toggle burst
        framing, which a line-at-a-time pipe does not want).  Junk lines
        go through and come back as the server's ``"invalid"`` envelope.
        """
        if not line.strip():
            return None
        [response] = self._exchange([line.rstrip("\n")], 1, idempotent=False)
        return response.rstrip("\n")


def _encode_line(request: Request) -> str:
    return json.dumps(encode_request(request))


def _parse_envelope(client: NetClient, raw: str) -> Envelope:
    try:
        return Envelope.from_json(raw)
    except ValueError as exc:
        raise NetError(
            f"{client.host}:{client.port}: server sent a non-envelope line: "
            f"{raw[:200]!r}"
        ) from exc


class RemoteGateway:
    """The gateway submission surface, served by a remote ``NetServer``.

    Each calling thread gets its own :class:`NetClient` (connections are
    ordered, threads are not), created lazily and reused for the thread's
    whole run, the shape a real multi-client fleet has.

    ``local`` optionally names the in-process gateway *behind* the server
    when both live in one process (tests, ``verify_transport``): invariant
    checks can then reach shards and metrics directly while all traffic
    still crosses the wire.  Without it, :attr:`shards` is empty and
    :attr:`metrics` is a disabled registry, which the invariant suite
    already treats as "nothing to check here".

    The :attr:`networked` class attribute is the duck-type marker the
    sim's accounting invariant keys on to reconcile ``net.*`` counters.
    """

    networked = True

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        retries: int = 2,
        local=None,
        n_shards: int | None = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.local = local
        self._n_shards_hint = int(n_shards) if n_shards else 0
        self._tls = threading.local()
        self._clients: list[NetClient] = []
        self._lock = threading.Lock()
        self._churn_generation = 0
        self._pending_stall: float | None = None
        self._disabled_metrics = MetricsRegistry(enabled=False)

    # -- gateway surface -----------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        return self.local.metrics if self.local is not None else self._disabled_metrics

    @property
    def shards(self):
        return self.local.shards if self.local is not None else ()

    @property
    def train_batching(self) -> int:
        return getattr(self.local, "train_batching", 1)

    @property
    def n_shards(self) -> int:
        if self.local is not None:
            return self.local.n_shards
        return self._n_shards_hint

    def shard_for(self, target_id: str) -> int:
        """Rendezvous placement, computed locally — it is a pure function.

        With a ``local`` backing gateway this delegates; without one it
        needs the remote shard count (``n_shards=`` at construction, e.g.
        from the workload spec) to run the same argmax the server runs.
        """
        if self.local is not None:
            return self.local.shard_for(target_id)
        if self._n_shards_hint:
            from ..serve.gateway import _placement_weight

            return max(
                range(self._n_shards_hint),
                key=lambda shard: _placement_weight(target_id, shard),
            )
        raise NetError(
            "shard_for needs a local backing gateway or an n_shards hint"
        )

    def restart_shard_workers(self, shard: int) -> None:
        if self.local is None:
            raise NetError("restart_shard_workers needs a local backing gateway")
        self.local.restart_shard_workers(shard)

    def submit(self, request: Request) -> Envelope:
        return self._client().request(request)

    def submit_many(self, requests) -> list[Envelope]:
        return self._client().request_many(list(requests))

    def metrics_snapshot(self) -> dict:
        """The server-side merged snapshot, fetched over the wire."""
        envelope = self.submit(MetricsRequest())
        if not envelope.ok or not envelope.payload:
            raise NetError(f"metrics request failed: {envelope.error}")
        return envelope.payload["metrics"]

    def close(self) -> None:
        """Close every per-thread connection (the server stays up)."""
        with self._lock:
            clients, self._clients = list(self._clients), []
        for client in clients:
            client.close()
        if self.local is not None:
            self.local.close()

    # -- fault-plan hooks ----------------------------------------------------
    def schedule_churn(self, callback=None) -> bool:
        """Drop every connection at its next safe point.

        Each thread's client reconnects itself *before* its next exchange —
        never between sending a burst and reading its answers — so no
        request is lost or re-sent and transcripts stay byte-identical.
        The server meanwhile observes real disconnect/reconnect churn
        (``net.connections.*`` count it).
        """
        with self._lock:
            self._churn_generation += 1
        if callback is not None:
            callback()
        return True

    def schedule_stall(self, seconds: float, callback=None) -> bool:
        """Make the next exchange (any thread) stall before reading.

        The server keeps producing; this client stops consuming — the
        documented backpressure path, driven deterministically by the
        ``slow_client`` fault plan.  Content-neutral: only wall-clock
        timing changes, and transcripts scrub wall clocks.
        """
        with self._lock:
            self._pending_stall = float(seconds)
        if callback is not None:
            callback()
        return True

    # -- per-thread client management ---------------------------------------
    def _client(self) -> NetClient:
        client = getattr(self._tls, "client", None)
        if client is None:
            client = NetClient(
                self.host, self.port, timeout=self.timeout, retries=self.retries
            )
            self._tls.client = client
            self._tls.generation = self._churn_generation
            with self._lock:
                self._clients.append(client)
        with self._lock:
            generation = self._churn_generation
            stall, self._pending_stall = self._pending_stall, None
        if self._tls.generation != generation:
            # A scheduled churn: drop this thread's connection now, at an
            # operation boundary; _exchange reconnects before sending.
            client.close()
            self._tls.generation = generation
        if stall is not None:
            client.stall_next(stall)
        return client
