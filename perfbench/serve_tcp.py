"""Open-loop TCP serving: ``serve-tcp``.

The program runs as its own ``repro serve --listen`` process (housing, two
shards of one worker, eight cached models per shard, a snapshot directory).
One generator thread holds two connections with disjoint target sets and
sends on a seeded Poisson schedule whatever the server does; every latency
is timed from the request's due time, so a stalled server shows up as
latency, never as a lower offered rate.

After the run the same per-connection request sequences are replayed
through an in-process gateway, and every answer must match bit for bit.
"""

from __future__ import annotations

import collections
import json
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    children_cpu_s,
    make_tmpdir,
    median,
    metric,
    peak_rss_mb,
    percentile,
    remove_tmpdir,
    windowed,
)
from program_metrics import counter_delta, layer_counts

HERE = Path(__file__).resolve().parent

RATE_PER_S = 200.0
N_TARGETS = 24
N_CONNECTIONS = 2
STREAM_SHARE = 0.15
BURST_SHARE = 0.10  # share of predict arrivals sent as a framed burst
BURST_SIZE = 4
PREDICT_ROWS = 4
STREAM_ROWS = 16
WARM_STEPS = 2  # stream batches per target before measuring (32 events: cold adapt)
PREDICT_LIMIT_MS = 50.0
DRIFT_KINDS = ("sudden", "gradual", "recurring")
N_SETUPS = 3
#: The generator counts as behind when its p99 send lag exceeds this.
LAG_FLAG_MS = 5.0

GATEWAY = {"n_shards": 2, "shard_workers": 1, "max_cached_models": 8}
STREAM_OPTIONS = {"min_adapt_events": 32, "readapt_budget": 128}
SERVER_ARGS = [
    "serve", "--task", "housing", "--scale", "small", "--seed", "0",
    "--shards", str(GATEWAY["n_shards"]),
    "--shard-workers", str(GATEWAY["shard_workers"]),
    "--max-cached", str(GATEWAY["max_cached_models"]),
    "--min-adapt", str(STREAM_OPTIONS["min_adapt_events"]),
    "--budget", str(STREAM_OPTIONS["readapt_budget"]),
    # Deep enough that a host stall shows up as latency, not as shed requests.
    "--max-pending", "1024",
]  # fmt: skip


@dataclass
class Req:
    kind: str
    target: str
    line: bytes
    rows: np.ndarray | None = None  # predict inputs (for the quality figure)
    labels: np.ndarray | None = None  # never sent to the program


@dataclass
class Arrival:
    due: float  # seconds after the schedule start
    conn: int
    requests: list[Req]

    def payload(self) -> bytes:
        if len(self.requests) == 1:
            return self.requests[0].line
        return b"\n" + b"".join(req.line for req in self.requests) + b"\n"


@dataclass
class Workload:
    warmup: list[list[Req]]  # per connection, sent closed loop
    arrivals: list[Arrival]


def _line(request) -> bytes:
    from repro.serve.protocol import encode_request

    return (json.dumps(encode_request(request)) + "\n").encode("utf-8")


def _placed_targets() -> tuple[list[str], dict[str, int]]:
    """Target ids such that connection ``c`` only addresses shard ``c``.

    Each shard then sees one connection, whose requests the server runs one
    at a time, so no two threads touch a shard's model cache at once.
    Placement comes from the gateway's own rendezvous hashing.
    """
    from repro.serve import Gateway

    gateway = Gateway.from_task("housing", scale="small", seed=0, **GATEWAY)
    try:
        per_shard = N_TARGETS // N_CONNECTIONS
        chosen: dict[int, list[str]] = {shard: [] for shard in range(N_CONNECTIONS)}
        for index in range(100 * N_TARGETS):
            target = f"t{index:03d}"
            shard = gateway.shard_for(target)
            if len(chosen[shard]) < per_shard:
                chosen[shard].append(target)
            if all(len(ids) == per_shard for ids in chosen.values()):
                break
    finally:
        gateway.close()
    targets = sorted(target for ids in chosen.values() for target in ids)
    owner = {target: shard for shard, ids in chosen.items() for target in ids}
    return targets, owner


def make_workload(seed: int, seconds: float) -> Workload:
    """The seeded schedule: arrival times, kinds, targets and payloads."""
    from repro.data import make_drift_stream
    from repro.experiments import get_bundle
    from repro.serve import PredictRequest, StreamRequest

    rng = np.random.default_rng(seed)
    targets, owner = _placed_targets()
    by_conn = [[t for t in targets if owner[t] == c] for c in range(N_CONNECTIONS)]

    times, due = [], 0.0
    while True:
        due += rng.exponential(1.0 / RATE_PER_S)
        if due >= seconds:
            break
        times.append(due)
    plan = []  # (due, kind, targets)
    n_streams = collections.Counter()
    for due in times:
        target = targets[int(rng.integers(N_TARGETS))]
        if rng.random() < STREAM_SHARE:
            plan.append((due, "stream", [target]))
            n_streams[target] += 1
        elif rng.random() < BURST_SHARE:
            mates = [t for t in by_conn[owner[target]] if t != target]
            picked = rng.choice(len(mates), size=BURST_SIZE - 1, replace=False)
            plan.append((due, "predict", [target] + [mates[i] for i in sorted(picked)]))
        else:
            plan.append((due, "predict", [target]))

    [scenario] = get_bundle("housing", "small", 0).task.scenarios
    streams = {
        target: make_drift_stream(
            scenario,
            kind=DRIFT_KINDS[index % len(DRIFT_KINDS)],
            n_steps=WARM_STEPS + n_streams[target] + 1,
            batch_size=STREAM_ROWS,
            seed=seed * 1000 + index,
        )
        for index, target in enumerate(targets)
    }
    step = {target: 0 for target in targets}

    def stream_req(target: str) -> Req:
        batch = streams[target].batches[step[target]]
        step[target] += 1
        return Req("stream", target, _line(StreamRequest(target, batch.inputs)))

    def predict_req(target: str) -> Req:
        # Rows from the target's current regime: the batch it streams next.
        batch = streams[target].batches[step[target]]
        chosen = np.sort(rng.choice(STREAM_ROWS, size=PREDICT_ROWS, replace=False))
        rows, labels = batch.inputs[chosen], batch.targets[chosen]
        return Req("predict", target, _line(PredictRequest(target, rows)), rows, labels)

    warmup: list[list[Req]] = [[] for _ in range(N_CONNECTIONS)]
    for target in targets:
        for _ in range(WARM_STEPS):
            warmup[owner[target]].append(stream_req(target))
        warmup[owner[target]].append(predict_req(target))
    arrivals = []
    for due, kind, group in plan:
        make = stream_req if kind == "stream" else predict_req
        arrivals.append(Arrival(due, owner[group[0]], [make(target) for target in group]))
    return Workload(warmup, arrivals)


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve --listen`` process, started through the launcher."""

    def __init__(self, tmp: Path, tag: str, spans_dir: Path | None) -> None:
        self.log = tmp / f"server-{tag}.log"
        command = [sys.executable, str(HERE / "serve_launcher.py")]
        if spans_dir is not None:
            command += ["--spans", str(spans_dir)]
        command += ["--", *SERVER_ARGS, "--snapshot-dir", str(tmp / f"snapshots-{tag}")]
        command += ["--listen", "127.0.0.1:0"]
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log
            )
        self.address = self._wait_listening()

    def _wait_listening(self, timeout: float = 120.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.log.read_text(errors="replace")
            for line in text.splitlines():
                if "listening on " in line:
                    host, _, port = line.split("listening on ")[1].split()[0].rpartition(":")
                    return host, int(port)
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"server did not start; log:\n{self.log.read_text(errors='replace')}")

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then wait; kill only if the drain hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class Conn:
    """One client connection; responses are matched to requests by order."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.inbuf = bytearray()
        self.out = bytearray()
        self.pending: collections.deque = collections.deque()

    def exchange(self, line: bytes) -> dict:
        """Closed-loop send-and-wait (set-up only)."""
        self.sock.sendall(line)
        while b"\n" not in self.inbuf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise RuntimeError("server closed the connection")
            self.inbuf += chunk
        raw, _, rest = bytes(self.inbuf).partition(b"\n")
        self.inbuf = bytearray(rest)
        return json.loads(raw)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


@dataclass
class Session:
    """What one server session produced."""

    warm_answers: list[list[dict]]
    answers: list[list[tuple[bytes, float] | None]]  # per arrival, per request
    sent_at: list[float]
    start: float  # absolute perf_counter of schedule time 0
    end: float
    metrics_before: dict = field(default_factory=dict)
    metrics_after: dict = field(default_factory=dict)


def _metrics(conn: Conn) -> dict:
    envelope = conn.exchange(b'{"kind": "metrics"}\n')
    return envelope["payload"]["metrics"]


def warm_up(conns: list[Conn], workload: Workload) -> list[list[dict]]:
    return [[conn.exchange(req.line) for req in reqs] for conn, reqs in zip(conns, workload.warmup)]


def open_loop(conns: list[Conn], workload: Workload, grace: float = 60.0) -> Session:
    """Send every arrival at its due time; collect answers as they come."""
    arrivals = workload.arrivals
    slots: list[list] = [[None] * len(a.requests) for a in arrivals]
    sent_at = [0.0] * len(arrivals)
    selector = selectors.DefaultSelector()
    for index, conn in enumerate(conns):
        conn.sock.setblocking(False)
        selector.register(conn.sock, selectors.EVENT_READ, index)
    writing = [False] * len(conns)
    start = time.perf_counter() + 0.02
    dues = [start + a.due for a in arrivals]
    stop_at = start + (arrivals[-1].due if arrivals else 0.0) + grace
    nxt = 0
    outstanding = 0
    while True:
        now = time.perf_counter()
        while nxt < len(arrivals) and dues[nxt] <= now:
            arrival = arrivals[nxt]
            conn = conns[arrival.conn]
            conn.out += arrival.payload()
            conn.pending.extend((nxt, slot) for slot in range(len(arrival.requests)))
            outstanding += len(arrival.requests)
            sent_at[nxt] = now
            nxt += 1
        for index, conn in enumerate(conns):
            if conn.out:
                try:
                    del conn.out[: conn.sock.send(conn.out)]
                except BlockingIOError:
                    pass
            want = bool(conn.out)
            if want != writing[index]:
                events = selectors.EVENT_READ | (selectors.EVENT_WRITE if want else 0)
                selector.modify(conn.sock, events, index)
                writing[index] = want
        if nxt >= len(arrivals) and outstanding == 0:
            break
        if now > stop_at:
            break  # unanswered requests count as failed
        timeout = max(0.0, dues[nxt] - time.perf_counter()) if nxt < len(arrivals) else 0.05
        for key, mask in selector.select(timeout):
            if not mask & selectors.EVENT_READ:
                continue
            conn = conns[key.data]
            try:
                chunk = conn.sock.recv(1 << 20)
            except BlockingIOError:
                continue
            received = time.perf_counter()
            if not chunk:
                stop_at = 0.0  # the server hung up
                continue
            conn.inbuf += chunk
            while True:
                cut = conn.inbuf.find(b"\n")
                if cut < 0:
                    break
                raw = bytes(conn.inbuf[:cut])
                del conn.inbuf[: cut + 1]
                if not conn.pending:
                    raise RuntimeError("server sent an answer nobody asked for")
                arrival_index, slot = conn.pending.popleft()
                slots[arrival_index][slot] = (raw, received)
                outstanding -= 1
    end = time.perf_counter()
    selector.close()
    for conn in conns:
        conn.sock.setblocking(True)
    return Session([], slots, sent_at, start, end)


def run_session(
    tmp: Path, tag: str, workload: Workload, spans_dir: Path | None = None, measure: bool = True
) -> tuple[float, Session | None]:
    """Start a server and warm it up (the set-up), run the schedule if
    ``measure``, stop the server; returns the set-up time and the session."""
    begin = time.perf_counter()
    server = Server(tmp, tag, spans_dir)
    conns = []
    try:
        conns = [Conn(server.address) for _ in range(N_CONNECTIONS)]
        warm = warm_up(conns, workload)
        setup_s = time.perf_counter() - begin
        if not measure:
            return setup_s, None
        before = _metrics(conns[0])
        session = open_loop(conns, workload)
        session.warm_answers = warm
        session.metrics_before = before
        session.metrics_after = _metrics(conns[0])
        return setup_s, session
    finally:
        for conn in conns:
            conn.close()
        server.stop()


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def parse_answers(session: Session) -> list[list[dict | None]]:
    return [
        [None if answer is None else json.loads(answer[0]) for answer in slots]
        for slots in session.answers
    ]


def executed(envelope: dict | None) -> bool:
    """Whether the server ran the request (a shed one changed no state)."""
    return envelope is not None and (envelope.get("error") or {}).get("type") != "overloaded"


def replay(workload: Workload, tmp: Path, parsed) -> tuple[list[list[dict]], list[list]]:
    """The same per-connection sequences through an in-process gateway.

    Requests the server never ran (shed as ``overloaded``, or unanswered) are
    left out, as they left the server's state alone.
    """
    from repro.serve import Gateway
    from repro.serve.loop import decode_line

    gateway = Gateway.from_task(
        "housing",
        scale="small",
        seed=0,
        **GATEWAY,
        service_options=dict(STREAM_OPTIONS),
        snapshot_dir=str(tmp / "snapshots-replay"),
    )
    warm: list[list[dict]] = [[] for _ in range(N_CONNECTIONS)]
    answers: list[list] = [[None] * len(arrival.requests) for arrival in workload.arrivals]
    try:
        for conn in range(N_CONNECTIONS):
            for req in workload.warmup[conn]:
                request, _ = decode_line(req.line.decode())
                warm[conn].append(gateway.submit(request).to_dict())
            for index, arrival in enumerate(workload.arrivals):
                if arrival.conn != conn:
                    continue
                slots = [slot for slot, env in enumerate(parsed[index]) if executed(env)]
                requests = [
                    decode_line(arrival.requests[slot].line.decode())[0] for slot in slots
                ]
                if len(requests) == 1:
                    envelopes = [gateway.submit(requests[0])]
                else:
                    envelopes = gateway.submit_many(requests)
                for slot, envelope in zip(slots, envelopes):
                    answers[index][slot] = envelope.to_dict()
    finally:
        gateway.close()
    return warm, answers


def _comparable(envelope: dict) -> str:
    """The part of an answer fixed by the determinism contract (no timings)."""
    payload = envelope.get("payload") or {}
    if envelope.get("kind") == "predict":
        kept = {key: payload.get(key) for key in ("prediction", "model")}
    elif envelope.get("kind") == "stream":
        event = payload.get("event") or {}
        kept = {key: event.get(key) for key in ("step", "action", "trigger", "buffered", "drifted")}
    else:
        kept = payload
    return json.dumps(
        [envelope.get("ok"), envelope.get("kind"), envelope.get("target_id"), kept, envelope.get("error")],
        sort_keys=True,
    )


def check_session(session: Session, workload: Workload, parsed, expected, problems: list[str]) -> None:
    """Every request answered exactly once, in kind and target, and as replayed."""
    expected_warm, expected_answers = expected
    for conn, answers in enumerate(session.warm_answers):
        shards = {answer["payload"]["shard"] for answer in answers if answer.get("kind") == "stream"}
        if shards != {conn}:
            problems.append(f"connection {conn} reached shard(s) {sorted(shards)}, not only {conn}")
    for conn, (got, want) in enumerate(zip(session.warm_answers, expected_warm)):
        for got_env, want_env in zip(got, want):
            if _comparable(got_env) != _comparable(want_env):
                problems.append(f"warm-up answer on connection {conn} differs from the replay")
                break
    for index, arrival in enumerate(workload.arrivals):
        for slot, (req, envelope) in enumerate(zip(arrival.requests, parsed[index])):
            if envelope is None or len(problems) >= 20:
                continue  # unanswered: counted as failed
            if envelope.get("kind") != req.kind or envelope.get("target_id") != req.target:
                problems.append(f"arrival {index}: answer is for another request")
            elif executed(envelope) and _comparable(envelope) != _comparable(
                expected_answers[index][slot]
            ):
                problems.append(
                    f"arrival {index} ({req.kind} {req.target}) differs from the in-process replay"
                )


def _same_answers(a: Session, b: Session) -> bool:
    for slots_a, slots_b in zip(a.answers, b.answers):
        for x, y in zip(slots_a, slots_b):
            if (x is None) != (y is None):
                return False
            if x is not None and _comparable(json.loads(x[0])) != _comparable(json.loads(y[0])):
                return False
    return True


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, tracer=None) -> dict:
    from repro.experiments import get_bundle

    workload = make_workload(seed, seconds)
    tmp = make_tmpdir("serve-")
    problems: list[str] = []
    try:
        setups: list[float] = []
        cpu_plain = None
        if tracer is None:
            for attempt in range(N_SETUPS - 1):
                setups.append(run_session(tmp, f"setup{attempt}", workload, measure=False)[0])
            setup_s, session = run_session(tmp, "measured", workload)
            setups.append(setup_s)
        else:
            # Same schedule twice: untraced, then traced.  In an open loop the
            # wall time is fixed by the schedule, so the tracing overhead is
            # the ratio of the server's CPU time between the two sessions.
            cpu0 = children_cpu_s()
            _, plain = run_session(tmp, "plain", workload)
            cpu1 = children_cpu_s()
            setup_s, session = run_session(tmp, "traced", workload, tracer.spans_dir)
            cpu_plain, cpu_traced = cpu1 - cpu0, children_cpu_s() - cpu1
            setups.append(setup_s)
            if not _same_answers(plain, session):
                problems.append("traced and untraced sessions answered differently")
        parsed = parse_answers(session)
        expected = replay(workload, tmp, parsed)
        check_session(session, workload, parsed, expected, problems)
        bundle = get_bundle("housing", "small", 0)
    finally:
        remove_tmpdir(tmp)

    predict_ms, stream_ms, lag_ms = [], [], []
    adapt_seconds: list[float] = []
    timed_predicts: list[tuple[float, float]] = []  # (due, ms); failures: inf
    attempted = failed = 0
    sse: dict[str, list[float]] = collections.defaultdict(lambda: [0.0, 0.0])
    for index, arrival in enumerate(workload.arrivals):
        due = session.start + arrival.due
        lag_ms.append(1000.0 * (session.sent_at[index] - due))
        for req, slot, envelope in zip(arrival.requests, session.answers[index], parsed[index]):
            attempted += 1
            if envelope is None or not envelope.get("ok"):
                failed += 1
                if req.kind == "predict":
                    timed_predicts.append((arrival.due, float("inf")))
                continue
            latency_ms = 1000.0 * (slot[1] - due)
            if req.kind == "predict":
                predict_ms.append(latency_ms)
                timed_predicts.append((arrival.due, latency_ms))
                served = np.asarray(envelope["payload"]["prediction"], dtype=np.float64)
                source = bundle.predict(req.rows)
                sse[req.target][0] += float(np.sum((served - req.labels) ** 2))
                sse[req.target][1] += float(np.sum((source - req.labels) ** 2))
            else:
                stream_ms.append(latency_ms)
                event = envelope["payload"]["event"]
                if event["action"] in ("cold_adapt", "warm_adapt"):
                    adapt_seconds.append(event["duration_seconds"])
    reductions = [1.0 - served / source for served, source in sse.values() if source > 0]

    end_to_end = {
        "setup_s": metric(median(setups), "s"),
        "ok_share": metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb(True), "MB"),
        # Open loop: stream-triggered adaptations completed per second.  It
        # reads the offered demand unless the server falls behind; how long
        # each adaptation took is ``adapt_ms.p50`` (its spread across runs on
        # a 2-core host, 0.13-0.28 of the median, is wider than any bound).
        "adapt_targets_per_s": metric(
            len(adapt_seconds) / (session.end - session.start), "targets/s"
        ),
        "predict_goodput_share": metric(
            windowed(timed_predicts, lambda v: sum(ms <= PREDICT_LIMIT_MS for ms in v) / len(v)),
            "ratio",
        ),
        "mse_vs_source": metric(1.0 - float(np.mean(reductions)), "ratio"),
    }
    lag_p99 = percentile(lag_ms, 99)
    extra = {
        "predict_ms.p50": metric(percentile(predict_ms, 50), "ms"),
        "predict_ms.p99": metric(percentile(predict_ms, 99), "ms"),
        "mse_reduction": metric(float(np.mean(reductions)), "ratio"),
        "stream_ms.p50": metric(percentile(stream_ms, 50), "ms"),
        "stream_ms.p99": metric(percentile(stream_ms, 99), "ms"),
        "failed_share": metric(failed / attempted, "ratio"),
        "offered_rate": metric(attempted / workload.arrivals[-1].due, "req/s"),
        "predicts": metric(len(predict_ms), "count"),
        "streams": metric(len(stream_ms), "count"),
        "stream_adaptations": metric(len(adapt_seconds), "count"),
        "adapt_ms.p50": metric(1000.0 * median(adapt_seconds), "ms"),
        "predict_ms.p90": metric(percentile(predict_ms, 90), "ms"),
        "generator_lag_ms.p99": metric(lag_p99, "ms"),
    }
    if lag_p99 > LAG_FLAG_MS:
        print(
            f"perfbench: WARNING generator fell behind its schedule (lag p99 {lag_p99:.2f} ms)",
            file=sys.stderr,
        )
    counts = layer_counts(
        counter_delta(session.metrics_before, session.metrics_after),
        train_batching=1,
    )
    overhead = None
    if cpu_plain:
        overhead = cpu_traced / cpu_plain - 1.0
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "extra": extra,
        "counts": counts,
        "trace_windows": [(session.start, session.end)],
        "trace_overhead_share": overhead,
        "generator_lag_ms_p99": lag_p99,
    }
