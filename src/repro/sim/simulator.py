"""The virtual-clock simulator driving the real serving stack.

:class:`Simulator` replays a compiled :class:`~repro.sim.WorkloadTrace`
through a live :class:`~repro.serve.Gateway` — the actual sharded services,
strategy engine, micro-batcher, and wire codec, nothing mocked — one virtual
**tick** at a time.  Within a tick it mirrors how the stack is really
driven, while keeping the run replayable:

1. the tick's wire lines are decoded through :func:`repro.serve.decode_line`
   (malformed lines become error envelopes right there, like ``repro serve``);
2. **mutators** (adapt and stream requests) run first, each target's
   requests strictly in trace order: the per-target chains advance in
   lock-step waves, one :meth:`~repro.serve.Gateway.submit_many` per wave
   holding the front request of every chain, so the gateway stacks the
   wave's adaptations (``train_batching``) and hands them to its workers
   together — per-target state is independently locked and seeded, so
   grouping targets cannot change any result;
3. **reports** run next (reads against settled state);
4. **predictions** run last as one :meth:`~repro.serve.Gateway.submit_many`
   burst, exercising the micro-batched coalescing path.

The phase barriers keep each target's mutators in trace order (one
``submit_many`` would answer a tick's adapts before all of its streams),
and they cost nothing the workload cares about: within a tick the virtual
clock does not advance, so "later in the same tick" has no meaning a
client could observe.

Every envelope is appended to a canonical **transcript**: one JSON line per
request with sorted keys and every ``duration_seconds`` scrubbed to ``0.0``
(wall clock is the one thing an otherwise deterministic stack cannot
reproduce).  Same spec + seed → byte-identical transcript, which
:func:`verify_replay` checks by running a workload twice — the determinism
oracle every future batching/sharding/caching PR can be held to.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

# scrub_wall_clock moved to repro.obs.clock (every layer stamping a
# duration needs it now, not just the simulator); re-exported here so
# ``from repro.sim.simulator import scrub_wall_clock`` keeps working.
from ..obs import Tracer, now, scrub_wall_clock
from ..serve.gateway import Gateway
from ..serve.loop import decode_line
from ..serve.protocol import AdaptRequest, PredictRequest, ReportRequest, StreamRequest
from .faults import FaultPlan, create_fault_plan
from .invariants import InvariantSuite, RequestRecord
from .spec import TraceEvent, WorkloadSpec, WorkloadTrace, compile_trace

__all__ = [
    "scrub_wall_clock",
    "SimulationResult",
    "Simulator",
    "build_gateway",
    "run_simulation",
    "verify_replay",
    "verify_transport",
]


@dataclass
class SimulationResult:
    """Everything one simulation run produced.

    ``transcript_lines`` is the canonical envelope transcript (one JSON line
    per request, sorted keys, wall clock scrubbed); ``invariant_report`` is
    the :class:`~repro.sim.InvariantSuite` verdict plus the fault log.
    """

    spec: WorkloadSpec
    users: dict[str, str]
    n_ticks: int
    n_requests: int
    n_ok: int
    n_errors: int
    kind_counts: dict[str, int]
    transcript_lines: list[str]
    invariant_report: dict
    faults: list[dict]
    wall_seconds: float
    #: Fleet-wide ``repro.metrics/v1`` snapshot taken after the last tick
    #: (gateway + shards merged).  Not part of the transcript: timing-valued
    #: entries are wall-clock and would break byte-replay.
    metrics: dict | None = None
    events_per_second: float = field(init=False)

    def __post_init__(self) -> None:
        self.events_per_second = (
            self.n_requests / self.wall_seconds if self.wall_seconds > 0 else float("inf")
        )

    @property
    def ok(self) -> bool:
        """Whether every invariant held."""
        return bool(self.invariant_report.get("ok"))

    @property
    def transcript_text(self) -> str:
        """The canonical transcript as one newline-terminated string."""
        return "\n".join(self.transcript_lines) + "\n" if self.transcript_lines else ""

    @property
    def transcript_digest(self) -> str:
        """SHA-256 of the canonical transcript (quick replay comparisons)."""
        return hashlib.sha256(self.transcript_text.encode("utf-8")).hexdigest()

    def summary(self) -> str:
        """Human-readable run summary (printed to stderr by the CLI)."""
        spec = self.spec
        lines = [
            f"[simulate] task={spec.task} scheme={spec.scheme} scale={spec.scale} "
            f"seed={spec.seed} fault_plan={spec.fault_plan}",
            f"  ticks={self.n_ticks} users={len(self.users)} requests={self.n_requests} "
            f"ok={self.n_ok} errors={self.n_errors} "
            f"({self.events_per_second:,.0f} events/s)",
            f"  kinds: "
            + " ".join(f"{kind}={count}" for kind, count in sorted(self.kind_counts.items())),
            f"  faults injected: {len(self.faults)}",
            f"  transcript: {len(self.transcript_lines)} lines "
            f"sha256={self.transcript_digest[:16]}…",
        ]
        for name, entry in self.invariant_report.get("invariants", {}).items():
            status = "ok" if entry["ok"] else "FAIL"
            lines.append(f"  invariant {name}: {status} ({entry['checks']} checks)")
            for violation in entry["violations"][:3]:
                lines.append(f"    - tick {violation['tick']}: {violation['detail']}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-safe result summary (transcript carried as digest only)."""
        return {
            "spec": self.spec.to_dict(),
            "users": dict(self.users),
            "n_ticks": self.n_ticks,
            "n_requests": self.n_requests,
            "n_ok": self.n_ok,
            "n_errors": self.n_errors,
            "kind_counts": dict(self.kind_counts),
            "events_per_second": self.events_per_second,
            "wall_seconds": self.wall_seconds,
            "transcript_lines": len(self.transcript_lines),
            "transcript_sha256": self.transcript_digest,
            "faults": list(self.faults),
            "invariants": self.invariant_report,
            "metrics": self.metrics,
        }


def build_gateway(
    spec: WorkloadSpec, tracer: Tracer | None = None, snapshot_dir: str | None = None
) -> Gateway:
    """Stand up the gateway a spec describes (registry task + scheme).

    ``config_overrides`` land on the shared :class:`~repro.core.TasfarConfig`
    — scenario files use this to pin short adaptation schedules
    (``{"adaptation_epochs": 3, "early_stop": false}``) so a simulation run
    is fast *and* independent of early-stopping wall-clock noise.  An
    optional ``tracer`` records per-request spans for the whole run.

    With ``spec.snapshots`` the gateway gets the warm snapshot tier.
    ``snapshot_dir`` names where it lives (the CLI's ``--snapshot-dir``
    pass-through — passing one enables the tier even when the spec leaves
    ``snapshots`` off); by default each build gets a **fresh private
    temporary directory** whose lifetime is tied to the gateway — a replay
    verification then builds two gateways and each starts from an empty
    store, keeping the two transcripts byte-identical by construction.
    """
    import tempfile

    from ..core.config import TasfarConfig

    config = TasfarConfig(seed=spec.seed, **dict(spec.config_overrides))
    service_options = {
        "min_adapt_events": spec.min_adapt_events,
        "readapt_budget": spec.readapt_budget,
        "drift_threshold": spec.drift_threshold,
    }
    if spec.warm_epochs is not None:
        service_options["warm_epochs"] = spec.warm_epochs
    snapshot_tmp = None
    snapshots = spec.snapshots or snapshot_dir is not None
    if snapshots and snapshot_dir is None:
        snapshot_tmp = tempfile.TemporaryDirectory(prefix="repro-snapshots-")
        snapshot_dir = snapshot_tmp.name
    gateway = Gateway.from_task(
        spec.task,
        scheme=spec.scheme,
        scale=spec.scale,
        seed=spec.seed,
        config=config,
        n_shards=spec.n_shards,
        shard_workers=spec.shard_workers,
        executor=spec.executor,
        train_batching=spec.train_batching,
        max_cached_models=spec.cache_capacity(),
        base_seed=spec.seed,
        service_options=service_options,
        tracer=tracer,
        snapshot_dir=snapshot_dir if snapshots else None,
    )
    # Pin the temp dir to the gateway: the spill files live exactly as long
    # as the stack that wrote them.
    gateway._snapshot_tmpdir = snapshot_tmp
    return gateway


class Simulator:
    """Replay one workload spec against a live gateway, tick by tick.

    Parameters
    ----------
    spec:
        The workload to run (validated on entry).
    gateway:
        Optional pre-built gateway (tests inject cheap fixtures); defaults
        to :func:`build_gateway`.  The caller owns a supplied gateway's
        lifetime; a gateway the simulator built itself is closed by
        :meth:`close`.
    task:
        Optional :class:`~repro.data.AdaptationTask` the trace compiles
        against; defaults to the registry bundle named by the spec and must
        match whatever the gateway actually serves.
    tracer:
        Optional :class:`~repro.obs.Tracer` wired into a gateway the
        simulator builds itself (ignored when a pre-built ``gateway`` is
        supplied — attach the tracer to that gateway directly instead).
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        gateway: Gateway | None = None,
        task=None,
        tracer: Tracer | None = None,
    ) -> None:
        spec.validate()
        self.spec = spec
        # Trace and fault plan first: they catch the spec errors validate()
        # cannot (unknown scenario names, unknown fault options) *before*
        # the expensive gateway build, so a bad spec fails fast and leaks
        # nothing.
        self.trace: WorkloadTrace = compile_trace(spec, task=task)
        self.fault: FaultPlan = create_fault_plan(spec.fault_plan, **dict(spec.fault_options))
        self.trace = self.fault.mutate_trace(
            self.trace, np.random.default_rng([int(spec.seed) % (2**31), 0xFA])
        )
        self._owns_gateway = gateway is None
        self.gateway = gateway if gateway is not None else build_gateway(spec, tracer=tracer)
        self.suite = InvariantSuite(self.gateway, verify_coalescing=spec.verify_coalescing)
        self.virtual_time = 0.0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute every tick and return the transcript + invariant report."""
        start = now()
        transcript: list[str] = []
        kind_counts: dict[str, int] = {}
        n_ok = n_errors = 0
        for tick, events in enumerate(self.trace.ticks):
            self.virtual_time = tick * self.spec.tick_seconds
            self.fault.before_tick(self, tick)
            records = self._run_tick(events)
            self.suite.observe_tick(tick, records)
            for record in records:
                envelope = record.envelope
                kind_counts[envelope.kind] = kind_counts.get(envelope.kind, 0) + 1
                if envelope.ok:
                    n_ok += 1
                else:
                    n_errors += 1
                transcript.append(
                    json.dumps(
                        {
                            "tick": tick,
                            "seq": record.event.seq,
                            "virtual_time": self.virtual_time,
                            "envelope": scrub_wall_clock(envelope.to_dict()),
                        },
                        sort_keys=True,
                    )
                )
        wall = now() - start
        report = self.suite.report()
        report["faults"] = list(self.fault.log)
        report["fault_plan"] = self.fault.describe()
        return SimulationResult(
            spec=self.spec,
            users=dict(self.trace.users),
            n_ticks=self.spec.n_ticks,
            n_requests=n_ok + n_errors,
            n_ok=n_ok,
            n_errors=n_errors,
            kind_counts=kind_counts,
            transcript_lines=transcript,
            invariant_report=report,
            faults=list(self.fault.log),
            wall_seconds=wall,
            metrics=self.gateway.metrics_snapshot(),
        )

    def _run_tick(self, events: list[TraceEvent]) -> list[RequestRecord]:
        """Serve one tick's wire lines through the three-phase schedule."""
        records: list[RequestRecord | None] = [None] * len(events)
        mutators: "OrderedDict[str, list[tuple[int, object]]]" = OrderedDict()
        reads: list[tuple[int, object]] = []
        predicts: list[tuple[int, object]] = []
        for index, event in enumerate(events):
            request, error = decode_line(event.line)
            if request is None:
                # A decode failure answers in place; a blank line answers
                # nothing at all — both exactly like the serving loop.
                if error is not None:
                    records[index] = RequestRecord(event, None, error)
                continue
            if isinstance(request, (AdaptRequest, StreamRequest)):
                mutators.setdefault(request.target_id, []).append((index, request))
            elif isinstance(request, ReportRequest):
                reads.append((index, request))
            elif isinstance(request, PredictRequest):
                predicts.append((index, request))

        # Phase 1 — mutators: the front request of every non-empty chain goes
        # out as one submit_many wave.  A chain advances exactly one request
        # per wave, so per-target order stays strict, and a wave never holds
        # two requests for the same target.
        chains = [list(chain) for chain in mutators.values()]
        while chains:
            wave = [chain.pop(0) for chain in chains]
            envelopes = self.gateway.submit_many([request for _, request in wave])
            for (index, request), envelope in zip(wave, envelopes):
                records[index] = RequestRecord(events[index], request, envelope)
            chains = [chain for chain in chains if chain]

        # Phase 2 — reads against settled state.
        if reads:
            envelopes = self.gateway.submit_many([request for _, request in reads])
            for (index, request), envelope in zip(reads, envelopes):
                records[index] = RequestRecord(events[index], request, envelope)

        # Phase 3 — the tick's prediction burst, micro-batched.
        if predicts:
            envelopes = self.gateway.submit_many([request for _, request in predicts])
            for (index, request), envelope in zip(predicts, envelopes):
                records[index] = RequestRecord(events[index], request, envelope)

        return [record for record in records if record is not None]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the gateway, if this simulator built it."""
        if self._owns_gateway:
            self.gateway.close()

    def __enter__(self) -> "Simulator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_simulation(
    spec: WorkloadSpec, gateway: Gateway | None = None, task=None, tracer: Tracer | None = None
) -> SimulationResult:
    """Build, run, and tear down one simulation; returns its result."""
    with Simulator(spec, gateway=gateway, task=task, tracer=tracer) as simulator:
        return simulator.run()


def verify_replay(
    spec: WorkloadSpec, gateway_factory=None, task=None, tracer: Tracer | None = None
) -> tuple[bool, str | None, SimulationResult]:
    """Run a workload twice from scratch and compare transcripts byte for byte.

    Returns ``(ok, first_difference, first_result)``.  ``gateway_factory``
    lets tests rebuild their cheap fixture gateway per run; by default each
    run builds a fresh gateway from the spec (the task bundle itself is
    cached and immutable, so sharing it is safe).  A ``tracer`` is applied
    to the *first* run only (spans carry wall-clock timings, so tracing
    both runs would record two different-but-equivalent sets).
    """
    results = []
    for attempt in range(2):
        gateway = gateway_factory() if gateway_factory is not None else None
        run_tracer = tracer if attempt == 0 else None
        if gateway is not None:
            with Simulator(spec, gateway=gateway, task=task) as simulator:
                results.append(simulator.run())
            gateway.close()
        else:
            results.append(run_simulation(spec, task=task, tracer=run_tracer))
    first, second = results
    if first.transcript_text == second.transcript_text:
        return True, None, first
    detail = _first_divergence(first, second, "run1", "run2")
    return False, detail, first


def _first_divergence(a: SimulationResult, b: SimulationResult, name_a: str, name_b: str) -> str:
    detail = "transcript lengths differ"
    for line_a, line_b in zip(a.transcript_lines, b.transcript_lines):
        if line_a != line_b:
            detail = f"first divergence:\n  {name_a}: {line_a}\n  {name_b}: {line_b}"
            break
    return detail


def verify_transport(
    spec: WorkloadSpec,
    address: tuple[str, int] | None = None,
    task=None,
    tracer: Tracer | None = None,
    max_pending: int = 256,
) -> tuple[bool, str | None, SimulationResult, SimulationResult]:
    """Replay a workload over TCP and in-process; compare byte for byte.

    The transport-transparency oracle: the same spec runs twice from
    scratch — once driven through a live socket server (every request and
    burst crossing the wire via :class:`~repro.net.RemoteGateway`, bursts
    preserved by the blank-line burst markers) and once entirely
    in-process — and the two canonical transcripts must be identical to
    the byte.  ``verify_replay`` pins *determinism*; this pins *the wire
    adds nothing and loses nothing*, fault plans included.

    With no ``address`` a server is stood up in-process, backed by a fresh
    gateway built from the spec; the remote gateway keeps a ``local``
    handle to it so the invariant suite (shard placement, metrics
    reconciliation — now including the ``net.*`` transport counters) runs
    at full strength during the TCP leg.  With an ``address`` (a server
    someone else started, e.g. ``repro simulate --connect``) the TCP leg
    checks what it can reach: transcripts fully, server-side metrics not
    at all.  Either way the server must serve the *same spec* — state is
    cumulative, so a reused server would answer differently by design.

    Returns ``(ok, first_difference, tcp_result, local_result)``.
    """
    from ..net import NetServer, RemoteGateway

    server = None
    if address is None:
        backing = build_gateway(spec, tracer=tracer)
        server = NetServer(backing, max_pending=max_pending)
        host, port = server.start()
        remote = RemoteGateway(host, port, local=backing)
    else:
        host, port = address
        remote = RemoteGateway(host, int(port), n_shards=spec.n_shards)
    try:
        with Simulator(spec, gateway=remote, task=task) as simulator:
            tcp_result = simulator.run()
    finally:
        if server is not None:
            server.stop()
        remote.close()
    local_result = run_simulation(spec, task=task)
    if tcp_result.transcript_text == local_result.transcript_text:
        return True, None, tcp_result, local_result
    return (
        False,
        _first_divergence(tcp_result, local_result, "tcp", "in-process"),
        tcp_result,
        local_result,
    )
