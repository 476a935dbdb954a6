"""Pluggable fault plans injected into a simulated workload.

A :class:`FaultPlan` attacks the serving stack at two seams, both
deterministic under the simulation seed:

* **wire level** — :meth:`FaultPlan.mutate_trace` rewrites the compiled
  event trace before anything runs: duplicating stream events (client
  retries, replica fan-out), shuffling a tick's lines out of order, blanking
  lines into junk, and corrupting payload values so they fail the request
  codec.  Everything still flows through the real decode path, so the stack
  must answer every mutated line with a typed envelope and keep going.
* **state level** — :meth:`FaultPlan.before_tick` reaches into the live
  gateway between ticks: restarting a shard's worker pool (a crashed and
  respawned worker) or evicting the LRU model caches mid-burst (memory
  pressure), forcing source-model fallbacks and cold re-adaptations.

Plans live in a registry (:func:`register_fault_plan` /
:func:`create_fault_plan`), so a scenario file selects one by name — and a
future PR can ship a new failure mode as one registration call.

Shipped plans: ``none``, ``wire_chaos``, ``shard_crash``, ``cache_thrash``,
``conn_churn``, ``slow_client``, ``snapshot_chaos`` (``conn_churn`` and
``slow_client`` act on the *transport* and so only bite when the simulator
drives a live socket server; in-process they record ``applied=False`` and
change nothing).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable

import numpy as np

from .spec import TraceEvent, WorkloadTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .simulator import Simulator

__all__ = [
    "FaultPlan",
    "FAULT_PLANS",
    "register_fault_plan",
    "create_fault_plan",
    "fault_plan_names",
]


class FaultPlan:
    """Base fault plan: no faults.  Subclasses override one or both hooks."""

    name = "none"

    def __init__(self, **options) -> None:
        unknown = set(options) - set(self.option_defaults())
        if unknown:
            raise ValueError(
                f"unknown option(s) {sorted(unknown)} for fault plan {self.name!r}; "
                f"expected a subset of {sorted(self.option_defaults())}"
            )
        self.options = {**self.option_defaults(), **options}
        #: Chronological log of injected faults (goes into the invariant report).
        self.log: list[dict] = []

    @classmethod
    def option_defaults(cls) -> dict:
        """Recognized options and their defaults (subclasses override)."""
        return {}

    def record(self, **entry) -> None:
        """Append one fault occurrence to the plan's log."""
        self.log.append(entry)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def mutate_trace(self, trace: WorkloadTrace, rng: np.random.Generator) -> WorkloadTrace:
        """Rewrite the compiled trace (wire-level faults).  Default: no-op."""
        return trace

    def before_tick(self, simulator: "Simulator", tick: int) -> None:
        """Inject state-level faults before a tick runs.  Default: no-op."""

    def describe(self) -> dict:
        """JSON-safe identity of the plan (name + resolved options)."""
        return {"name": self.name, "options": dict(self.options)}


class WireChaosPlan(FaultPlan):
    """Duplicate, reorder, junk, and corrupt wire lines.

    Every mutation produces traffic the stack must absorb without crashing:
    duplicates are byte-identical (so deduped predicts coalesce and repeated
    stream batches fold in deterministically whatever their relative order),
    junk lines and corrupted payloads must come back as typed error
    envelopes, and the shuffle delivers a tick's events out of order.
    """

    name = "wire_chaos"

    _JUNK_LINES = (
        "this is not json {",
        '{"kind": "warp", "target_id": "nobody"}',
        '{"kind": ["stream"], "target_id": "nobody"}',
        '{"kind": "stream", "target_id": "nobody", "batch": []}',
        "[1, 2, 3]",
        '{"kind": "predict", "target_id": "nobody"}',
    )

    @classmethod
    def option_defaults(cls) -> dict:
        return {
            "duplicate_rate": 0.25,
            "junk_rate": 0.15,
            "corrupt_rate": 0.15,
            "shuffle": True,
        }

    def mutate_trace(self, trace: WorkloadTrace, rng: np.random.Generator) -> WorkloadTrace:
        duplicate_rate = float(self.options["duplicate_rate"])
        junk_rate = float(self.options["junk_rate"])
        corrupt_rate = float(self.options["corrupt_rate"])
        for tick, events in enumerate(trace.ticks):
            mutated: list[TraceEvent] = []
            for event in events:
                if event.kind in ("stream", "predict") and rng.random() < corrupt_rate:
                    event = TraceEvent(
                        tick, 0, event.kind, event.user, _corrupt_line(event.line), "corrupt"
                    )
                    self.record(tick=tick, fault="corrupt", user=event.user)
                mutated.append(event)
                if event.kind in ("stream", "predict") and rng.random() < duplicate_rate:
                    mutated.append(
                        TraceEvent(tick, 0, event.kind, event.user, event.line, "duplicate")
                    )
                    self.record(tick=tick, fault="duplicate", user=event.user)
            n_junk = int(rng.binomial(max(1, len(mutated)), junk_rate))
            for _ in range(n_junk):
                junk = self._JUNK_LINES[int(rng.integers(len(self._JUNK_LINES)))]
                mutated.append(TraceEvent(tick, 0, "junk", None, junk, "junk"))
                self.record(tick=tick, fault="junk")
            if self.options["shuffle"]:
                order = rng.permutation(len(mutated))
                mutated = [mutated[i] for i in order]
            trace.ticks[tick] = mutated
        trace.resequence()
        return trace


def _corrupt_line(line: str) -> str:
    """Poison one numeric payload value so the request codec must reject it.

    The corruption targets the *decode boundary* on purpose: a non-numeric
    cell makes ``np.asarray(..., dtype=float64)`` raise inside
    :func:`repro.serve.decode_request`, which the loop must answer with an
    error envelope — the stack's state never sees the bad sample, mirroring
    a frontend that validates before it forwards.
    """
    payload = json.loads(line)
    for field in ("inputs", "batch"):
        block = payload.get(field)
        if isinstance(block, list) and block and isinstance(block[0], list) and block[0]:
            block[0][0] = "0xDEAD"
            return json.dumps(payload)
    return "corrupted " + line[:40]


class ShardCrashPlan(FaultPlan):
    """Crash (and respawn) one shard's worker pool every ``every`` ticks.

    Rotates through the shards so every pool dies at least once in a long
    enough run.  Under ``executor="process"`` this kills the shard's real
    worker *processes* (SIGTERM, fresh pool respawned, weights re-shipped);
    under threads it swaps the dispatch pool.  Either way requests queued at
    crash time resolve to error envelopes instead of hanging — but the plan
    fires *between* ticks, when the simulator has nothing in flight, so the
    shard's *service state* (cached models, stream buffers, reports)
    survives and the transcript must be byte-identical to a run without
    crashes.
    """

    name = "shard_crash"

    @classmethod
    def option_defaults(cls) -> dict:
        return {"every": 3}

    def before_tick(self, simulator: "Simulator", tick: int) -> None:
        every = int(self.options["every"])
        if tick == 0 or tick % every:
            return
        shard = (tick // every - 1) % simulator.gateway.n_shards
        simulator.gateway.restart_shard_workers(shard)
        self.record(tick=tick, fault="shard_crash", shard=shard)


class CacheThrashPlan(FaultPlan):
    """Evict every shard's LRU model cache every ``every`` ticks, mid-run.

    After an eviction the next predictions fall back to the source model
    (or error under ``strict``) and the next stream-triggered re-adaptation
    starts cold instead of warm — all of which the invariants must still
    hold under, and all of which replays exactly because the evictions are
    scheduled, not capacity-raced.
    """

    name = "cache_thrash"

    @classmethod
    def option_defaults(cls) -> dict:
        return {"every": 2}

    def before_tick(self, simulator: "Simulator", tick: int) -> None:
        every = int(self.options["every"])
        if tick == 0 or tick % every:
            return
        evicted: list[str] = []
        for service in simulator.gateway.shards:
            evicted.extend(service.evict())
        self.record(tick=tick, fault="cache_thrash", evicted=sorted(evicted))


class SnapshotChaosPlan(FaultPlan):
    """Thrash the warm snapshot tier: scheduled evictions plus file rot.

    Every ``every`` ticks the plan evicts every shard's LRU model cache —
    with a :class:`~repro.runtime.SnapshotStore` attached each eviction
    *spills* the adapted state to disk, so the next touch exercises the
    warm-resume path instead of a cold re-adaptation.  Every
    ``corrupt_every`` ticks it additionally **corrupts one snapshot file**
    in place (truncated junk that fails the checksum), so a later resume
    must detect the rot, count it (``snapshots.corrupt``), discard the
    file, and fall back to a cold adapt — the corruption oracle.

    Both halves are deterministic: evictions are scheduled by tick, and
    the corruption victim is picked by sorting every shard store's file
    list and indexing with tick arithmetic — no RNG, so two runs of the
    same spec rot the same file at the same tick and the transcripts stay
    byte-identical (which ``verify_replay`` checks with this plan active).

    Without ``spec.snapshots`` the stores are absent; evictions still
    fire (degrading to plain ``cache_thrash``) and corruption records
    ``applied=False``.
    """

    name = "snapshot_chaos"

    @classmethod
    def option_defaults(cls) -> dict:
        return {"every": 2, "corrupt_every": 4}

    def before_tick(self, simulator: "Simulator", tick: int) -> None:
        if tick == 0:
            return
        every = int(self.options["every"])
        corrupt_every = int(self.options["corrupt_every"])
        if every and tick % every == 0:
            evicted: list[str] = []
            for service in simulator.gateway.shards:
                evicted.extend(service.evict())
            self.record(tick=tick, fault="snapshot_evict", evicted=sorted(evicted))
        if corrupt_every and tick % corrupt_every == 0:
            victim = self._corrupt_one(simulator, tick)
            self.record(
                tick=tick,
                fault="snapshot_corrupt",
                applied=victim is not None,
                file=victim,
            )

    @staticmethod
    def _corrupt_one(simulator: "Simulator", tick: int) -> str | None:
        """Rot one spilled snapshot, chosen without randomness.

        Files are gathered per shard in shard order (each store's own list
        is already sorted), so the victim index depends only on the spill
        history — identical across replay runs of the same spec.
        """
        files = []
        for service in simulator.gateway.shards:
            store = getattr(service, "snapshot_store", None)
            if store is not None:
                files.extend(store.files())
        if not files:
            return None
        victim = files[tick % len(files)]
        victim.write_bytes(b'{"schema": "repro.snapshot/v1", "rotted": tru')
        return victim.name


class ConnChurnPlan(FaultPlan):
    """Drop every client connection every ``every`` ticks (network runs).

    Attacks the transport seam the other plans cannot reach: when the
    simulator drives a live socket server (``repro simulate --connect``),
    every client thread holds its own TCP connection, and this plan
    severs all of them between ticks via the remote gateway's
    :meth:`~repro.net.RemoteGateway.schedule_churn` hook.  Connections are
    dropped at operation boundaries — never between sending a burst and
    reading its answers — so no request is lost or replayed and the
    transcript stays byte-identical to an unchurned (or in-process) run,
    while the server sees real disconnect/reconnect cycles
    (``net.connections.opened/closed`` count every one).

    In-process gateways have no connections to churn; the plan records
    ``applied=False`` so a transcript comparison across transports still
    sees identical *traffic* while the fault log stays honest.
    """

    name = "conn_churn"

    @classmethod
    def option_defaults(cls) -> dict:
        return {"every": 2}

    def before_tick(self, simulator: "Simulator", tick: int) -> None:
        every = int(self.options["every"])
        if tick == 0 or tick % every:
            return
        schedule = getattr(simulator.gateway, "schedule_churn", None)
        applied = bool(schedule()) if callable(schedule) else False
        self.record(tick=tick, fault="conn_churn", applied=applied)


class SlowClientPlan(FaultPlan):
    """Stall one client's reader every ``every`` ticks (network runs).

    The backpressure probe: via
    :meth:`~repro.net.RemoteGateway.schedule_stall`, one connection sends
    its next burst and then refuses to read answers for ``stall_seconds``.
    The server must keep every *other* connection flowing, park the
    stalled one's responses in its bounded queue (TCP window past the hard
    cap), and never drop or reorder anything — the stall is pure
    wall-clock, so the transcript is still byte-identical after
    wall-clock scrubbing.  Records ``applied=False`` in-process, where
    there is no reader to stall.
    """

    name = "slow_client"

    @classmethod
    def option_defaults(cls) -> dict:
        return {"every": 2, "stall_seconds": 0.2}

    def before_tick(self, simulator: "Simulator", tick: int) -> None:
        every = int(self.options["every"])
        if tick == 0 or tick % every:
            return
        schedule = getattr(simulator.gateway, "schedule_stall", None)
        stall = float(self.options["stall_seconds"])
        applied = bool(schedule(stall)) if callable(schedule) else False
        self.record(tick=tick, fault="slow_client", applied=applied, stall_seconds=stall)


FAULT_PLANS: dict[str, Callable[..., FaultPlan]] = {}


def register_fault_plan(name: str, factory: Callable[..., FaultPlan], replace: bool = False) -> None:
    """Register a fault plan factory under ``name`` (one call per new plan)."""
    if name in FAULT_PLANS and not replace:
        raise ValueError(f"fault plan {name!r} is already registered (pass replace=True)")
    FAULT_PLANS[name] = factory


def create_fault_plan(name: str, **options) -> FaultPlan:
    """Instantiate a registered fault plan with ``options``."""
    try:
        factory = FAULT_PLANS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown fault plan {name!r}; expected one of {fault_plan_names()}"
        ) from exc
    return factory(**options)


def fault_plan_names() -> tuple[str, ...]:
    """Registered fault plan names, registration order."""
    return tuple(FAULT_PLANS)


register_fault_plan("none", FaultPlan)
register_fault_plan("wire_chaos", WireChaosPlan)
register_fault_plan("shard_crash", ShardCrashPlan)
register_fault_plan("cache_thrash", CacheThrashPlan)
register_fault_plan("snapshot_chaos", SnapshotChaosPlan)
register_fault_plan("conn_churn", ConnChurnPlan)
register_fault_plan("slow_client", SlowClientPlan)
