"""Workload specifications and their compilation to deterministic event traces.

A :class:`WorkloadSpec` is a complete, JSON-serializable description of a
simulated serving workload: which task and scheme the gateway serves, how it
is sharded, and one or more user **fleets** — each fleet naming how many
virtual users it contains, which target scenarios they play, what drift their
streams carry (reusing the :mod:`repro.data.drift` generators), and the
arrival process (steady, Poisson, or bursty) that schedules their requests on
the virtual clock.

:func:`compile_trace` turns a spec into a :class:`WorkloadTrace`: for every
virtual tick, an ordered list of :class:`TraceEvent`\\ s whose payload is the
*wire line* (the same JSON-lines form ``repro serve`` reads), so the
simulator drives the stack through the real request codec.  Compilation is a
pure function of the spec — every random draw comes from generators seeded
from ``(spec.seed, fleet, user)`` — which is what makes the whole simulation
replayable: same spec + seed, same trace, same transcript, byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..data.base import AdaptationTask
from ..data.drift import DRIFT_KINDS, make_drift_stream
from ..runtime.serialization import to_jsonable

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalSpec",
    "FleetSpec",
    "WorkloadSpec",
    "TraceEvent",
    "WorkloadTrace",
    "compile_trace",
    "load_spec",
]

ARRIVAL_KINDS = ("every", "poisson", "bursty")


@dataclass(frozen=True)
class ArrivalSpec:
    """When a fleet's users emit stream batches on the virtual clock.

    Attributes
    ----------
    kind:
        ``"every"`` — one batch every ``every`` ticks, staggered per user;
        ``"poisson"`` — a Poisson(``rate``) number of batches per tick
        (capped at 3 so one tick cannot swallow a whole stream);
        ``"bursty"`` — a Bernoulli(``rate``) trickle, plus a synchronized
        fleet-wide burst of ``burst_size`` batches every ``burst_every``
        ticks (the whole fleet bursts together — that is the point).
    """

    kind: str = "every"
    every: int = 1
    rate: float = 0.6
    burst_every: int = 4
    burst_size: int = 3

    def validate(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"arrival kind must be one of {ARRIVAL_KINDS}, got {self.kind!r}"
            )
        if self.every < 1:
            raise ValueError("arrival.every must be at least 1")
        if not 0.0 <= self.rate <= 1.0 and self.kind == "bursty":
            raise ValueError("arrival.rate must be in [0, 1] for bursty arrivals")
        if self.rate < 0.0:
            raise ValueError("arrival.rate must be non-negative")
        if self.burst_every < 1:
            raise ValueError("arrival.burst_every must be at least 1")
        if self.burst_size < 1:
            raise ValueError("arrival.burst_size must be at least 1")

    def counts(self, n_ticks: int, user_index: int, rng: np.random.Generator) -> list[int]:
        """Stream batches this user emits at every tick (length ``n_ticks``)."""
        if self.kind == "every":
            return [1 if (tick + user_index) % self.every == 0 else 0 for tick in range(n_ticks)]
        if self.kind == "poisson":
            return [int(min(3, rng.poisson(self.rate))) for _ in range(n_ticks)]
        counts = [1 if rng.random() < self.rate else 0 for tick in range(n_ticks)]
        for tick in range(n_ticks):
            if (tick + 1) % self.burst_every == 0:
                counts[tick] += self.burst_size
        return counts


@dataclass(frozen=True)
class FleetSpec:
    """One group of virtual users sharing a drift regime and arrival process.

    Attributes
    ----------
    name:
        Prefix of the fleet's user ids (``"{name}-{index:02d}"``).
    n_users:
        Number of virtual users.
    scenarios:
        Target-scenario names the users cycle through (``None``: every
        scenario of the task, in task order).
    drift, batch_size, drift_point, cycle, noise_scale:
        Forwarded to :func:`repro.data.drift.make_drift_stream`; each user
        gets an independent, per-user-seeded stream.
    arrival:
        The :class:`ArrivalSpec` scheduling stream batches.
    adapt_at:
        Optional tick at which each user submits an explicit
        :class:`~repro.serve.AdaptRequest` with its scenario's adaptation
        block (exercises the batch-adaptation request kind).
    predict_every:
        Ticks between prediction probes per user (0: never).  Probes sample
        ``predict_rows`` rows from the scenario's own inputs.
    predict_duplicates:
        Extra byte-identical copies of every probe — duplicate-target burst
        traffic that must coalesce through the dedup tier.
    strict_predict:
        Send probes with ``strict=true`` (missing adapted models then come
        back as typed error envelopes instead of source fallbacks).
    report_every:
        Ticks between per-user report requests (0: never).
    """

    name: str = "fleet"
    n_users: int = 2
    scenarios: tuple[str, ...] | None = None
    drift: str = "gradual"
    batch_size: int = 12
    drift_point: float = 0.5
    cycle: int | None = None
    noise_scale: float = 2.0
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    adapt_at: int | None = None
    predict_every: int = 2
    predict_rows: int = 4
    predict_duplicates: int = 1
    strict_predict: bool = False
    report_every: int = 0

    def validate(self) -> None:
        if not self.name:
            raise ValueError("fleet name must be non-empty")
        if self.n_users < 1:
            raise ValueError("fleet n_users must be at least 1")
        if self.drift not in DRIFT_KINDS:
            raise ValueError(
                f"fleet drift must be one of {DRIFT_KINDS}, got {self.drift!r}"
            )
        if self.batch_size < 1:
            raise ValueError("fleet batch_size must be at least 1")
        if self.predict_every < 0 or self.report_every < 0:
            raise ValueError("predict_every/report_every must be non-negative")
        if self.predict_rows < 1:
            raise ValueError("fleet predict_rows must be at least 1")
        if self.predict_duplicates < 0:
            raise ValueError("fleet predict_duplicates must be non-negative")
        self.arrival.validate()


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything a reproducible serving simulation needs, in one record.

    The gateway side (task, scheme, shards, service thresholds) mirrors the
    ``repro serve`` CLI; the workload side is the fleet list.  The spec is
    the *only* input of a simulation besides the seed — a spec plus a seed
    pins the full event trace and, through the deterministic serving stack,
    the full envelope transcript.

    ``train_batching`` mirrors the gateway knob of the same name: values
    above 1 stack up to that many same-tick adaptation requests into one
    batched training pass per shard.  Only the lower bound is checked here;
    scheme/model stackability is validated when the gateway is built, so an
    incompatible combination fails before the first tick runs.

    ``snapshots`` turns on the warm snapshot tier under every shard's LRU
    cache: evicted adapted models spill to ``repro.snapshot/v1`` files and
    warm-resume on the next touch.  The spec stays a pure value — it only
    says *whether* the tier exists; the simulator backs it with a fresh
    private temporary directory per gateway build, so replay verification
    always starts from an empty store and stays byte-exact.
    """

    task: str = "housing"
    scheme: str = "tasfar"
    scale: str = "tiny"
    seed: int = 0
    n_ticks: int = 8
    tick_seconds: float = 1.0
    n_shards: int = 2
    shard_workers: int = 2
    executor: str = "thread"
    train_batching: int = 1
    snapshots: bool = False
    max_cached_models: int | None = None
    min_adapt_events: int = 24
    readapt_budget: int = 64
    warm_epochs: int | None = None
    drift_threshold: float = 0.10
    config_overrides: Mapping = field(default_factory=dict)
    fleets: tuple[FleetSpec, ...] = (FleetSpec(),)
    fault_plan: str = "none"
    fault_options: Mapping = field(default_factory=dict)
    verify_coalescing: bool = True
    final_report: bool = True

    # ------------------------------------------------------------------
    # Validation / derived values
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the spec against the live registries; raise ``ValueError``."""
        import dataclasses as _dataclasses

        from ..core.config import TasfarConfig
        from ..data.tasks import SCALES, task_names
        from ..engine.registry import strategy_names
        from .faults import fault_plan_names

        if self.task not in task_names():
            raise ValueError(
                f"unknown task {self.task!r}; expected one of {task_names()}"
            )
        if self.scheme not in strategy_names():
            raise ValueError(
                f"unknown scheme {self.scheme!r}; expected one of {strategy_names()}"
            )
        if self.scale not in SCALES:
            raise ValueError(
                f"unknown scale {self.scale!r}; expected one of {tuple(SCALES)}"
            )
        config_fields = {f.name for f in _dataclasses.fields(TasfarConfig)}
        unknown_overrides = set(self.config_overrides) - config_fields
        if unknown_overrides:
            raise ValueError(
                f"unknown config_overrides key(s) {sorted(unknown_overrides)}; "
                f"expected a subset of {sorted(config_fields)}"
            )
        if self.fault_plan not in fault_plan_names():
            raise ValueError(
                f"unknown fault plan {self.fault_plan!r}; "
                f"expected one of {fault_plan_names()}"
            )
        if self.n_ticks < 1:
            raise ValueError("n_ticks must be at least 1")
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")
        if self.n_shards < 1 or self.shard_workers < 1:
            raise ValueError("n_shards and shard_workers must be at least 1")
        if self.executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {self.executor!r}"
            )
        if self.train_batching < 1:
            raise ValueError("train_batching must be at least 1")
        if self.max_cached_models is not None and self.max_cached_models < 1:
            raise ValueError("max_cached_models must be at least 1")
        if self.min_adapt_events < 1 or self.readapt_budget < 1:
            raise ValueError("min_adapt_events and readapt_budget must be at least 1")
        if self.warm_epochs is not None and self.warm_epochs < 1:
            raise ValueError("warm_epochs must be at least 1")
        if not self.fleets:
            raise ValueError("spec needs at least one fleet")
        for fleet in self.fleets:
            fleet.validate()
        names = [fleet.name for fleet in self.fleets]
        if len(set(names)) != len(names):
            raise ValueError(f"fleet names must be unique, got {names}")

    @property
    def n_users(self) -> int:
        """Total virtual users across all fleets."""
        return sum(fleet.n_users for fleet in self.fleets)

    def cache_capacity(self) -> int:
        """Per-shard LRU capacity: explicit, or the whole fleet (see caveat)."""
        if self.max_cached_models is not None:
            return self.max_cached_models
        return max(1, self.n_users)

    # ------------------------------------------------------------------
    # (De)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-builtins form, loadable back via :meth:`from_dict`."""
        return to_jsonable(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, payload: Mapping) -> "WorkloadSpec":
        """Build and validate a spec from a JSON-style dictionary.

        Unknown keys raise :class:`ValueError` so a typo in a spec file
        fails loudly instead of silently running the default workload.
        """
        data = dict(_require_mapping(payload, "spec"))
        fleets = data.pop("fleets", None)
        spec_kwargs = _check_fields(cls, data, "spec")
        if fleets is not None:
            if not isinstance(fleets, (list, tuple)):
                raise ValueError("spec 'fleets' must be a list of fleet objects")
            spec_kwargs["fleets"] = tuple(_fleet_from_dict(item) for item in fleets)
        spec = cls(**spec_kwargs)
        spec.validate()
        return spec

    def replace(self, **changes) -> "WorkloadSpec":
        """A validated copy with ``changes`` applied (CLI overrides)."""
        spec = dataclasses.replace(self, **changes)
        spec.validate()
        return spec


def _require_mapping(payload: object, name: str) -> Mapping:
    if not isinstance(payload, Mapping):
        raise ValueError(f"{name} must be a JSON object, got {type(payload).__name__}")
    return payload


def _check_fields(cls, data: dict, name: str) -> dict:
    """Reject unknown keys, coerce list-valued tuple fields."""
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {name} field(s) {sorted(unknown)}; expected a subset of {sorted(known)}"
        )
    return data


def _fleet_from_dict(payload: Mapping) -> FleetSpec:
    data = dict(_require_mapping(payload, "fleet"))
    arrival = data.pop("arrival", None)
    kwargs = _check_fields(FleetSpec, data, "fleet")
    if kwargs.get("scenarios") is not None:
        kwargs["scenarios"] = tuple(str(name) for name in kwargs["scenarios"])
    if arrival is not None:
        arrival_kwargs = _check_fields(ArrivalSpec, dict(_require_mapping(arrival, "arrival")), "arrival")
        kwargs["arrival"] = ArrivalSpec(**arrival_kwargs)
    return FleetSpec(**kwargs)


def load_spec(path: str) -> WorkloadSpec:
    """Load and validate a :class:`WorkloadSpec` from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"spec file {path!r} is not valid JSON: {exc}") from exc
    return WorkloadSpec.from_dict(payload)


# ----------------------------------------------------------------------
# Trace compilation
# ----------------------------------------------------------------------
@dataclass
class TraceEvent:
    """One scheduled wire line of the simulated workload.

    ``line`` is exactly what a ``repro serve`` client would write on stdin;
    fault plans may rewrite it (or replace it with junk).  ``note`` records
    the fault provenance (``"duplicate"``, ``"junk"``, ``"corrupt"``) for
    the invariant report; it never reaches the serving stack.
    """

    tick: int
    seq: int
    kind: str
    user: str | None
    line: str
    note: str | None = None


@dataclass
class WorkloadTrace:
    """The compiled workload: per-tick ordered wire lines plus provenance."""

    spec: WorkloadSpec
    users: dict[str, str]  #: user id -> scenario name
    ticks: list[list[TraceEvent]]

    @property
    def n_events(self) -> int:
        """Total wire lines across all ticks."""
        return sum(len(events) for events in self.ticks)

    def resequence(self) -> None:
        """Reassign ``tick``/``seq`` after fault plans mutate the tick lists."""
        for tick, events in enumerate(self.ticks):
            for seq, event in enumerate(events):
                event.tick = tick
                event.seq = seq


def _user_rng(spec: WorkloadSpec, fleet_index: int, user_index: int, purpose: int):
    """A generator seeded purely by ``(seed, fleet, user, purpose)``."""
    return np.random.default_rng(
        [int(spec.seed) % (2**31), 0x51D, fleet_index, user_index, purpose]
    )


def _stream_seed(spec: WorkloadSpec, fleet_index: int, user_index: int) -> int:
    """Integer seed for a user's drift stream (mutually independent users)."""
    return (int(spec.seed) * 1_000_003 + fleet_index * 1_009 + user_index * 7) % (2**31)


def _wire(payload: dict) -> str:
    """One JSON wire line, the exact form ``repro serve`` reads."""
    return json.dumps(to_jsonable(payload))


def compile_trace(spec: WorkloadSpec, task: AdaptationTask | None = None) -> WorkloadTrace:
    """Compile a spec into its deterministic per-tick event trace.

    ``task`` defaults to the registry bundle named by the spec; the
    simulator passes the task of the gateway it built so the trace and the
    serving side always agree on scenarios and feature widths.
    """
    spec.validate()
    if task is None:
        from ..experiments import get_bundle

        task = get_bundle(spec.task, spec.scale, spec.seed).task

    scenario_by_name = {scenario.name: scenario for scenario in task.scenarios}
    users: dict[str, str] = {}
    ticks: list[list[TraceEvent]] = [[] for _ in range(spec.n_ticks)]

    for fleet_index, fleet in enumerate(spec.fleets):
        names = (
            list(fleet.scenarios)
            if fleet.scenarios is not None
            else [scenario.name for scenario in task.scenarios]
        )
        unknown = [name for name in names if name not in scenario_by_name]
        if unknown:
            raise ValueError(
                f"fleet {fleet.name!r} names unknown scenario(s) {unknown}; "
                f"task {task.name!r} has {sorted(scenario_by_name)}"
            )
        for user_index in range(fleet.n_users):
            user_id = f"{fleet.name}-{user_index:02d}"
            scenario = scenario_by_name[names[user_index % len(names)]]
            users[user_id] = scenario.name

            arrival_rng = _user_rng(spec, fleet_index, user_index, purpose=1)
            probe_rng = _user_rng(spec, fleet_index, user_index, purpose=2)
            counts = fleet.arrival.counts(spec.n_ticks, user_index, arrival_rng)
            total_batches = sum(counts)
            stream = (
                make_drift_stream(
                    scenario,
                    kind=fleet.drift,
                    n_steps=total_batches,
                    batch_size=fleet.batch_size,
                    drift_point=fleet.drift_point,
                    cycle=fleet.cycle,
                    noise_scale=fleet.noise_scale,
                    seed=_stream_seed(spec, fleet_index, user_index),
                )
                if total_batches
                else None
            )

            consumed = 0
            for tick in range(spec.n_ticks):
                events = ticks[tick]
                if fleet.adapt_at is not None and tick == fleet.adapt_at:
                    events.append(
                        TraceEvent(
                            tick,
                            0,
                            "adapt",
                            user_id,
                            _wire(
                                {
                                    "kind": "adapt",
                                    "target_id": user_id,
                                    "inputs": scenario.adaptation.inputs,
                                }
                            ),
                        )
                    )
                for _ in range(counts[tick]):
                    batch = stream.batches[consumed]
                    consumed += 1
                    events.append(
                        TraceEvent(
                            tick,
                            0,
                            "stream",
                            user_id,
                            _wire(
                                {
                                    "kind": "stream",
                                    "target_id": user_id,
                                    "batch": batch.inputs,
                                }
                            ),
                        )
                    )
                if fleet.predict_every and (tick + user_index) % fleet.predict_every == 0:
                    pool = scenario.adaptation.inputs
                    rows = probe_rng.choice(len(pool), size=fleet.predict_rows, replace=True)
                    line = _wire(
                        {
                            "kind": "predict",
                            "target_id": user_id,
                            "inputs": pool[rows],
                            "strict": fleet.strict_predict,
                        }
                    )
                    for _ in range(1 + fleet.predict_duplicates):
                        events.append(TraceEvent(tick, 0, "predict", user_id, line))
                if fleet.report_every and tick % fleet.report_every == 0:
                    events.append(
                        TraceEvent(
                            tick,
                            0,
                            "report",
                            user_id,
                            _wire({"kind": "report", "target_id": user_id}),
                        )
                    )

    if spec.final_report:
        ticks[-1].append(
            TraceEvent(spec.n_ticks - 1, 0, "report", None, _wire({"kind": "report"}))
        )

    trace = WorkloadTrace(spec=spec, users=users, ticks=ticks)
    trace.resequence()
    return trace
