"""Command-line interface for running the reproduction experiments.

Examples
--------
List the available experiments::

    python -m repro.cli list

Run one experiment at the small (test) scale::

    python -m repro.cli run fig14_ste_reduction_seen --scale small

Run every experiment on four worker processes, persisting results so an
interrupted run can pick up where it left off::

    python -m repro.cli run-all --scale small --jobs 4 \
        --results-dir results --resume --output results.txt

Adapt every target scenario of a task through the multi-target
:class:`~repro.runtime.AdaptationService` (four worker threads, JSON report)::

    python -m repro.cli adapt-many --task pdr --scale small --jobs 4 \
        --report adaptation_reports.json

Serve any scheme from the strategy registry — not just TASFAR — through the
same service::

    python -m repro.cli adapt-many --task housing --scheme mmd --jobs 4

Replay a suddenly drifting stream for every PDR user through the streaming
service (online density maps, drift detection, warm re-adaptation)::

    python -m repro.cli stream --task pdr --drift sudden --steps 12 \
        --events stream_events.json

Serve the whole system over a JSON-lines pipe — one request per stdin line,
one versioned envelope per stdout line (see :mod:`repro.serve`)::

    printf '%s\n' \
        '{"kind": "adapt", "target_id": "u1", "inputs": [[0.1, 0.2]]}' \
        '{"kind": "report", "target_id": "u1"}' \
      | python -m repro.cli serve --task housing --scale tiny --shards 2

Replay a seeded, fault-injected workload through the whole stack and check
the system invariants (envelope transcript on stdout — byte-identical on
every rerun — summary and invariant verdict on stderr)::

    python -m repro.cli simulate --spec examples/specs/bursty_drift.json \
        --seed 7 --fault-plan wire_chaos --verify-replay > transcript.jsonl

Render a metrics snapshot (written by any ``--metrics-out`` flag) as
Prometheus text exposition, validating it against ``repro.metrics/v1``::

    python -m repro.cli simulate --spec examples/specs/bursty_drift.json \
        --metrics-out metrics.json > /dev/null
    python -m repro.cli metrics metrics.json --format prom

``adapt-many``, ``stream`` and ``serve`` are all thin clients of the
:class:`~repro.serve.Gateway`, and ``simulate`` drives the same gateway from
a :class:`~repro.sim.WorkloadSpec`; the ``--task`` choices (the
:class:`~repro.data.TaskSpec` registry), ``--scheme`` choices (the strategy
registry) and ``--fault-plan`` choices (the fault-plan registry) are all
extensible: registering a new task, scheme, or fault plan makes it available
here without touching this module.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from .experiments import SCALES, list_experiments, run_experiment

__all__ = ["main", "build_parser"]


def _executor_argument() -> dict:
    """Shared ``--executor`` definition for the gateway-fronted subcommands."""
    return dict(
        choices=("thread", "process"),
        default="thread",
        help=(
            "shard worker executor: 'process' runs adaptations in worker "
            "processes on real cores (source weights shipped once per worker, "
            "results bit-identical to 'thread')"
        ),
    )


def _train_batching_argument() -> dict:
    """Shared ``--train-batching`` definition for the gateway subcommands."""
    return dict(
        type=int,
        default=1,
        metavar="K",
        help=(
            "stack up to K concurrent adaptations into one batched training "
            "pass per shard (bit-identical to serial; requires a scheme and "
            "model with a stacked training path, rejected otherwise)"
        ),
    )


def _snapshot_dir_argument() -> dict:
    """Shared ``--snapshot-dir`` definition for the gateway subcommands."""
    return dict(
        default=None,
        metavar="DIR",
        help=(
            "warm snapshot tier: spill evicted adapted models (weights, "
            "report, streaming drift state) to repro.snapshot/v1 files under "
            "this directory (per-shard subdirectories) and warm-resume them "
            "on the next touch instead of cold-adapting"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the CLI."""
    from .data.drift import DRIFT_KINDS
    from .data.tasks import task_names
    from .engine.registry import strategy_names

    adapt_tasks = task_names()
    schemes = strategy_names()

    parser = argparse.ArgumentParser(
        prog="tasfar-repro",
        description="Reproduction experiments for TASFAR (ICDE 2024)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiment ids")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment id (see `list`)")
    run_parser.add_argument("--scale", default="small", choices=tuple(SCALES))
    run_parser.add_argument("--seed", type=int, default=0)

    run_all_parser = subparsers.add_parser("run-all", help="run every experiment")
    run_all_parser.add_argument("--scale", default="small", choices=tuple(SCALES))
    run_all_parser.add_argument("--seed", type=int, default=0)
    run_all_parser.add_argument("--output", default=None, help="optional path for a text report")
    run_all_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for parallel experiment execution (default: 1, serial)",
    )
    run_all_parser.add_argument(
        "--results-dir",
        default=None,
        help="persist each experiment result as JSON under this directory",
    )
    run_all_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip experiments already stored in --results-dir",
    )
    run_all_parser.add_argument(
        "--only",
        nargs="+",
        default=None,
        metavar="EXPERIMENT",
        help="restrict the run to these experiment ids",
    )

    adapt_parser = subparsers.add_parser(
        "adapt-many",
        help="adapt every target scenario of a task through the AdaptationService",
    )
    adapt_parser.add_argument("--task", default="pdr", choices=adapt_tasks)
    adapt_parser.add_argument("--scale", default="small", choices=tuple(SCALES))
    adapt_parser.add_argument("--seed", type=int, default=0)
    adapt_parser.add_argument(
        "--scheme",
        default="tasfar",
        choices=schemes,
        help="adaptation scheme served by the service (strategy registry)",
    )
    adapt_parser.add_argument(
        "--jobs", type=int, default=1, help="workers per gateway shard"
    )
    adapt_parser.add_argument("--executor", **_executor_argument())
    adapt_parser.add_argument("--train-batching", **_train_batching_argument())
    adapt_parser.add_argument(
        "--shards", type=int, default=1, help="gateway service shards (rendezvous-placed targets)"
    )
    adapt_parser.add_argument(
        "--targets",
        nargs="+",
        default=None,
        metavar="SCENARIO",
        help="restrict adaptation to these scenario names (default: all)",
    )
    adapt_parser.add_argument(
        "--max-cached",
        type=int,
        default=None,
        help=(
            "LRU capacity for adapted models held in memory "
            "(default: the number of selected targets, so every target's "
            "adapted model survives until evaluation)"
        ),
    )
    adapt_parser.add_argument("--snapshot-dir", **_snapshot_dir_argument())
    adapt_parser.add_argument(
        "--report", default=None, help="optional path for a JSON file with per-target reports"
    )

    stream_parser = subparsers.add_parser(
        "stream",
        help="replay non-stationary per-target streams through the StreamingAdaptationService",
    )
    stream_parser.add_argument("--task", default="pdr", choices=adapt_tasks)
    stream_parser.add_argument("--scale", default="small", choices=tuple(SCALES))
    stream_parser.add_argument("--seed", type=int, default=0)
    stream_parser.add_argument(
        "--scheme",
        default="tasfar",
        choices=schemes,
        help="adaptation scheme re-adapted on drift (strategy registry)",
    )
    stream_parser.add_argument(
        "--drift",
        default="sudden",
        choices=DRIFT_KINDS,
        help="drift kind injected into every target's stream",
    )
    stream_parser.add_argument("--steps", type=int, default=12, help="batches per target stream")
    stream_parser.add_argument("--batch-size", type=int, default=16, help="events per batch")
    stream_parser.add_argument(
        "--min-adapt",
        type=int,
        default=32,
        help="buffered events before a target's first (cold) adaptation",
    )
    stream_parser.add_argument(
        "--budget",
        type=int,
        default=96,
        help="buffered events that force a re-adaptation even without drift",
    )
    stream_parser.add_argument(
        "--warm-epochs",
        type=int,
        default=None,
        help="fine-tuning epochs for warm re-adaptations (default: a quarter of the cold budget)",
    )
    stream_parser.add_argument(
        "--drift-threshold",
        type=float,
        default=0.10,
        help="Page-Hinkley alarm threshold on the density divergence",
    )
    stream_parser.add_argument(
        "--jobs", type=int, default=1, help="workers per gateway shard"
    )
    stream_parser.add_argument("--executor", **_executor_argument())
    stream_parser.add_argument("--train-batching", **_train_batching_argument())
    stream_parser.add_argument(
        "--shards", type=int, default=1, help="gateway service shards (rendezvous-placed targets)"
    )
    stream_parser.add_argument(
        "--targets",
        nargs="+",
        default=None,
        metavar="SCENARIO",
        help="restrict streaming to these scenario names (default: all)",
    )
    stream_parser.add_argument("--snapshot-dir", **_snapshot_dir_argument())
    stream_parser.add_argument(
        "--events",
        default=None,
        help="optional path for a JSON file with the per-user event tables",
    )
    stream_parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the fleet metrics snapshot (repro.metrics/v1 JSON) to this file",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve adapt/predict/stream/report/metrics requests as JSON lines (stdin -> stdout)",
    )
    serve_parser.add_argument("--task", default="pdr", choices=adapt_tasks)
    serve_parser.add_argument("--scale", default="small", choices=tuple(SCALES))
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--scheme",
        default="tasfar",
        choices=schemes,
        help="adaptation scheme served by the gateway (strategy registry)",
    )
    serve_parser.add_argument(
        "--shards", type=int, default=1, help="gateway service shards"
    )
    serve_parser.add_argument(
        "--shard-workers", type=int, default=4, help="workers per shard"
    )
    serve_parser.add_argument("--executor", **_executor_argument())
    serve_parser.add_argument("--train-batching", **_train_batching_argument())
    serve_parser.add_argument(
        "--max-cached",
        type=int,
        default=8,
        help="LRU capacity for adapted models, per shard",
    )
    serve_parser.add_argument(
        "--min-adapt",
        type=int,
        default=32,
        help="buffered stream events before a target's first (cold) adaptation",
    )
    serve_parser.add_argument(
        "--budget",
        type=int,
        default=128,
        help="buffered stream events that force a re-adaptation even without drift",
    )
    serve_parser.add_argument("--snapshot-dir", **_snapshot_dir_argument())
    serve_parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the fleet metrics snapshot (repro.metrics/v1 JSON) to this file at shutdown",
    )
    serve_parser.add_argument(
        "--trace",
        default=None,
        help="record per-request spans and write them as JSON lines to this file at shutdown",
    )
    serve_parser.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help=(
            "serve over TCP instead of stdin/stdout: concurrent connections, "
            "per-connection ordering, bounded queues (port 0 picks a free port)"
        ),
    )
    serve_parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help=(
            "client mode: forward stdin JSON lines to a --listen server and "
            "print its envelopes (no local gateway)"
        ),
    )
    serve_parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help=(
            "per-connection admission bound under --listen; past it requests "
            "are answered with typed 'overloaded' error envelopes"
        ),
    )
    serve_parser.add_argument(
        "--node",
        default=None,
        help=(
            "cluster node name: stamped as a node= label on the transport's "
            "net.* metrics (set by 'repro cluster')"
        ),
    )
    serve_parser.add_argument(
        "--workload-spec",
        default=None,
        metavar="SPEC.json",
        help=(
            "build the gateway from a WorkloadSpec JSON file instead of the "
            "--task/--scale/... flags (what 'repro simulate --connect' "
            "expects on the other end)"
        ),
    )

    cluster_parser = subparsers.add_parser(
        "cluster",
        help=(
            "supervise a multi-process cluster of TCP gateway nodes described "
            "by a repro.cluster/v1 JSON map (one 'serve --listen' process per "
            "node; SIGINT/SIGTERM drains them all)"
        ),
    )
    cluster_parser.add_argument(
        "--spec", required=True, help="path to a repro.cluster/v1 cluster map JSON file"
    )
    cluster_parser.add_argument(
        "--placement",
        nargs="+",
        default=None,
        metavar="TARGET",
        help=(
            "print the rendezvous node placement for these target ids and "
            "exit without starting any process"
        ),
    )

    simulate_parser = subparsers.add_parser(
        "simulate",
        help=(
            "replay a seeded workload spec through the real serving stack with "
            "fault injection and invariant checks (JSON spec in, canonical "
            "envelope transcript + invariant report out)"
        ),
    )
    simulate_parser.add_argument(
        "--spec", required=True, help="path to a WorkloadSpec JSON file"
    )
    simulate_parser.add_argument(
        "--seed", type=int, default=None, help="override the spec's seed"
    )
    simulate_parser.add_argument(
        "--task", default=None, choices=adapt_tasks, help="override the spec's task"
    )
    simulate_parser.add_argument(
        "--scheme", default=None, choices=schemes, help="override the spec's scheme"
    )
    simulate_parser.add_argument(
        "--fault-plan", default=None, help="override the spec's fault plan (see repro.sim)"
    )
    simulate_parser.add_argument(
        "--executor",
        default=None,
        choices=("thread", "process"),
        help="override the spec's shard executor (process = adaptations in worker processes)",
    )
    simulate_parser.add_argument(
        "--train-batching",
        type=int,
        default=None,
        metavar="K",
        help="override the spec's train_batching (stacked adaptation width per shard)",
    )
    simulate_parser.add_argument(
        "--ticks", type=int, default=None, help="override the spec's virtual tick count"
    )
    simulate_parser.add_argument(
        "--transcript",
        default=None,
        help=(
            "write the canonical envelope transcript to this file "
            "(default: stdout, one JSON line per request)"
        ),
    )
    simulate_parser.add_argument(
        "--report",
        default=None,
        help="write the JSON invariant report to this file (default: summary on stderr only)",
    )
    simulate_parser.add_argument(
        "--verify-replay",
        action="store_true",
        help=(
            "run the workload twice and assert the transcripts are "
            "byte-identical (with --connect: once over TCP and once "
            "in-process, same assertion)"
        ),
    )
    simulate_parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help=(
            "drive a freshly started 'serve --listen' server speaking this "
            "spec (serve --workload-spec) instead of an in-process gateway; "
            "every request crosses the socket"
        ),
    )
    simulate_parser.add_argument(
        "--snapshot-dir",
        default=None,
        metavar="DIR",
        help=(
            "enable the warm snapshot tier (sets snapshots=true on the spec) "
            "and spill under this directory for a plain run; under "
            "--verify-replay each leg instead uses a fresh private temporary "
            "store, so both transcripts start from an empty tier and stay "
            "byte-comparable"
        ),
    )
    simulate_parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the end-of-run fleet metrics snapshot (repro.metrics/v1 JSON) to this file",
    )
    simulate_parser.add_argument(
        "--trace",
        default=None,
        help=(
            "record per-request spans (first run only under --verify-replay) "
            "and write them as JSON lines to this file"
        ),
    )

    metrics_parser = subparsers.add_parser(
        "metrics",
        help="validate a repro.metrics/v1 snapshot file and render it (json or prometheus)",
    )
    metrics_parser.add_argument(
        "snapshot",
        help=(
            "path to a snapshot JSON file — any --metrics-out output, or a "
            "simulate --report file (the snapshot is read from its 'metrics' key)"
        ),
    )
    metrics_parser.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="output format: Prometheus text exposition (default) or canonical JSON",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for experiment_id in list_experiments():
            print(experiment_id)
        return 0

    if args.command == "run":
        result = run_experiment(args.experiment, scale=args.scale, seed=args.seed)
        print(result.summary())
        return 0

    if args.command == "run-all":
        return _run_all(parser, args)

    if args.command == "adapt-many":
        return _adapt_many(parser, args)

    if args.command == "stream":
        return _stream(parser, args)

    if args.command == "serve":
        return _serve(parser, args)

    if args.command == "cluster":
        return _cluster(parser, args)

    if args.command == "simulate":
        return _simulate(parser, args)

    if args.command == "metrics":
        return _metrics(parser, args)

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 1


def _run_all(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Run (a subset of) the experiments, optionally in parallel and resumable."""
    from .runtime import ResultStore

    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.resume and args.results_dir is None:
        parser.error("--resume requires --results-dir")

    known = list_experiments()
    if args.only:
        unknown = [experiment_id for experiment_id in args.only if experiment_id not in known]
        if unknown:
            parser.error(f"unknown experiment ids: {', '.join(unknown)}")
        experiment_ids = list(args.only)
    else:
        experiment_ids = known

    store = ResultStore(args.results_dir) if args.results_dir else None
    results = {}
    to_run = []
    for experiment_id in experiment_ids:
        if args.resume and store is not None and store.has(experiment_id, args.scale, args.seed):
            results[experiment_id] = store.load(experiment_id, args.scale, args.seed)
            print(f"[resumed] {experiment_id}")
        else:
            to_run.append(experiment_id)

    if args.jobs > 1 and len(to_run) > 1:
        # Experiments are deterministic in (id, scale, seed), so process
        # workers give bitwise the same results as a serial run.  Processes
        # (not threads) because experiments mutate their models in place.
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = {
                experiment_id: pool.submit(
                    run_experiment, experiment_id, scale=args.scale, seed=args.seed
                )
                for experiment_id in to_run
            }
            for experiment_id in to_run:
                results[experiment_id] = futures[experiment_id].result()
    else:
        for experiment_id in to_run:
            results[experiment_id] = run_experiment(experiment_id, scale=args.scale, seed=args.seed)

    freshly_run = set(to_run)
    sections = []
    for experiment_id in experiment_ids:
        result = results[experiment_id]
        if store is not None and experiment_id in freshly_run:
            store.save(result, args.scale, args.seed)
        sections.append(result.summary())
        print(result.summary())
        print()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(sections) + "\n")
    return 0


def _select_scenarios(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """Build the task bundle and resolve the ``--targets`` scenario selection.

    Shared by ``adapt-many`` and ``stream``; returns ``(bundle, selected)``
    with ``selected`` keyed by scenario name in task order (or ``--targets``
    order when given).
    """
    from .experiments import get_bundle

    bundle = get_bundle(args.task, args.scale, args.seed)
    scenarios = {scenario.name: scenario for scenario in bundle.task.scenarios}
    if args.targets:
        unknown = [name for name in args.targets if name not in scenarios]
        if unknown:
            parser.error(f"unknown scenarios: {', '.join(unknown)}")
        return bundle, {name: scenarios[name] for name in args.targets}
    return bundle, scenarios


def _adapt_many(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Adapt the target scenarios of one task through the serving gateway."""
    from .metrics import format_table, mse
    from .serve import AdaptRequest, Gateway, PredictRequest

    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.shards < 1:
        parser.error("--shards must be at least 1")

    bundle, selected = _select_scenarios(parser, args)

    # The per-shard cache must cover the whole fleet by default: an evicted
    # target would silently be evaluated with the unadapted source model.
    max_cached = len(selected) if args.max_cached is None else max(args.max_cached, 1)
    try:
        gateway = Gateway.from_task(
            args.task,
            scheme=args.scheme,
            scale=args.scale,
            seed=args.seed,
            n_shards=args.shards,
            shard_workers=args.jobs,
            executor=args.executor,
            train_batching=args.train_batching,
            max_cached_models=max_cached,
            snapshot_dir=args.snapshot_dir,
        )
    except ValueError as exc:
        # An incompatible --train-batching (unstackable scheme or model) is a
        # usage error, not a crash: surface the gateway's message verbatim.
        parser.error(str(exc))
    adapt_envelopes = gateway.submit_many(
        [AdaptRequest(name, scenario.adaptation.inputs) for name, scenario in selected.items()]
    )
    failed = [envelope for envelope in adapt_envelopes if not envelope.ok]
    if failed:
        first = failed[0]
        parser.error(
            f"adaptation failed for {first.target_id!r}: "
            f"{first.error['type']}: {first.error['message']}"
        )
    reports = {name: gateway.report_for(name) for name in selected}

    # Post-adaptation predictions go through submit_many too, so a fleet
    # evaluation exercises the same micro-batched path a serving burst does.
    cached = [name for name in selected if gateway.model_for(name) is not None]
    predictions = {
        envelope.target_id: envelope.payload["prediction"]
        for envelope in gateway.submit_many(
            [PredictRequest(name, selected[name].adaptation.inputs) for name in cached]
        )
    }

    # The gateway never sees labels; evaluation happens here, caller-side.
    rows = []
    for name, scenario in selected.items():
        report = reports[name]
        # Record the run-level seed next to the per-target derived seed, so a
        # stored report pins the exact CLI invocation that produced it.
        report.extra["run_seed"] = int(args.seed)
        before = mse(bundle.predict(scenario.adaptation.inputs), scenario.adaptation.targets)
        report.extra["mse_before"] = float(before)
        if name not in predictions:
            # Evicted by a caller-chosen small --max-cached: don't pass off
            # source-model numbers as post-adaptation performance.
            report.extra["mse_after"] = None
            after_cell = "evicted"
        else:
            after = mse(predictions[name], scenario.adaptation.targets)
            report.extra["mse_after"] = float(after)
            after_cell = round(after, 4)
        rows.append(
            [
                name,
                report.n_samples,
                report.n_confident,
                report.n_uncertain,
                len(report.losses),
                round(before, 4),
                after_cell,
                round(report.duration_seconds, 3),
            ]
        )
    print(f"[adapt-many] task={args.task} scheme={args.scheme} seed={args.seed}")
    print(
        format_table(
            ["target", "n", "confident", "uncertain", "epochs", "mse_before", "mse_after", "secs"],
            rows,
        )
    )
    if args.report:
        payload = {name: report.to_dict() for name, report in reports.items()}
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {len(payload)} reports to {args.report}")
    gateway.close()
    return 0


def _stream(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Replay drifting per-target streams through the serving gateway."""
    from .data import make_drift_streams
    from .metrics import format_table, mse
    from .serve import Gateway, PredictRequest, StreamRequest

    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.shards < 1:
        parser.error("--shards must be at least 1")
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    if args.batch_size < 1:
        parser.error("--batch-size must be at least 1")
    if args.min_adapt < 1:
        parser.error("--min-adapt must be at least 1")
    if args.budget < 1:
        parser.error("--budget must be at least 1")
    if args.warm_epochs is not None and args.warm_epochs < 1:
        parser.error("--warm-epochs must be at least 1")
    if args.drift_threshold <= 0:
        parser.error("--drift-threshold must be positive")

    bundle, selected = _select_scenarios(parser, args)

    streams = make_drift_streams(
        bundle.task,
        kind=args.drift,
        n_steps=args.steps,
        batch_size=args.batch_size,
        seed=args.seed,
        only=list(selected),
    )
    try:
        gateway = Gateway.from_task(
            args.task,
            scheme=args.scheme,
            scale=args.scale,
            seed=args.seed,
            n_shards=args.shards,
            shard_workers=args.jobs,
            executor=args.executor,
            train_batching=args.train_batching,
            max_cached_models=len(selected),
            service_options={
                "min_adapt_events": args.min_adapt,
                "readapt_budget": args.budget,
                "warm_epochs": args.warm_epochs,
                "drift_threshold": args.drift_threshold,
            },
            snapshot_dir=args.snapshot_dir,
        )
    except ValueError as exc:
        parser.error(str(exc))

    # Interleave the streams step by step, the way a real ingest frontend
    # would see a fleet: every target contributes its batch for step t before
    # any target moves to step t+1.
    for step in range(args.steps):
        envelopes = gateway.submit_many(
            [
                StreamRequest(name, stream.batches[step].inputs)
                for name, stream in streams.items()
            ]
        )
        failed = [envelope for envelope in envelopes if not envelope.ok]
        if failed:
            first = failed[0]
            parser.error(
                f"stream ingest failed for {first.target_id!r}: "
                f"{first.error['type']}: {first.error['message']}"
            )

    # Score every adapted target in one predict burst, as adapt-many does.
    adapted = [
        name
        for name in selected
        if gateway.report_for(name) is not None and gateway.model_for(name) is not None
    ]
    predictions = {
        envelope.target_id: envelope.payload["prediction"]
        for envelope in gateway.submit_many(
            [PredictRequest(name, selected[name].test.inputs) for name in adapted]
        )
    }
    rows = []
    for name, scenario in selected.items():
        stats = gateway.stream_stats(name)
        before = mse(bundle.predict(scenario.test.inputs), scenario.test.targets)
        after_cell: object = "never adapted"
        if name in predictions:
            after_cell = round(mse(predictions[name], scenario.test.targets), 4)
        rows.append(
            [
                name,
                stats["total_events"],
                stats["cold_adaptations"],
                stats["warm_adaptations"],
                stats["buffered"],
                round(before, 4),
                after_cell,
            ]
        )
    print(
        f"[stream] task={args.task} scheme={args.scheme} drift={args.drift} "
        f"steps={args.steps} seed={args.seed}"
    )
    print(
        format_table(
            ["target", "events", "cold", "warm", "buffered", "mse_source", "mse_stream"],
            rows,
        )
    )
    if args.events:
        payload = {name: [event.to_dict() for event in gateway.events_for(name)] for name in selected}
        with open(args.events, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote event tables for {len(payload)} targets to {args.events}")
    if args.metrics_out:
        _write_metrics_snapshot(gateway.metrics_snapshot(), args.metrics_out)
    gateway.close()
    return 0


def _write_metrics_snapshot(snapshot: dict, path: str) -> None:
    """Write a ``repro.metrics/v1`` snapshot as canonical JSON and say so."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote metrics snapshot to {path}", file=sys.stderr)


def _serve(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Run the gateway loop — stdio, TCP server, or TCP client mode.

    All three modes speak the same ``repro.serve/v1`` lines; only the
    transport differs.  SIGINT/SIGTERM drain rather than kill in both
    serving modes: in-flight requests finish, their envelopes flush,
    ``--metrics-out``/``--trace`` are written, shard pools close, exit 0.
    """
    from .net import GracefulShutdown, parse_address
    from .obs import Tracer
    from .serve import Gateway, serve_loop

    if args.listen and args.connect:
        parser.error("--listen and --connect are mutually exclusive")
    if args.connect and args.workload_spec:
        parser.error("--connect is client mode; --workload-spec needs a local gateway")
    if args.connect:
        return _serve_connect(parser, args)
    if args.shards < 1:
        parser.error("--shards must be at least 1")
    if args.shard_workers < 1:
        parser.error("--shard-workers must be at least 1")
    if args.max_cached < 1:
        parser.error("--max-cached must be at least 1")
    if args.min_adapt < 1:
        parser.error("--min-adapt must be at least 1")
    if args.budget < 1:
        parser.error("--budget must be at least 1")
    if args.max_pending < 0:
        parser.error("--max-pending must be non-negative")

    tracer = Tracer() if args.trace else None
    try:
        if args.workload_spec:
            from .sim import build_gateway, load_spec

            spec = load_spec(args.workload_spec)
            gateway = build_gateway(spec, tracer=tracer, snapshot_dir=args.snapshot_dir)
            described = f"spec={args.workload_spec}"
        else:
            gateway = Gateway.from_task(
                args.task,
                scheme=args.scheme,
                scale=args.scale,
                seed=args.seed,
                n_shards=args.shards,
                shard_workers=args.shard_workers,
                executor=args.executor,
                train_batching=args.train_batching,
                max_cached_models=args.max_cached,
                service_options={
                    "min_adapt_events": args.min_adapt,
                    "readapt_budget": args.budget,
                },
                tracer=tracer,
                snapshot_dir=args.snapshot_dir,
            )
            described = (
                f"task={args.task} scheme={args.scheme} scale={args.scale} "
                f"shards={args.shards}"
            )
    except (ValueError, OSError) as exc:
        parser.error(str(exc))

    if args.listen:
        from .net import NetServer

        try:
            host, port = parse_address(args.listen)
        except ValueError as exc:
            parser.error(str(exc))
        server = NetServer(
            gateway,
            host,
            port,
            max_pending=args.max_pending,
            node=args.node,
        )

        def ready(bound_host: str, bound_port: int) -> None:
            # Startup chatter goes to stderr; the stable "listening on"
            # marker is what scripts (and the CI smoke job) wait for.
            print(
                f"[serve] listening on {bound_host}:{bound_port} {described} "
                f"max_pending={args.max_pending}"
                + (f" node={args.node}" if args.node else ""),
                file=sys.stderr,
                flush=True,
            )

        server.run(ready=ready)  # blocks until SIGINT/SIGTERM, then drains
        served = server.stats["served"]
    else:
        # Startup chatter goes to stderr: stdout carries envelopes, nothing else.
        print(
            f"[serve] ready {described} (one JSON request per line; EOF to stop)",
            file=sys.stderr,
            flush=True,
        )
        shutdown = GracefulShutdown()
        try:
            shutdown.install()
        except ValueError:
            shutdown = None  # not the main thread; EOF remains the only stop
        try:
            served = serve_loop(gateway, sys.stdin, sys.stdout, shutdown=shutdown)
        finally:
            if shutdown is not None:
                shutdown.uninstall()
    print(f"[serve] done, {served} envelope(s)", file=sys.stderr)
    if args.metrics_out:
        _write_metrics_snapshot(gateway.metrics_snapshot(), args.metrics_out)
    if tracer is not None:
        n_spans = tracer.export(args.trace)
        print(f"wrote {n_spans} trace span(s) to {args.trace}", file=sys.stderr)
    gateway.close()
    return 0


def _serve_connect(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Client mode: stdin lines → remote server → stdout envelopes."""
    from .net import NetClient, NetError, parse_address

    try:
        host, port = parse_address(args.connect)
    except ValueError as exc:
        parser.error(str(exc))
    client = NetClient(host, port)
    served = 0
    try:
        for line in sys.stdin:
            try:
                response = client.request_line(line)
            except NetError as exc:
                print(f"[serve] network error: {exc}", file=sys.stderr)
                return 1
            if response is None:
                continue
            try:
                sys.stdout.write(response + "\n")
                sys.stdout.flush()
            except BrokenPipeError:
                break
            served += 1
    finally:
        client.close()
    print(f"[serve] done, {served} envelope(s)", file=sys.stderr)
    return 0


def _cluster(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Supervise one ``serve --listen`` subprocess per cluster-map node.

    Signals forward: SIGINT/SIGTERM here becomes SIGTERM to every node,
    each node drains and exits 0, and the supervisor follows.  A node
    dying on its own takes the cluster down (deliberately — a silently
    half-sized cluster would misroute every target the dead node owned).
    """
    import signal as signal_module
    import subprocess
    import time

    from .net import ClusterRouter, load_cluster_map, node_command

    try:
        cluster_map = load_cluster_map(args.spec)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))

    if args.placement:
        router = ClusterRouter(cluster_map.names)
        for target in args.placement:
            print(f"{target}\t{router.node_for(target)}")
        return 0

    processes = []
    for node in cluster_map.nodes:
        command = node_command(cluster_map, node)
        print(
            f"[cluster] starting node {node.name} on {node.host}:{node.port}",
            file=sys.stderr,
            flush=True,
        )
        processes.append(subprocess.Popen(command))

    stopping = {"requested": False}

    def forward(signum, frame) -> None:
        stopping["requested"] = True
        for process in processes:
            if process.poll() is None:
                process.send_signal(signal_module.SIGTERM)

    previous = {
        signum: signal_module.signal(signum, forward)
        for signum in (signal_module.SIGINT, signal_module.SIGTERM)
    }
    try:
        while True:
            codes = [process.poll() for process in processes]
            if all(code is not None for code in codes):
                exit_code = 0 if all(code == 0 for code in codes) else 1
                break
            if not stopping["requested"] and any(code is not None for code in codes):
                print(
                    "[cluster] a node exited unexpectedly; draining the rest",
                    file=sys.stderr,
                    flush=True,
                )
                forward(None, None)
            time.sleep(0.1)
    finally:
        for signum, handler in previous.items():
            signal_module.signal(signum, handler)
    print(f"[cluster] all {len(processes)} node(s) exited", file=sys.stderr)
    return exit_code


def _simulate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Replay a workload spec through the stack; emit transcript + report.

    Output discipline mirrors ``serve``: the canonical envelope transcript
    is the *only* thing written to stdout (unless ``--transcript`` redirects
    it to a file), so two runs of the same spec and seed can be compared
    byte for byte with nothing but ``diff``.  The human summary and the
    invariant verdict go to stderr.  Exit status is 0 only when every
    invariant held (and, under ``--verify-replay``, the replay matched).
    """
    from .obs import Tracer
    from .sim import load_spec, run_simulation, verify_replay, verify_transport

    address = None
    if args.connect:
        from .net import parse_address

        try:
            address = parse_address(args.connect)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        spec = load_spec(args.spec)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.task is not None:
            overrides["task"] = args.task
        if args.scheme is not None:
            overrides["scheme"] = args.scheme
        if args.fault_plan is not None:
            overrides["fault_plan"] = args.fault_plan
        if args.executor is not None:
            overrides["executor"] = args.executor
        if args.train_batching is not None:
            overrides["train_batching"] = args.train_batching
        if args.ticks is not None:
            overrides["n_ticks"] = args.ticks
        if args.snapshot_dir is not None:
            overrides["snapshots"] = True
        if overrides:
            spec = spec.replace(**overrides)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))

    tracer = Tracer() if args.trace else None
    replay_ok, replay_detail = True, None
    try:
        if address is not None and args.verify_replay:
            # Transport transparency: TCP leg against the live server,
            # in-process leg from scratch, byte-compared.
            replay_ok, replay_detail, result, _ = verify_transport(
                spec, address=address, tracer=tracer
            )
        elif address is not None:
            from .net import RemoteGateway

            remote = RemoteGateway(*address, n_shards=spec.n_shards)
            try:
                result = run_simulation(spec, gateway=remote)
            finally:
                remote.close()
        elif args.verify_replay:
            # Each leg builds its own gateway with a fresh private temp
            # store — a shared --snapshot-dir would let run 1's spills warm
            # run 2 and break byte-comparability by construction.
            replay_ok, replay_detail, result = verify_replay(spec, tracer=tracer)
        elif args.snapshot_dir is not None:
            from .sim import build_gateway

            gateway = build_gateway(spec, tracer=tracer, snapshot_dir=args.snapshot_dir)
            try:
                result = run_simulation(spec, gateway=gateway)
            finally:
                gateway.close()
        else:
            result = run_simulation(spec, tracer=tracer)
    except ValueError as exc:
        # Spec errors only trace compilation can catch (e.g. a fleet naming
        # a scenario the task does not have) surface as CLI errors too.
        parser.error(str(exc))

    if args.transcript:
        with open(args.transcript, "w", encoding="utf-8") as handle:
            handle.write(result.transcript_text)
        print(f"wrote {len(result.transcript_lines)} transcript lines to {args.transcript}",
              file=sys.stderr)
    else:
        sys.stdout.write(result.transcript_text)
        sys.stdout.flush()

    print(result.summary(), file=sys.stderr)
    determinism = "transport_determinism" if args.connect else "replay_determinism"
    if args.verify_replay:
        status = "ok (byte-identical)" if replay_ok else f"FAIL\n{replay_detail}"
        print(f"  invariant {determinism}: {status}", file=sys.stderr)

    if args.report:
        report = result.to_dict()
        report["replay_determinism"] = {
            "checked": bool(args.verify_replay),
            "mode": "transport" if args.connect else "replay",
            "ok": replay_ok,
            "detail": replay_detail,
        }
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote invariant report to {args.report}", file=sys.stderr)

    if args.metrics_out:
        _write_metrics_snapshot(result.metrics or {}, args.metrics_out)
    if tracer is not None:
        n_spans = tracer.export(args.trace)
        print(f"wrote {n_spans} trace span(s) to {args.trace}", file=sys.stderr)

    return 0 if (result.ok and replay_ok) else 1


def _metrics(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Validate a metrics snapshot file and render it (Prometheus or JSON)."""
    from .obs import to_prometheus, validate_snapshot

    try:
        with open(args.snapshot, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read snapshot {args.snapshot!r}: {exc}")

    # Accept either a bare snapshot or a wrapper holding one under a
    # "metrics" key (simulate --report files, metrics-request payloads).
    if isinstance(payload, dict) and "metrics" in payload and isinstance(payload["metrics"], dict):
        payload = payload["metrics"]

    try:
        validate_snapshot(payload)
    except ValueError as exc:
        parser.error(f"invalid metrics snapshot: {exc}")

    if args.format == "prom":
        sys.stdout.write(to_prometheus(payload))
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
