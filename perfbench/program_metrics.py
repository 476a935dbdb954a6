"""Per-layer counts read from the program's own ``repro.metrics/v1`` snapshots."""

from __future__ import annotations

import collections


def _totals(snapshot: dict) -> tuple[collections.Counter, dict]:
    """Counters by ``(name, action-or-kind label)`` and histograms by name,
    summed across shards and other labels."""
    counters: collections.Counter = collections.Counter()
    for entry in snapshot.get("counters", ()):
        labels = entry["labels"]
        counters[(entry["name"], labels.get("action") or labels.get("kind"))] += entry["value"]
    histograms: dict = collections.defaultdict(lambda: [0.0, 0])
    for entry in snapshot.get("histograms", ()):
        histograms[entry["name"]][0] += entry["sum"]
        histograms[entry["name"]][1] += entry["count"]
    return counters, histograms


def counter_delta(before: dict, after: dict) -> tuple[dict, dict]:
    """Counters and histogram ``[sum, count]`` accrued between two snapshots."""
    old_counters, old_histograms = _totals(before)
    new_counters, new_histograms = _totals(after)
    counters = {key: value - old_counters.get(key, 0) for key, value in new_counters.items()}
    histograms = {
        name: (total - old_histograms[name][0], count - old_histograms[name][1])
        for name, (total, count) in new_histograms.items()
    }
    return counters, histograms


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_counts(delta: tuple[dict, dict], train_batching: int) -> dict:
    """The per-layer counts and ratios the benchmark reads from program metrics."""
    counters, histograms = delta

    def count(name: str, label: str | None = None) -> float:
        if label is not None:
            return counters.get((name, label), 0)
        return sum(value for (key, _), value in counters.items() if key == name)

    hits, misses = count("service.cache.hits"), count("service.cache.misses")
    occupancy_sum, occupancies = histograms.get("batch.tile_occupancy", (0.0, 0))
    return {
        "engine.epochs": count("engine.epochs"),
        "engine.stack_fill": _share(
            count("engine.stack_replicas"), count("engine.stacks") * train_batching
        ),
        "runtime.workers.tasks": count("workers.tasks"),
        "runtime.snapshots.spilled": count("snapshots.spilled"),
        "runtime.snapshots.resumed": count("snapshots.resumed"),
        # Lookups answered from memory rather than resumed from the snapshot
        # tier (the program counts a resumed model as a hit).
        "runtime.cache.hit_share": max(
            0.0, 1.0 - _share(count("snapshots.resumed") + misses, hits + misses)
        ),
        "streaming.readapts": count("stream.actions", "cold_adapt")
        + count("stream.actions", "warm_adapt"),
        "serve.queue_wait_s": histograms.get("serve.queue_wait_seconds", (0.0, 0))[0],
        "serve.tile_occupancy": _share(occupancy_sum, occupancies),
        "serve.dedup_share": _share(count("batch.dedup_hits"), count("batch.plans")),
        "net.shed": count("net.shed"),
    }
