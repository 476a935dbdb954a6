"""Shared helpers for the benchmark harness.

Every benchmark regenerates one figure or table of the paper through
``repro.experiments.run_experiment`` and prints the reproduced rows, so the
captured benchmark output doubles as the reproduction report.  Experiments are
expensive relative to micro-benchmarks, so each one is executed exactly once
(``rounds=1``) — the interesting output is the experiment result, the timing is
a bonus.

The report file is only rewritten when a benchmark actually records an entry:
the first write of a session truncates the file, later writes append.  (The
old behaviour truncated at ``pytest_sessionstart``, which wiped the report
whenever the benchmarks directory was merely *collected* — e.g. by a plain
``pytest`` run from the repository root that deselected every benchmark.)
Every entry records the scale it ran at, so reports mixing
``REPRO_BENCH_SCALE`` settings stay interpretable.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.experiments import run_experiment

#: Scale used by the benchmark harness; override with REPRO_BENCH_SCALE=full
#: for a longer, closer-to-paper run.
BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")

#: REPRO_BENCH_SMOKE=1 downgrades hard wall-clock assertions (speedup
#: ratios, warm-vs-cold timings) to warnings.  Used by the CI smoke job:
#: shared runners are too noisy for timing bars, but the benchmarks still
#: exercise every hot path and fail on correctness regressions.
BENCH_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"


def perf_assert(condition: bool, message: str) -> None:
    """Assert a performance bar — or warn instead under ``REPRO_BENCH_SMOKE=1``."""
    if condition:
        return
    if BENCH_SMOKE:
        import warnings

        warnings.warn(f"[smoke] performance bar missed: {message}", stacklevel=2)
        return
    raise AssertionError(message)


@dataclass
class PairedTiming:
    """Outcome of :func:`paired_timing`: per-call medians and the paired ratio."""

    #: Median seconds per call of ``first`` and of ``second``.
    first: float
    second: float
    #: Median over rounds of ``first`` time / ``second`` time.
    ratio: float
    #: Half the interquartile range of the per-round ratios: the noise this
    #: run's own pairs showed.
    noise: float
    #: The per-round ratios themselves, in round order.
    ratios: list[float]


def paired_timing(first, second, rounds: int = 15, repeats: int = 1) -> PairedTiming:
    """Time two callables by paired, alternating rounds; summarize by medians.

    Each round times a block of ``repeats`` calls of ``first`` and a block of
    ``second`` back to back, so drift from CPU frequency scaling or
    background load hits both sides of a pair equally.  The order alternates
    every round, because the first block of a pair measures systematically
    slower on a busy host and a fixed order would bill that bias to one
    side.  The ratio is the *median of the per-round ratios*, robust to the
    occasional descheduled round that a min- or mean-based estimate is not.
    """
    def block(fn) -> float:
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        return (time.perf_counter() - start) / repeats

    first_times, second_times, ratios = [], [], []
    for round_index in range(rounds):
        if round_index % 2 == 0:
            first_time = block(first)
            second_time = block(second)
        else:
            second_time = block(second)
            first_time = block(first)
        first_times.append(first_time)
        second_times.append(second_time)
        ratios.append(first_time / second_time)
    quartiles = statistics.quantiles(ratios, n=4)
    return PairedTiming(
        first=statistics.median(first_times),
        second=statistics.median(second_times),
        ratio=statistics.median(ratios),
        noise=(quartiles[2] - quartiles[0]) / 2,
        ratios=ratios,
    )


#: Integers one CPU burn of :func:`parallel_capacity` sums (~45 ms of pure
#: interpreter work on a 2-core x86 host).
_BURN_LENGTH = 2_000_000


def parallel_capacity(processes: int) -> list[float]:
    """Measure how many cores' worth of CPU ``processes`` processes get at once.

    ``os.cpu_count()`` counts cores, not the throughput a shared host gives
    concurrent processes.  This probe starts ``processes`` workers, then
    times one CPU-bound burn alone against ``processes`` identical burns at
    once, by :func:`paired_timing` over 11 rounds.  Returns one reading per
    round, in cores: ``processes`` times that round's solo time over its
    concurrent time.  A host that runs the burns fully in parallel reads
    ``processes``; one core's worth reads 1.
    """
    # Spawned, not forked: the benchmark session may be running threads.
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(processes, mp_context=context) as pool:

        def burns(count: int) -> None:
            for future in [pool.submit(sum, range(_BURN_LENGTH)) for _ in range(count)]:
                future.result()

        for _ in range(2):  # start every worker before the clock runs
            burns(processes)
        timing = paired_timing(lambda: burns(1), lambda: burns(processes), rounds=11)
    return [processes * ratio for ratio in timing.ratios]


#: The reproduced rows of every figure/table are appended here so they remain
#: available even though pytest captures per-test stdout.
REPORT_PATH = Path(__file__).resolve().parent.parent / "benchmark_report.txt"

#: Machine-readable companion to ``benchmark_report.txt``: one JSON document
#: with host facts (core count decides whether process-pool speedup bars are
#: even meaningful) and one entry per recorded benchmark.  Rewritten after
#: every record so a crashed session still leaves the entries it finished.
JSON_REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_report.json"

#: Whether this session has already (re)started the report file.
_report_started = False

#: JSON entries accumulated this session (the JSON file mirrors these).
_json_entries: list[dict] = []


def _bench_name() -> str | None:
    """The currently running benchmark's node id, courtesy of pytest."""
    current = os.environ.get("PYTEST_CURRENT_TEST")
    if not current:
        return None
    return current.split(" ")[0]


def record_report_entry(
    text: str,
    scale: str = BENCH_SCALE,
    tags: dict | None = None,
    name: str | None = None,
    wall_seconds: dict | None = None,
) -> None:
    """Append one benchmark entry to the report, tagged with its scale.

    The first entry of the session starts a fresh report; sessions that never
    record anything leave the existing report untouched.  ``tags`` adds
    key=value markers to the entry header (e.g. ``{"executor": "process"}``),
    so report lines measured under different execution modes are never
    mistaken for comparable runs of the same configuration.

    Every entry also lands in ``BENCH_report.json``: ``name`` defaults to the
    running test's node id, and ``wall_seconds`` (``{"label": seconds}``)
    carries whatever timings the benchmark measured, machine-readable.
    """
    global _report_started
    header = f"scale={scale}"
    for key, value in (tags or {}).items():
        header += f" {key}={value}"
    mode = "a" if _report_started else "w"
    with REPORT_PATH.open(mode, encoding="utf-8") as handle:
        if not _report_started:
            handle.write("TASFAR reproduction benchmark report\n\n")
        handle.write(f"[{header}]\n{text}\n\n")
    _report_started = True

    _json_entries.append(
        {
            "name": name if name is not None else _bench_name(),
            "scale": scale,
            "tags": {key: str(value) for key, value in (tags or {}).items()},
            "wall_seconds": {
                key: float(value) for key, value in (wall_seconds or {}).items()
            },
            "text": text,
        }
    )
    report = {
        "schema": "repro.bench/v1",
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": sys.platform,
            "python": sys.version.split()[0],
        },
        "scale": BENCH_SCALE,
        "smoke": BENCH_SMOKE,
        "entries": _json_entries,
    }
    with JSON_REPORT_PATH.open("w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.fixture
def record_bench():
    """Fixture handing benchmarks the report-entry recorder."""
    return record_report_entry


@pytest.fixture
def perf_check():
    """Fixture handing benchmarks the (smoke-aware) performance assertion."""
    return perf_assert


@pytest.fixture
def paired_timer():
    """Fixture handing benchmarks the paired-median timing method."""
    return paired_timing


@pytest.fixture
def run_figure(benchmark):
    """Run one experiment under pytest-benchmark, print and record its summary."""

    def runner(experiment_id: str):
        started = time.perf_counter()
        result = benchmark.pedantic(
            run_experiment,
            args=(experiment_id,),
            kwargs={"scale": BENCH_SCALE},
            rounds=1,
            iterations=1,
        )
        elapsed = time.perf_counter() - started
        print()
        print(result.summary())
        record_report_entry(
            result.summary(),
            name=experiment_id,
            wall_seconds={"experiment": elapsed},
        )
        return result

    return runner
