"""The benchmark's one command.

    python3 perfbench/run.py --workload onboard-pdr --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Builds the workload's inputs from ``--seed``, measures for ``--seconds``,
checks every output, prints a table, a host record line (``env {...}``) and,
as the last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from a traced run) with ``--trace 1``.  Exits 1 when an output
check fails.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import (
    BLAS_VARIABLES,
    ROOT,
    emit,
    host_record,
    make_tmpdir,
    remove_tmpdir,
    require_program,
)

# One BLAS thread per process unless the caller chose otherwise.  Set before
# numpy loads; the server and worker processes inherit it.  With the library
# default (a thread per core) the gateway's own threads and processes share
# the cores with BLAS threads, and the same seed read 43 or 65 targets/s on
# onboard-housing from one run to the next on a 2-core host.
for _name in BLAS_VARIABLES:
    os.environ.setdefault(_name, "1")

WORKLOADS = ("onboard-pdr", "onboard-housing", "serve-tcp")


def declared(section: str) -> list[tuple[str, str]]:
    """``(name, unit)`` of each metric ``BENCHMARK.json`` lists in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(entry["name"], entry["unit"]) for entry in spec[section]]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    import onboard
    import serve_tcp

    in_process = name != "serve-tcp"
    recorder = tmp = None
    if trace:
        import spans

        tmp = make_tmpdir("spans-")
        recorder = spans.Recorder(tmp)
        if in_process:
            recorder.install()  # before any worker process forks
    try:
        if in_process:
            outcome = onboard.run(name, seed, seconds, recorder)
        else:
            outcome = serve_tcp.run(seed, seconds, recorder)
        if trace:
            if in_process:
                recorder.uninstall()
                recorder.write()
            layers = spans.attribute(tmp, outcome["trace_windows"])
    finally:
        if tmp is not None:
            remove_tmpdir(tmp)

    extra: dict = {}
    if trace:
        section = "per_layer"
        values = {
            **layers["rows"],
            **layers["counts"],
            **outcome["counts"],
            "bench.wall_s": layers["wall_s"],
            "bench.generator_lag_ms.p99": outcome["generator_lag_ms_p99"],
            "bench.trace_overhead_share": outcome["trace_overhead_share"] or 0.0,
        }
    else:
        section = "end_to_end"
        values = {key: item["value"] for key, item in outcome["end_to_end"].items()}
        extra = outcome["extra"]
    wanted = declared(section)
    missing = [key for key, _ in wanted if key not in values]
    if missing:
        raise RuntimeError(f"{name}: no value for declared metric(s) {missing}")
    metrics = {key: {"value": float(values[key]), "unit": unit} for key, unit in wanted}
    table = [(key, item["value"], item["unit"]) for key, item in metrics.items()]
    table += [(key, item["value"], item["unit"]) for key, item in extra.items()]
    for problem in outcome["problems"]:
        print(f"perfbench: CHECK FAILED {name}: {problem}", file=sys.stderr)
    result = {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }
    return result, table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    env = host_record()
    ok = True
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        print(f"[{name}] seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        result, table = run_workload(name, args.seed, args.seconds, bool(args.trace))
        ok = ok and result["correct"]
        emit(result, table, {"workload": name, **env})
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
