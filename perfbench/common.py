"""Shared helpers: the repo location, statistics, memory, host record, output."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for snapshot directories, span files and server logs; lives
#: inside the checkout and is removed when a run ends.
TMP_ROOT = ROOT / ".perfbench_tmp"

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def require_program() -> None:
    """Put ``src/`` on the import path, or exit non-zero when it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_tmpdir(prefix: str) -> Path:
    TMP_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=TMP_ROOT))


def remove_tmpdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()  # only when no other run still uses it
    except OSError:
        pass


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    if ordered[high] == ordered[low]:
        return ordered[low]  # also keeps an infinite tail from becoming NaN
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


#: Tail figures are taken per window of this many seconds, then the median
#: over windows is reported, so a host stall in one part of a run moves them
#: no more than it moves a median.
WINDOW_S = 5.0


def windowed(samples, statistic) -> float:
    """Median over fixed windows of ``statistic(values in window)``.

    ``samples`` are ``(seconds since the run started, value)`` pairs.
    """
    windows: dict[int, list] = {}
    for offset, value in samples:
        windows.setdefault(int(offset // WINDOW_S), []).append(value)
    return median([statistic(values) for values in windows.values()])


def peak_rss_mb(children: bool) -> float:
    """Peak resident set size of this process, or of its waited-for children."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = ROOT / ".git" / text[5:]
            if ref.is_file():
                return ref.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
            for line in packed:
                if line.endswith(" " + text[5:]):
                    return line.split()[0]
            return None
        return text
    except OSError:
        return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_record() -> dict:
    """What the numbers depend on besides the code, as in effect for this run."""
    import numpy

    return {
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{name: os.environ.get(name) for name in BLAS_VARIABLES},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(result: dict, table_rows: list[tuple[str, float, str]], env: dict) -> None:
    """Print the human table, the host record, then the one-line JSON result."""
    width = max((len(name) for name, _, _ in table_rows), default=10)
    for name, value, unit in table_rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
