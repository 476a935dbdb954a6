"""The runtime's import footprint: numpy only, no scipy and no numpy test tooling.

``scipy.special`` alone adds ~25 MB of resident memory and ~0.3 s of start-up
to every process that loads it (gateway, server, cluster node, spawned
worker), and it pulls in ``numpy.testing``.  The runtime needs neither, so a
fresh interpreter that imports every entry package must hold neither.
"""

import subprocess
import sys

ENTRY_PACKAGES = (
    "repro.cli",
    "repro.net",
    "repro.runtime",
    "repro.serve",
    "repro.sim",
    "repro.streaming",
)
FORBIDDEN = ("scipy", "numpy.testing", "numpy.f2py")


def test_runtime_imports_no_scipy_or_numpy_testing():
    probe = (
        "import sys\n"
        f"import {', '.join(ENTRY_PACKAGES)}\n"
        f"loaded = sorted(m for m in sys.modules if m.startswith({FORBIDDEN!r}))\n"
        "print(' '.join(loaded))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [], f"runtime imports loaded: {result.stdout.strip()}"
