"""Start ``repro serve`` in this process, optionally with span recording.

    python3 perfbench/serve_launcher.py [--spans DIR] -- serve --listen ... ARGS

With ``--spans`` the layer wrappers are installed before the program is
imported into use, and every recorded span is written to ``DIR`` when the
server has drained and ``repro.cli.main`` returns.
"""

from __future__ import annotations

import sys

from common import require_program


def main(argv: list[str]) -> int:
    spans_dir = None
    if argv[:1] == ["--spans"]:
        spans_dir, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    require_program()
    recorder = None
    if spans_dir:
        import spans

        recorder = spans.Recorder(spans_dir)
        recorder.install()
        recorder.enable()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if recorder is not None:
            recorder.disable()
            recorder.write()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
