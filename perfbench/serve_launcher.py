"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/serve_launcher.py SPANS_FILE serve [serve args]``

Installs the span wrappers of :mod:`tracing` into this process, then
hands the remaining arguments to the program's normal CLI entry point.
When the server drains and returns (SIGTERM), every recorded span is
written to ``SPANS_FILE`` as JSON lines.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    from tracing import Installation, Recorder

    recorder = Recorder()
    Installation(recorder, None).install()
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        with open(spans_path, "w") as handle:
            for span in recorder.spans:
                handle.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
