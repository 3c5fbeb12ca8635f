"""Run the metacluster CLI inside this process, for setup probes and traced runs.

    python3 child.py setup <marks.json> -- <cli arguments>
    python3 child.py trace <trace.json> -- <cli arguments>

``setup`` stops the CLI as soon as ``ingest_path`` has returned, so the
process covers interpreter start, imports and ingest only, and writes the
``time.monotonic()`` reading of that moment.  ``trace`` installs the span
tracer, runs the CLI to completion and writes the spans.  Untraced measured
runs do not use this launcher; they start ``python3 -m metacluster.cli``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


class _SetupDone(Exception):
    pass


def main(argv: list[str]) -> int:
    mode, out = argv[1], Path(argv[2])
    if argv[3] != "--" or mode not in ("setup", "trace"):
        print("usage: child.py setup|trace <out> -- <cli arguments>", file=sys.stderr)
        return 2
    cli_args = argv[4:]

    import metacluster.cli as cli

    if mode == "setup":
        ingest_path = cli.ingest_path

        def ingest_then_stop(path):
            ingest_path(path)
            raise _SetupDone(time.monotonic())

        cli.ingest_path = ingest_then_stop
        try:
            cli.main(cli_args)
        except _SetupDone as done:
            out.write_text(json.dumps({"setup_end": done.args[0]}), encoding="utf-8")
            return 0
        print("error: the CLI returned without calling ingest_path", file=sys.stderr)
        return 1

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
