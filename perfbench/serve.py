"""Traced daemon launcher: ``python3 perfbench/serve.py SPANS.json -- ARGS``.

Installs the benchmark's span wrappers (engine, core layers and the
service request path), then runs ``repro.service.cli.main(ARGS)``.  When
the daemon drains on SIGTERM and ``main`` returns, the spans recorded in
this process are written to ``SPANS.json``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: serve.py SPANS.json -- REPRO_SERVE_ARGS...", file=sys.stderr)
        return 2
    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer, service=True)
    from repro.service.cli import main as serve

    try:
        return serve(argv[2:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
