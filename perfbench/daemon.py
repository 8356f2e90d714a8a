"""Traced serving daemon: ``repro-server`` with the benchmark's layer wrappers.

Usage: ``python3 perfbench/daemon.py <trace-out.json> <repro-server arguments...>``

Installs :func:`tracing.install` before :class:`PredictServer` starts, runs
the ordinary ``repro-server`` entry point, and writes the spans and
counters to ``trace-out.json`` when the daemon stops (SIGTERM).
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer("daemon-%d" % os.getpid())
    patch = tracing.install(tracer)
    from repro.server.cli import main as serve

    try:
        return serve(argv)
    finally:
        patch.restore()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
