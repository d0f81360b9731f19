"""Run ``repro serve --jobs 1`` in this process, optionally traced.

The serve workload starts the daemon through this file so that, in a
traced run, the daemon-side layers (reduction, model building, the sim
pre-solve tier) can be wrapped before the daemon starts and their
totals written out when it stops.  Untraced, it is exactly the CLI::

    python3 perfbench/serve_daemon.py --socket PATH [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    from repro.cli import main as repro_main
    tracer = None
    if args.trace_out:
        from layers import DAEMON_TARGETS, LayerTracer
        tracer = LayerTracer()
        tracer.install(DAEMON_TARGETS)
    code = repro_main(["serve", "--socket", args.socket, "--jobs", "1"])
    if tracer is not None:
        tracer.finish()
        with open(args.trace_out, "w") as fh:
            json.dump(tracer.as_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
