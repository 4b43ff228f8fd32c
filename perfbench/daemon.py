"""The service daemon with layer spans installed, for traced benchmark passes.

Usage::

    python3 perfbench/daemon.py TRACE_OUT serve --port 0 [serve options...]

Installs the :mod:`tracer` wrappers, opens a telemetry session, and runs the
program's own ``serve`` command unchanged.  When the daemon is stopped with
SIGINT it writes the span totals and the telemetry counters to ``TRACE_OUT``
as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import Tracer, install


def main() -> int:
    trace_out = Path(sys.argv[1])
    from repro import telemetry
    from repro.experiments.registry import main as registry_main

    tracer = Tracer()
    install(tracer)
    with telemetry.session() as recorder:
        code = registry_main(sys.argv[2:])
    trace_out.write_text(
        json.dumps({"tracer": tracer.to_state(), "counters": dict(recorder.counters)})
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
