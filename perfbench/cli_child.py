"""Traced stand-in for ``python -m cmlocus.cli``.

    python3 perfbench/cli_child.py <cli arguments>

Installs the layer tracer, runs the command, and writes the raw counters
and the command time as one marked line on standard error.  Standard
output is the command's own.
"""

import json
import sys
import time

import cmlocus.cli
from tracer import Tracer
from worker import TRACE_MARK

tracer = Tracer()
tracer.install()
t0 = time.perf_counter()
rc = cmlocus.cli.main(sys.argv[1:])
command_ms = (time.perf_counter() - t0) * 1e3
sys.stdout.flush()
snap = tracer.snapshot()
snap["command_ms"] = command_ms
print(TRACE_MARK + json.dumps(snap), file=sys.stderr)
sys.exit(rc)
