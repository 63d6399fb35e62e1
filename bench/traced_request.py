"""One traced CLI request: `python bench/traced_request.py <rdsym arguments>`.

Behaves like `python -m rdsym.cli <arguments>` (same stdout, same exit
code) and writes JSON figures to $BENCH_TRACE_OUT.  By default these are
the per-layer figures: the interpreter start (from $BENCH_LAUNCHED, a
time.monotonic() value the parent takes just before the launch), the
import of rdsym.cli, and the command with every traced layer.  With
BENCH_MEMORY=1 the only figure is the tracemalloc peak of the whole
request; tracemalloc slows Python several times, so it never runs
together with the timed layers.
"""

import os
import sys
import time

interpreter_s = time.monotonic() - float(os.environ["BENCH_LAUNCHED"])
MEMORY = os.environ.get("BENCH_MEMORY") == "1"
if MEMORY:
    import tracemalloc
    tracemalloc.start()

import json  # noqa: E402
import resource  # noqa: E402

t0 = time.perf_counter()
import rdsym.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402

tracer = Tracer()
if not MEMORY:
    tracer.install()
t1 = time.perf_counter()
try:
    code = rdsym.cli.main(sys.argv[1:])
except SystemExit as exc:        # argparse usage errors
    code = exc.code if isinstance(exc.code, int) else 1
command_s = time.perf_counter() - t1
sys.stdout.flush()
if MEMORY:
    figures = {"mem.traced_peak_mb": tracemalloc.get_traced_memory()[1] / 2 ** 20}
else:
    figures = tracer.metrics()
    del figures["mem.traced_peak_mb"]
    figures.update({
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": import_s,
        "cli.command_s": command_s,
        "cli.child_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
with open(os.environ["BENCH_TRACE_OUT"], "w") as fh:
    json.dump({"metrics": figures, "records": None if MEMORY else tracer.records()}, fh)
sys.exit(code)
