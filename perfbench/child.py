"""One fresh process of the benchmark: import ``coopt`` and run its CLI once.

Usage: ``python3 child.py MODE RESULT_JSON [CLI ARGS...]`` with ``src/`` on
``PYTHONPATH``.  MODE is ``setup`` (stop on reaching ``coopt.cli.main``),
``run`` (run it) or ``trace`` (run it with every layer wrapped in spans).
The timings go to RESULT_JSON; the CLI's own output stays on stdout.
"""

import json
import resource
import sys
import time

import coopt.cli

mode, result_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
tracer = None
if mode == "trace":
    from trace_layers import Tracer

    tracer = Tracer()
    tracer.install()

entered = time.monotonic()
result = {"entered": entered}
if mode != "setup":
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    rc = coopt.cli.main(argv)
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    sys.stdout.flush()
    cpu = sum(
        getattr(after, f) - getattr(before, f)
        for before, after in ((self0, self1), (kids0, kids1))
        for f in ("ru_utime", "ru_stime")
    )
    result.update(
        rc=rc,
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,  # Linux reports KiB
    )
    if tracer is not None:
        result["spans"] = tracer.spans
with open(result_path, "w") as fh:
    json.dump(result, fh)
