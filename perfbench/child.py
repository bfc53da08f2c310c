"""One round of one workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED MODE SPAWNED WORKDIR

MODE is ``setup`` (import and make inputs, then stop), ``measure`` (time
the calls into dualis with nothing installed), ``spans`` or ``counts`` (the
two traced passes).  SPAWNED is the parent's ``time.monotonic()`` just
before it started this process, so set-up time covers interpreter start.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv) -> int:
    workload, seed, mode, spawned, workdir = argv
    sys.path.insert(0, SRC)
    import dualis

    if not os.path.abspath(dualis.__file__).startswith(SRC + os.sep):
        print(f"dualis imported from {dualis.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    w = WORKLOADS[workload](int(seed), workdir)
    out = {"setup_s": time.monotonic() - float(spawned)}
    if mode == "setup":
        print(json.dumps(out))
        return 0
    tracer = None
    if mode == "spans":
        from tracing import SpanTracer
        tracer = SpanTracer()
    elif mode == "counts":
        from tracing import Counters
        tracer = Counters()
    if tracer is not None:
        tracer.install()
    op_clock = time.thread_time if mode == "spans" else None
    c0, w0 = time.process_time(), time.perf_counter()
    w.run(op_clock)
    out["wall_s"] = time.perf_counter() - w0
    out["cpu_s"] = time.process_time() - c0
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["ops"] = [[name, problem] for name, problem in w.check()]
    if tracer is not None:
        out["trace"] = tracer.totals()
    if mode == "spans" and hasattr(w, "op_times"):
        out["trace"]["total"].update(w.op_times())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
