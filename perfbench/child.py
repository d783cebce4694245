"""One round of a workload in a fresh interpreter, so every cache starts empty.

Usage: child.py WORKLOAD SEED TRACE MODE, with TRACE 0 or 1 and MODE
``round`` (set up, run the timed phase, check) or ``setup`` (set up
only).  Prints one JSON report as its last line of standard output;
``run.py`` starts it and aggregates the reports.
"""

import json
import os
import random
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from clock import Clock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Round  # noqa: E402  (imports thicket)


def main(argv):
    name, seed, trace, mode = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    workload = WORKLOADS[name]
    tracer = Tracer(trace)
    rnd = Round(tracer)
    clock = Clock()
    clock.start()
    t0 = perf_counter()
    with tracer.span("harness.setup"):
        state = workload.setup(rnd)
    setup_end = perf_counter()
    report = {"setup_end": setup_end, "warm_s": setup_end - t0,
              "setup_scale": clock.scaled(t0, setup_end) / (setup_end - t0)}
    if mode == "round":
        t1 = perf_counter()
        with tracer.span("harness.timed"):
            results = workload.timed(state, random.Random(seed), rnd)
        t2 = perf_counter()
        clock.stop()
        report["unscaled_timed_s"], report["timed_s"] = t2 - t1, clock.scaled(t1, t2)
        rnd.scale(clock)
        workload.check(results, rnd)
        report.update(
            attempted=rnd.attempted,
            failed=rnd.failed,
            witnesses=rnd.witnesses,
            latencies=rnd.latencies,
            counts=dict(rnd.counts),
        )
        if trace:
            by_name, by_layer = tracer.self_times()
            report.update(spans=len(tracer.spans), span_self=by_name, layer_self=by_layer,
                          span_cost_s=len(tracer.spans) * Tracer.span_cost())
            out_dir = os.path.join(os.path.dirname(HERE), ".perfbench")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, f"spans-{name}-{seed}.json"))
    else:
        clock.stop()
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
