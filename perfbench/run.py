"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a thicket checkout; the program is imported from
``src/``.  Each round runs in a fresh interpreter (``child.py``), one at
a time, single-threaded.  Rounds repeat until their timed phases add up
to at least ``--seconds``; every round does the same fixed-size work.
Every end-to-end time is scaled for the machine's speed (``clock.py``);
the unscaled figures are printed next to them.

With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` one traced round runs, and its per-layer metrics are
printed together with the tracing overhead ``trace.span_cost_s``: spans
times the cost of one span, measured in the traced process.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when every op's output passed its check, 1 when
some failed, and 2 when the benchmark itself could not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from math import ceil
from time import perf_counter

from spec import END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 5
PERCENTILES = (50, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)


class BenchmarkError(Exception):
    """The benchmark could not produce a result (as opposed to a failed check)."""


def spawn(args, trace, mode, deadline):
    """Run child.py once and return its report, with its set-up time added."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           args.workload, str(args.seed), "1" if trace else "0", mode]
    start = perf_counter()
    if deadline - start <= 0:
        raise BenchmarkError("out of time before the next round")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=deadline - start)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{args.workload} {mode} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{args.workload} {mode} exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["unscaled_setup_s"] = report["setup_end"] - start
    report["setup_s"] = report["unscaled_setup_s"] * report["setup_scale"]
    return report


def tail(samples):
    """(percentile, value, samples beyond): the highest percentile of
    PERCENTILES with at least ten samples beyond it, by nearest rank."""
    xs = sorted(samples)
    n = len(xs)
    best = (100, xs[-1], 0) if xs else (100, 0.0, 0)
    for p in PERCENTILES:
        k = ceil(p / 100 * n)
        if n - k >= 10:
            best = (p, xs[k - 1], n - k)
    return best


def timed_run(args, deadline):
    rounds = []
    while not rounds or sum(r["timed_s"] for r in rounds) < args.seconds:
        rounds.append(spawn(args, False, "round", deadline))
    setups = rounds[:]
    while len(setups) < SETUP_SAMPLES and sum(r["setup_s"] for r in setups) < args.seconds:
        setups.append(spawn(args, False, "setup", deadline))

    latencies = [x for r in rounds for x in r["latencies"]]
    p, tail_s, beyond = tail(latencies)
    values = {
        "ops_per_s": sum(r["attempted"] for r in rounds) / sum(r["timed_s"] for r in rounds),
        "op_p50_ms": 1000 * statistics.median(latencies) if latencies else 0.0,
        "op_tail_ms": 1000 * tail_s,
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in rounds) / 1024,
    }
    unscaled_ops_per_s = (sum(r["attempted"] for r in rounds)
                          / sum(r["unscaled_timed_s"] for r in rounds))
    notes = {
        "ops_per_s": f"unscaled {unscaled_ops_per_s:.6g}",
        "op_p50_ms": f"median of {len(latencies)} op latency samples",
        "op_tail_ms": f"p{p:g} of {len(latencies)} op latency samples, {beyond} beyond it",
        "setup_s": f"median of {len(setups)} set-ups, unscaled "
                   f"{statistics.median(r['unscaled_setup_s'] for r in setups):.6g}",
    }
    units = {m["name"]: m["unit"] for m in END_TO_END}
    return rounds, values, units, notes


def traced_run(args, deadline):
    traced = spawn(args, True, "round", deadline)
    counts = traced["counts"]
    trace_values = {"spans": traced["spans"], "span_cost_s": traced["span_cost_s"]}
    values, units = {}, {}
    for name, unit, source in PER_LAYER:
        kind, _, key = source.partition(":")
        if kind == "layer":
            values[name] = traced["layer_self"].get(key, 0.0)
        elif kind == "span":
            values[name] = traced["span_self"].get(key, 0.0)
        elif kind == "count":
            values[name] = counts.get(key, 0)
        elif kind == "ratio":
            num, den = key.split("/")
            values[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        else:
            values[name] = trace_values[key]
        units[name] = unit
    work = traced["warm_s"] + traced["unscaled_timed_s"]
    notes = {"trace.span_cost_s": f"{values['trace.span_cost_s'] / work:.2%} of the traced "
                                  f"round's {work:.3f} s of set-up and timed phase"}
    return [traced], values, units, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "thicket", "__init__.py")):
        print(f"error: no thicket sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_LIMIT_S
    try:
        rounds, values, units, notes = (traced_run if args.trace else timed_run)(args, deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for r in rounds:
        for w in r["witnesses"]:
            print(f"check failed: {w}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), {attempted} ops, "
          f"{failed} failed, failed_frac {failed / attempted:.6g}")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} {value:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
