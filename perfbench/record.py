"""Record the benchmark baseline.

    python3 perfbench/record.py

Runs every workload with tracing off in two sets of ten seeds (1..10,
then 11..20) and once traced with seed 1, prints every metric by name
and unit, and writes ``BENCHMARK.json`` (from ``spec.py``) and
``perfbench/baseline.json``.  The baseline holds, per workload, the op
count and check result of every seed (which must agree: the seed only
orders work), for each end-to-end metric and set the median, quartiles
and spread (the distance between the quartiles as a share of the
median), the change of the median from the first set to the second,
and the traced per-layer self times, counts and tracing overhead.

Exits 1 unless every check passed, every seed attempted the same ops
with the same result, and each end-to-end metric meets its bound twice
over: its spread within each set (except set-up time's) and the
worsening of its median from the first set to the second are both at
most the bound.  Set-up time is held to its bound by the second rule
only: a run sets up in one or a few short stretches, which cannot
average out the machine's drift.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

from spec import END_TO_END, RUN_SECONDS, WORKLOADS, benchmark_json

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = (list(range(1, 11)), list(range(11, 21)))  # seeds of the two sets of runs


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{workload} seed {seed} could not run (exit {proc.returncode})")
    return json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def worsening(metric, first, second):
    """How much worse the second median is than the first, as a share of the first."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    ok = True
    baseline = {
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "processor": platform.machine()},
        "run_seconds": RUN_SECONDS,
        "sets": SETS,
        "workloads": {},
    }
    for w in WORKLOADS:
        name = w["name"]
        sets = [{seed: run(name, seed, 0) for seed in seeds} for seeds in SETS]
        results = {seed: r for s in sets for seed, r in s.items()}
        outcomes = {(r["attempted"], r["failed"], r["correct"]) for r in results.values()}
        attempted, failed, correct = sorted(outcomes)[0]
        entry = {
            "attempted": attempted,
            "failed": failed,
            "seed_invariant": len(outcomes) == 1,
            "per_seed": {seed: {"attempted": r["attempted"], "failed": r["failed"]}
                         for seed, r in results.items()},
            "end_to_end": {},
        }
        ok = ok and correct and len(outcomes) == 1
        for m in END_TO_END:
            summaries = [summarize([s[seed]["metrics"][m["name"]]["value"] for seed in seeds])
                         for s, seeds in zip(sets, SETS)]
            worse = worsening(m, summaries[0]["median"], summaries[1]["median"])
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "sets": summaries, "worsening": worse}
            spread_gated = m["name"] != "setup_s"
            if worse > m["bound"] or (spread_gated and any(
                    s["spread"] > m["bound"] for s in summaries)):
                ok = False
        traced = run(name, SETS[0][0], 1)
        ok = ok and traced["correct"]
        entry["traced"] = {"seed": SETS[0][0], "per_layer": traced["metrics"]}
        baseline["workloads"][name] = entry

    print("\nworkload metric: per set median [q1, q3] unit and spread; worsening of the "
          "median from set 1 to set 2; bound")
    for name, entry in baseline["workloads"].items():
        print(f"{name}: {entry['attempted']} ops, {entry['failed']} failed, "
              f"seed-invariant {entry['seed_invariant']}")
        for metric, e in entry["end_to_end"].items():
            sets = "; ".join(f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] {e['unit']}, "
                             f"spread {s['spread']:.4f}" for s in e["sets"])
            print(f"  {metric}: {sets}; worsening {e['worsening']:+.4f}; bound {e['bound']}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
