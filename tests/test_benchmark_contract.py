"""What the benchmark needs from the program.

perfbench/workloads.py imports its layer calls from thicket and names
the classify_sweep span of each cell by reduce_criterion(ct).mode.  A
name removed from thicket, or a mode with no per-layer metric in
BENCHMARK.json, breaks the benchmark; these tests make it fail here too,
and so does a wrong output of a classify_sweep or partitions_render
round, which the benchmark counts as a failed op.  The partitions_render
round also checks the render digests and, for every NC(n) with n <= 11,
the rotation-count theorem on the periods rotation_period_a gives.
"""

import json
import random
from pathlib import Path

from thicket.classifier import reduce_criterion

ROOT = Path(__file__).resolve().parent.parent
PREFIX = "classifier.enumerate_thick_s."


def test_classify_sweep_modes_name_per_layer_metrics(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    from tracing import Tracer

    cells, _ = workloads.sweep_setup(workloads.Round(Tracer(False)))
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    declared = {m["name"][len(PREFIX):] for m in per_layer if m["name"].startswith(PREFIX)}
    assert {reduce_criterion(c).mode for c in cells} == declared


def test_one_classify_sweep_round_passes_its_checks(monkeypatch):
    # set-up, timed phase and check of one round, in this process, so on
    # caches other tests have filled as well
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    from tracing import Tracer

    rnd = workloads.Round(Tracer(False))
    state = workloads.sweep_setup(rnd)
    workloads.sweep_check(workloads.sweep_timed(state, random.Random(1), rnd), rnd)
    assert rnd.witnesses == []
    assert (rnd.attempted, rnd.failed) == (520, 0)


def test_one_partitions_render_round_passes_its_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    from tracing import Tracer

    rnd = workloads.Round(Tracer(False))
    state = workloads.partitions_setup(rnd)
    workloads.partitions_check(workloads.partitions_timed(state, random.Random(1), rnd), rnd)
    assert rnd.witnesses == []
    assert (rnd.attempted, rnd.failed) == (89775, 0)
