"""What the benchmark needs from the program.

perfbench/workloads.py imports its layer calls from thicket and names
the classify_sweep span of each cell by reduce_criterion(ct).mode.  A
name removed from thicket, or a mode with no per-layer metric in
BENCHMARK.json, breaks the benchmark; this test makes it fail here too.
"""

import json
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
