"""Tests of the benchmark harness itself: its checks fire on wrong output.

    python3 -m pytest perfbench/test_harness.py

The end-to-end test runs one classify_sweep round (about a minute)
against a copy of the program whose interval enumeration drops one
element.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from clock import REF_S, Clock  # noqa: E402
from run import tail  # noqa: E402
from thicket.classifier import CategoryType  # noqa: E402
from thicket.root_coxeter import DynkinType, enumerate_nc  # noqa: E402
from tracing import Tracer  # noqa: E402

DROP_LAST_ELEMENT = """

_enumerate_nc_complete = enumerate_nc


def enumerate_nc(rs):
    return _enumerate_nc_complete(rs)[:-1]
"""


def _small_sweep(rnd, monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_MAX_RANK", 4)
    _, intervals = workloads.sweep_setup(rnd)
    cells = [CategoryType(DynkinType("A", 3), 2, 1), CategoryType(DynkinType("D", 4), 3, 3),
             CategoryType(DynkinType("D", 4), 1, 3)]
    results = workloads.sweep_timed((cells, intervals), random.Random(5), rnd)
    workloads.sweep_check(results, rnd)


def test_sweep_checks_pass_on_correct_output(monkeypatch):
    rnd = workloads.Round(Tracer(False))
    _small_sweep(rnd, monkeypatch)
    assert (rnd.attempted, rnd.failed) == (6, 0), rnd.witnesses


def test_sweep_checks_fire_on_a_dropped_thick_subcategory(monkeypatch):
    complete = workloads.enumerate_thick
    monkeypatch.setattr(workloads, "enumerate_thick", lambda ct: complete(ct)[:-1])
    rnd = workloads.Round(Tracer(False))
    _small_sweep(rnd, monkeypatch)
    assert (rnd.attempted, rnd.failed) == (6, 6)
    assert all("differs from brute_force_classify" in w for w in rnd.witnesses)


def test_sweep_checks_fire_on_a_dropped_interval_element(monkeypatch):
    monkeypatch.setattr(workloads, "enumerate_nc", lambda rs: enumerate_nc(rs)[:-1])
    rnd = workloads.Round(Tracer(False))
    _small_sweep(rnd, monkeypatch)
    assert (rnd.attempted, rnd.failed) == (6, 6)
    assert any("D4: interval has 49 elements, expected 50" in w for w in rnd.witnesses)


def test_a_raising_layer_counts_as_failed(monkeypatch):
    def broken(ct):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads, "brute_force_classify", broken)
    rnd = workloads.Round(Tracer(True))
    _small_sweep(rnd, monkeypatch)
    assert (rnd.attempted, rnd.failed) == (6, 6)
    assert all(end is not None for _, _, end, _ in rnd.tracer.spans)


def test_command_fails_on_a_dropped_interval_element(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=ignore)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    with open(tmp_path / "src" / "thicket" / "root_coxeter.py", "a") as fh:
        fh.write(DROP_LAST_ELEMENT)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify_sweep",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == 520
    assert 0 < result["failed"] <= result["attempted"]
    assert "roots_below(cox) is not every positive root" in proc.stderr


def test_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "partitions_render",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode not in (0, 1)
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    tr = Tracer(True)
    with tr.span("harness.outer"):
        with tr.span("root_coxeter.inner"):
            sum(range(10000))
        sum(range(10000))
    by_name, by_layer = tr.self_times()
    (_, s0, e0, _), (_, s1, e1, parent) = tr.spans
    assert parent == 0
    assert by_name["harness.outer"] == pytest.approx((e0 - s0) - (e1 - s1))
    assert by_layer["root_coxeter"] == pytest.approx(e1 - s1)


def test_tail_needs_ten_samples_beyond_it():
    assert tail(list(range(260)))[0] == 95
    p, value, beyond = tail(list(range(4002)))
    assert (p, beyond) == (99.5, 20) and value == 3981
    assert tail(list(range(89775)))[::2] == (99.95, 44)


def _clock(samples):
    """A clock with the given reference samples, as (start, end) pairs."""
    clock = Clock()
    clock.starts, clock.ends = map(list, zip(*samples))
    return clock


def test_batched_ops_count_at_the_batch_mean():
    rnd = workloads.Round(Tracer(False))
    rnd.op(1.0, 3.0, 4)
    rnd.scale(_clock([(0.0, REF_S), (5.0, 5.0 + REF_S)]))
    assert rnd.latencies == pytest.approx([0.5] * 4)


def test_clock_scales_time_by_the_reference_samples():
    clock = _clock([(0.0, REF_S), (1.0, 1.0 + 2 * REF_S), (3.0, 3.0 + 3 * REF_S)])
    assert clock.scale(0) == pytest.approx(2 / 3)
    assert clock.scale(1) == pytest.approx(2 / 5)
    assert clock.scaled(0.5, 0.75) == pytest.approx(0.25 * 2 / 3)
    assert clock.scaled(0.0, 3.5) == pytest.approx(
        (1.0 - REF_S) * 2 / 3 + (2.0 - 2 * REF_S) * 2 / 5 + (0.5 - 3 * REF_S) * 1 / 3)


def test_clock_samples_inside_a_long_call():
    clock = Clock()
    clock.start()
    t0 = perf_counter()
    while perf_counter() - t0 < 0.5:
        pass
    clock.stop()
    assert len(clock.starts) >= 3
