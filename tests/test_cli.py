import errno
import json
import os
import subprocess
import sys

import pytest

import thicket
from thicket import classifier, cli
from thicket.cli import main
from thicket.ncp_models import VerificationReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# documented invocations ------------------------------------------------


def test_count_a5_example(capsys):
    code, out, _ = run(capsys, "count", "--series", "A", "--rank", "5", "--r", "4", "--t", "1")
    assert code == 0 and out.strip() == "6"


def test_count_d5_example(capsys):
    code, out, _ = run(capsys, "count", "--series", "D", "--rank", "5", "--r", "14", "--t", "2")
    assert code == 0 and out.strip() == "6"


def test_count_d4_triality_example(capsys):
    code, out, _ = run(capsys, "count", "--series", "D", "--rank", "4", "--r", "3", "--t", "3")
    assert code == 0 and out.strip() == "8"


def test_count_proper_and_json(capsys):
    code, out, _ = run(
        capsys, "count", "--series", "A", "--rank", "5", "--r", "4", "--t", "1",
        "--proper", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4 and doc["proper"] is True


def test_count_check_agreement(capsys):
    code, out, _ = run(
        capsys, "count", "--series", "A", "--rank", "3", "--r", "2", "--t", "1", "--check"
    )
    assert code == 0


def test_count_check_flags_tabulated_disagreement(capsys, monkeypatch):
    argv = ("count", "--series", "D", "--rank", "4", "--r", "3", "--t", "2", "--check")
    code, out, err = run(capsys, *argv)
    assert code == 0 and out.strip() == "20"
    assert "mismatch" not in err
    # a closed form giving the paper's printed value, Cat(D_3) = 14
    monkeypatch.setattr(classifier, "count_thick_formula", lambda ct: 14)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert "mismatch" in err


def test_enumerate_a4(capsys):
    code, out, _ = run(capsys, "enumerate", "--model", "A", "--n", "4")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 14
    docs = [json.loads(line) for line in lines]
    assert all(d["model"] == "A" and d["n"] == 4 for d in docs)


def test_enumerate_b_and_d(capsys):
    code, out, _ = run(capsys, "enumerate", "--model", "B", "--n", "2")
    assert code == 0 and len(out.strip().splitlines()) == 6
    code, out, _ = run(capsys, "enumerate", "--model", "D", "--n", "4")
    assert code == 0 and len(out.strip().splitlines()) == 50


def test_classify_e6(capsys):
    code, out, _ = run(
        capsys, "classify", "--series", "E", "--rank", "6", "--r", "6", "--t", "1", "--json"
    )
    assert code == 0
    lines = out.strip().splitlines()
    docs = [json.loads(line) for line in lines]
    # recorded expectation from the exhaustive engine for s = gcd(12, 6)
    assert len(docs) == 105
    assert all(d["type"] == {"series": "E", "rank": 6, "r": 6, "t": 1} for d in docs)
    sizes = sorted(len(d["roots"]) for d in docs)
    assert sizes[0] == 0 and sizes[-1] == 36


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--max-rank", "3")
    assert code == 0
    assert "all checks passed" in out
    assert "[FAIL]" not in out


def test_verify_json_covers_series_e(capsys):
    # series E is checked in full whatever --max-rank is
    for argv in [(), ("--max-rank", "7")]:
        code, out, _ = run(capsys, "verify", *argv, "--json")
        assert code == 0
        results, _ = json.JSONDecoder().raw_decode(out[out.index("[\n"):])
        detail = {r["check"]: r["detail"] for r in results}["check_classification"]
        assert detail.endswith("and for series E (E6, E7, E8)")
        assert "the triality (D4, r, 3) included" in detail and "oracle-only" not in detail


def test_verify_checks_the_b_model_counts(monkeypatch):
    ok, detail = cli._check_partition_counts(3)
    assert ok and "B-model counts match binom(2k, k) up to n=6" in detail
    monkeypatch.setattr(cli, "enumerate_nc_b", lambda k: [None] * k)
    assert not cli._check_partition_counts(3)[0]


def test_verify_checks_every_interval_size(monkeypatch):
    # every verified type has an expected size, A1, A7 and D8 included
    assert cli._check_interval_counts(8) == (True, "interval sizes match the type counts")
    full = cli.enumerate_nc
    short = {"A1", "A7", "D8"}
    monkeypatch.setattr(cli, "enumerate_nc", lambda rs: full(rs)[1:] if str(rs.delta) in short else full(rs))
    ok, detail = cli._check_interval_counts(8)
    assert not ok
    assert detail == ("interval sizes match the type counts "
                      "(A1: 1 != 2; A7: 1429 != 1430; D8: 9437 != 9438)")


def test_interval_sizes_are_the_catalan_numbers_of_the_type():
    for n in range(1, 13):
        assert cli._interval_size(thicket.DynkinType("A", n)) == classifier.catalan(n + 1)
    for n in range(4, 13):
        assert cli._interval_size(thicket.DynkinType("D", n)) == classifier.catalan_d(n)
    sizes = [cli._interval_size(thicket.DynkinType("E", n)) for n in (6, 7, 8)]
    assert sizes == [833, 4160, 25080]


def test_verify_names_the_first_broken_round_trip(monkeypatch):
    assert cli._check_bijections(5) == (True, "partition bijections invert on both sides")
    monkeypatch.setattr(cli.ncp_models, "ar_bijection_g", lambda rs, p: rs.identity)
    assert cli._check_bijections(5) == (False, "D-side roundtrip failed at rank 4")
    # the A side is checked first
    monkeypatch.setattr(cli.ncp_models, "brady_g", lambda rs, p: rs.identity)
    assert cli._check_bijections(5) == (False, "A-side roundtrip failed at rank 1")


def test_verify_names_the_first_broken_square(monkeypatch):
    assert cli._check_commuting_squares(5) == (True, "conjugation and arm-swap squares commute")
    monkeypatch.setattr(cli.ncp_models, "sigma", lambda p: p)
    assert cli._check_commuting_squares(5) == (False, (
        "cox conjugation acts as sigma.rho on the D model (D4): 50 cases, FAILED (30)"))
    # the A rotation square is checked first
    monkeypatch.setattr(cli, "rotate_a", lambda p, k: p)
    assert cli._check_commuting_squares(5) == (False, "rotation square failed for A2")


def test_verify_runs_the_cluster_check_on_series_e(monkeypatch):
    seen = []

    def record(delta, power=1):
        seen.append((str(delta), power))
        return VerificationReport("recorded", 2, ())

    monkeypatch.setattr(cli, "cluster_category_check", record)
    ok, detail = cli._check_cluster(4)
    assert ok and detail == "shift-translate orbits admit only the two trivial invariant sets"
    assert {(f"E{n}", p) for n in (6, 7, 8) for p in (1, 2)} <= set(seen)
    assert [d for d, _ in seen[::2]] == [str(d) for d in cli._verified_types(4)]


def test_verify_passes_with_assertions_stripped():
    # the invariants of root_coxeter are checked by code, not by assert;
    # rank 4 runs the triality cells and the twist's bijection check
    src = os.path.dirname(os.path.dirname(thicket.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "thicket", "verify", "--max-rank", "4"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout


def test_table_markdown(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert out.count("|") > 30
    assert "(D_4, r, 3)" in out


def test_table_json_and_check(capsys):
    code, out, _ = run(capsys, "table", "--json", "--check", "--max-rank", "3", "--max-r", "8")
    assert code == 0
    rows, _ = json.JSONDecoder().raw_decode(out)
    assert len(rows) == 9


A3_CELL = ("--series", "A", "--rank", "3", "--r", "2", "--t", "1")


def _drop_last_descriptor(monkeypatch):
    """Make the criterion lose its last descriptor at (A3, 2, 1) only."""
    cell = classifier.CategoryType(thicket.DynkinType("A", 3), 2, 1)
    real = classifier.enumerate_thick
    monkeypatch.setattr(
        classifier, "enumerate_thick", lambda c: real(c)[:-1] if c == cell else real(c)
    )
    return real(cell)[-1]


def test_count_check_names_the_witness(capsys, monkeypatch):
    dropped = _drop_last_descriptor(monkeypatch)
    code, out, err = run(capsys, "count", *A3_CELL, "--check")
    assert code == 3 and out.strip() == "6"
    assert "(A3, 2, 1)" in err
    assert str([list(row) for row in dropped.nc.matrix]) in err
    assert str(sorted(list(a) for a in dropped.roots)) in err
    code, out, _ = run(capsys, "count", *A3_CELL, "--check", "--json")
    doc = json.loads(out)
    assert code == 3 and doc["agree"] is False
    assert doc["witnesses"] == [{"kept_by": "brute_force", **dropped.to_json()}]


def test_table_check_names_the_cell(capsys, monkeypatch):
    _drop_last_descriptor(monkeypatch)
    code, _, err = run(capsys, "table", "--check", "--max-rank", "3", "--max-r", "4")
    assert code == 3
    assert err.startswith("mismatch for (A3, 2, 1)") and err.count("mismatch") == 1


def test_verify_classification_check_names_the_cell(monkeypatch):
    _drop_last_descriptor(monkeypatch)
    ok, detail = cli._check_classification(3)
    assert not ok
    assert "(A3, 2, 1)" in detail and "kept only by brute_force" in detail


def test_render_circle_files(tmp_path, capsys):
    out_file = tmp_path / "c.svg"
    code, out, _ = run(
        capsys, "render", "circle", "--model", "A", "--n", "5",
        "--blocks", "1,4|2,3|5", "--out", str(out_file),
    )
    assert code == 0
    assert out_file.read_text().startswith("<svg")


def test_render_strip_files(tmp_path, capsys):
    prefix = tmp_path / "strip"
    code, out, _ = run(
        capsys, "render", "strip", "--series", "A", "--rank", "5", "--r", "4",
        "--t", "1", "--index", "0", "--out", str(prefix),
    )
    assert code == 0
    assert (tmp_path / "strip0.svg").exists()
    assert (tmp_path / "strip0.txt").exists()


@pytest.mark.parametrize("index", ["99", "-1"])
def test_render_strip_index_out_of_range(tmp_path, capsys, index):
    prefix = tmp_path / "strip"
    code, out, err = run(
        capsys, "render", "strip", "--series", "A", "--rank", "5", "--r", "4",
        "--t", "1", "--index", index, "--out", str(prefix),
    )
    assert code == 2
    assert "6 thick subcategories" in err
    assert out == "" and list(tmp_path.iterdir()) == []


# exit-code contract ------------------------------------------------------


@pytest.mark.parametrize("argv,written", [
    (["render", "circle", "--model", "A", "--n", "5", "--blocks", "1,4|2,3|5"], ""),
    (["render", "strip", "--series", "A", "--rank", "5", "--r", "4", "--t", "1"], "0.svg"),
], ids=["circle", "strip"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, written):
    out = tmp_path / "missing" / "x"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 1 and stdout == ""
    assert err == f"error: cannot write {out}{written}: {os.strerror(errno.ENOENT)}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n,read", [("9", 1), ("3", 0)])
def test_closed_stdout_ends_quietly_with_exit_0(n, read):
    # n = 9 prints 4,862 partitions, far more than a pipe buffers, so the
    # writes after the first line fail; n = 3 prints 5 lines, all still
    # buffered when its reader closes the pipe without reading.  stdout
    # keeps its default block buffering, as under a shell pipe
    src = os.path.dirname(os.path.dirname(thicket.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "thicket", "enumerate", "--model", "A", "--n", n],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = [proc.stdout.readline() for _ in range(read)]
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0 and err == ""
    assert [json.loads(line)["n"] for line in lines] == [int(n)] * read



def test_usage_error_exit_code(capsys):
    assert main(["count", "--series", "A"]) == 1
    capsys.readouterr()


def test_invalid_type_exit_code(capsys):
    code, _, err = run(capsys, "count", "--series", "A", "--rank", "4", "--r", "1", "--t", "2")
    assert code == 2
    assert "error" in err


def test_invalid_partition_exit_code(capsys):
    code, _, err = run(
        capsys, "render", "circle", "--model", "A", "--n", "4",
        "--blocks", "1,2|2,3", "--out", "/tmp/never.svg",
    )
    assert code == 2


@pytest.mark.parametrize("model,n,blocks", [
    ("A", "3", "1,2||3"),
    ("D", "4", "1|-1|2|-2|3|-3|4|-4|"),
])
def test_empty_block_is_not_a_partition(tmp_path, capsys, model, n, blocks):
    code, out, err = run(
        capsys, "render", "circle", "--model", model, "--n", n,
        "--blocks", blocks, "--out", str(tmp_path / "c.svg"),
    )
    assert code == 2 and "empty" in err
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag,argv", [
    ("--window", ["render", "strip", "--series", "A", "--rank", "3", "--r", "1", "--t", "1",
                  "--window", "3"]),
    ("--window", ["render", "strip", "--series", "A", "--rank", "3", "--r", "1", "--t", "1",
                  "--window", "a:b"]),
    ("--window", ["render", "strip", "--series", "A", "--rank", "3", "--r", "1", "--t", "1",
                  "--window", "5:5"]),
    ("--blocks", ["render", "circle", "--model", "A", "--n", "3", "--blocks", "1,x|2"]),
    ("--n", ["enumerate", "--model", "A", "--n", "0"]),
    ("--n", ["render", "circle", "--model", "A", "--n", "0", "--blocks", "1"]),
    ("--max-rank", ["table", "--check", "--max-rank", "0"]),
    ("--max-r", ["table", "--check", "--max-r", "0"]),
    ("--max-rank", ["verify", "--max-rank", "-3"]),
    ("--blocks", ["render", "circle", "--model", "A", "--n", "3", "--blocks", "1,,2|3"]),
])
def test_malformed_flag_is_a_usage_error(tmp_path, capsys, flag, argv):
    out_flag = ["--out", str(tmp_path / "out")] if argv[0] == "render" else []
    code, out, err = run(capsys, *argv, *out_flag)
    assert code == 1
    assert f"argument {flag}:" in err
    assert out == "" and list(tmp_path.iterdir()) == []


def test_internal_value_error_is_not_invalid_input(monkeypatch):
    def broken(n):
        raise ValueError("injected internal fault")

    monkeypatch.setattr(cli, "enumerate_nc_a", broken)
    with pytest.raises(ValueError, match="injected internal fault"):
        main(["enumerate", "--model", "A", "--n", "3"])


E7 = ("--series", "E", "--rank", "7", "--r", "1", "--t", "1")


@pytest.mark.parametrize("argv", [
    ("classify", *E7),
    ("count", *E7, "--check"),
    ("render", "strip", *E7, "--index", "0", "--out"),
    ("table", "--check", "--max-rank", "7"),
], ids=["classify", "count-check", "render-strip", "table-check"])
def test_enumerating_commands_accept_e7(tmp_path, capsys, argv):
    # (E7, 1, 1) has the two trivial thick subcategories and no other
    out_flag = [str(tmp_path / "x")] if argv[-1] == "--out" else []
    code, out, err = run(capsys, *argv, *out_flag)
    assert code == 0 and err == ""
    if argv[0] == "classify":
        sizes = sorted(len(json.loads(line)["roots"]) for line in out.splitlines())
        assert sizes == [0, 63]
    elif argv[0] == "count":
        assert out == "2\n"
    elif argv[0] == "render":
        assert out == f"{tmp_path / 'x'}0.svg\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x0.svg", "x0.txt"]
    else:
        assert out.endswith("all table cells agree with enumeration up to rank 7\n")


def test_plain_count_needs_no_cap(capsys):
    code, out, _ = run(capsys, "count", *E7)
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "count", "--series", "E", "--rank", "8", "--r", "30", "--t", "1")
    assert code == 0 and out.strip() == "25080"
