"""Command-line interface: enumerate, count, classify, render, verify, table.

Exit codes: 0 success, 1 usage error, 2 invalid mathematical input,
3 verification mismatch.
"""

import argparse
import json
import os
import re
import sys
from math import comb, gcd, prod

from . import classifier, derived_engine, ncp_models, render
from .classifier import (
    CategoryType,
    classification_report,
    count_thick,
    enumerate_thick,
    overview_markdown,
    overview_table,
)
from .derived_engine import (
    automorphisms,
    build_label_walk,
    cluster_category_check,
    suspension_vertex_map,
)
from .ncp_models import (
    DPartition,
    SetPartitionA,
    ar_bijection_f,
    construct_fiber,
    enumerate_nc_a,
    enumerate_nc_b,
    interval_report,
    rotate_a,
    rotation_period_a,
)
from .root_coxeter import (
    DynkinType,
    InvalidInput,
    build_root_system,
    enumerate_nc,
)

USAGE_ERROR = 1
MATH_ERROR = 2
MISMATCH = 3


class IndexOutOfRange(InvalidInput):
    pass


class _Unwritable(Exception):
    """An --out file that cannot be opened for writing: a usage error."""


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Unwritable(f"cannot write {path}: {exc.strerror}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _positive_int(raw):
    if not re.fullmatch(r"\d+", raw) or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")
    return int(raw)


def _window(raw):
    match = re.fullmatch(r"(-?\d+):(-?\d+)", raw)
    if not match or int(match[1]) >= int(match[2]):
        raise argparse.ArgumentTypeError(f"expected lo:hi with integers lo < hi, got {raw!r}")
    return int(match[1]), int(match[2])


def _blocks(raw):
    try:
        # a whole empty part is left for NotAPartition; an empty member is malformed
        return tuple(
            tuple(int(x) for x in part.split(",")) if part.strip() else ()
            for part in raw.split("|")
        )
    except ValueError:
        msg = f"expected comma lists of integers joined by '|', got {raw!r}"
        raise argparse.ArgumentTypeError(msg) from None


def _mismatch_lines(ct, report):
    """The cell and its three counts, then one line per witness."""
    lines = [
        f"mismatch for {ct}: formula={report['count_formula']} "
        f"enumerated={report['count_enumerated']} "
        f"brute_force={report['count_brute_force']}"
    ]
    for w in report["witnesses"]:
        lines.append(f"kept only by {w['kept_by']}: element {w['nc']['matrix']} roots {w['roots']}")
    return lines


def _disagreements(cells):
    """The _mismatch_lines of each cell whose classification report
    disagrees, in cell order."""
    reports = ((ct, classification_report(ct)) for ct in cells)
    return [_mismatch_lines(ct, report) for ct, report in reports if not report["agree"]]


def _category_type(args):
    return CategoryType(DynkinType(args.series, args.rank), args.r, args.t)


def _add_type_flags(p):
    p.add_argument("--series", required=True, choices=["A", "D", "E"])
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--r", required=True, type=int)
    p.add_argument("--t", required=True, help="torsion order: 1, 2, 3 or inf")


def build_parser():
    top = _Parser(prog="thicket", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count thick subcategories")
    _add_type_flags(p)
    p.add_argument("--proper", action="store_true", help="exclude the two trivial ones")
    p.add_argument("--json", action="store_true")
    p.add_argument("--check", action="store_true",
                   help="cross-check formula, enumeration and brute force")

    p = sub.add_parser("enumerate", help="list circular partitions as JSON lines")
    p.add_argument("--model", required=True, choices=["A", "B", "D"])
    p.add_argument("--n", required=True, type=_positive_int)

    p = sub.add_parser("classify", help="emit one descriptor JSON per thick subcategory")
    _add_type_flags(p)
    p.add_argument("--json", action="store_true", help="accepted for symmetry; output is JSON lines")

    p = sub.add_parser("render", help="write SVG (and ASCII for strips)")
    rsub = p.add_subparsers(dest="what", required=True)
    c = rsub.add_parser("circle")
    c.add_argument("--model", required=True, choices=["A", "D"])
    c.add_argument("--n", required=True, type=_positive_int)
    c.add_argument("--blocks", required=True, type=_blocks,
                   help="blocks as comma lists joined by '|', e.g. '1,4|2,3|5'")
    c.add_argument("--out", required=True)
    s = rsub.add_parser("strip")
    _add_type_flags(s)
    s.add_argument("--index", type=int, default=None,
                   help="which thick subcategory (enumeration order); all if omitted")
    s.add_argument("--window", type=_window, default=None, help="column range lo:hi")
    s.add_argument("--out", required=True, help="output file prefix")

    p = sub.add_parser("table", help="overview of criteria and counts per type")
    p.add_argument("--json", action="store_true")
    p.add_argument("--check", action="store_true",
                   help="evaluate count cells on a grid against enumeration")
    p.add_argument("--max-rank", type=_positive_int, default=5)
    p.add_argument("--max-r", type=_positive_int, default=12)

    p = sub.add_parser("verify", help="run the cross-check battery")
    p.add_argument("--max-rank", type=_positive_int, default=4)
    p.add_argument("--json", action="store_true")
    return top


def cmd_count(args):
    ct = _category_type(args)
    shown = count_thick(ct, proper=args.proper)
    if args.check:
        report = classification_report(ct)
        print(json.dumps(report, sort_keys=True) if args.json else shown)
        if not report["agree"]:
            print("\n  ".join(_mismatch_lines(ct, report)), file=sys.stderr)
            return MISMATCH
        return 0
    if args.json:
        doc = {"type": ct.to_json(), "count": shown, "proper": args.proper}
        print(json.dumps(doc, sort_keys=True))
    else:
        print(shown)
    return 0


def cmd_enumerate(args):
    if args.model == "D":
        rs = build_root_system(DynkinType("D", args.n))
        partitions = (ar_bijection_f(rs, w) for w in enumerate_nc(rs))
    else:
        partitions = {"A": enumerate_nc_a, "B": enumerate_nc_b}[args.model](args.n)
    for p in partitions:
        print(json.dumps(p.to_json()))
    return 0


def cmd_classify(args):
    ct = _category_type(args)
    for desc in enumerate_thick(ct):
        print(json.dumps(desc.to_json(ct), sort_keys=True))
    return 0


def cmd_render(args):
    if args.what == "circle":
        partition = {"A": SetPartitionA, "D": DPartition}[args.model](args.n, args.blocks)
        _write(args.out, render.render_circle(partition, kind=args.model))
        print(args.out)
        return 0
    ct = _category_type(args)
    window = args.window or (0, 2 * ct.delta.coxeter_number)
    descs = enumerate_thick(ct)
    if args.index is not None and not 0 <= args.index < len(descs):
        raise IndexOutOfRange(
            f"--index {args.index} is out of range: {ct} has {len(descs)} "
            f"thick subcategories, indexed 0 to {len(descs) - 1}"
        )
    for idx in range(len(descs)) if args.index is None else [args.index]:
        desc = descs[idx]
        _write(f"{args.out}{idx}.svg", render.render_ar_strip(desc, window, domain_width=ct.r))
        _write(f"{args.out}{idx}.txt", render.ascii_ar_strip(desc, window))
        print(f"{args.out}{idx}.svg")
    return 0


def cmd_table(args):
    cells = [
        CategoryType(DynkinType(series, rank), r, t)
        for n in range(1, args.max_rank + 1)
        for r in range(1, args.max_r + 1)
        for series, rank, t in classifier.admissible_types_for_rank(n)
    ] if args.check else []
    rows = overview_table()
    if args.json:
        print(json.dumps(list(rows), indent=2))
    else:
        print(overview_markdown(), end="")
    if not args.check:
        return 0
    bad = _disagreements(cells)
    if bad:
        print("\n".join("\n  ".join(lines) for lines in bad), file=sys.stderr)
        return MISMATCH
    print(f"all table cells agree with enumeration up to rank {args.max_rank}")
    return 0


# -- verify battery -----------------------------------------------------


def _verified_types(max_rank):
    """The Dynkin types verify checks: series A and D up to rank
    max_rank, and E6, E7 and E8 on every run."""
    return (
        [DynkinType("A", n) for n in range(1, max_rank + 1)]
        + [DynkinType("D", n) for n in range(4, max_rank + 1)]
        + [DynkinType("E", n) for n in (6, 7, 8)]
    )


def _check_partition_counts(max_rank):
    n = max(4, min(8, max_rank + 3))
    ok = all(len(enumerate_nc_a(k)) == classifier.catalan(k) for k in range(1, n + 1))
    ok = ok and all(len(enumerate_nc_b(k)) == comb(2 * k, k) for k in range(1, n + 1))
    return ok, (
        f"A-model counts match Catalan numbers and B-model counts match binom(2k, k) up to n={n}"
    )


def _interval_size(d):
    """|[id, cox]|, the W-Catalan number: prod (h + e) / e over the degrees e."""
    return prod(d.coxeter_number + e for e in d.degrees) // prod(d.degrees)


def _check_interval_counts(max_rank):
    details = []
    for d in _verified_types(max_rank):
        got = len(enumerate_nc(build_root_system(d)))
        if got != _interval_size(d):
            details.append(f"{d}: {got} != {_interval_size(d)}")
    listed = f" ({'; '.join(details)})" if details else ""
    return not details, f"interval sizes match the type counts{listed}"


def _check_rotation_counts(max_rank):
    hmax = min(10, max(6, max_rank + 4))
    for h in range(2, hmax + 1):
        periods = [rotation_period_a(p) for p in enumerate_nc_a(h)]
        for r in range(1, h + 1):
            s = gcd(h, r)
            got = sum(1 for d in periods if s % d == 0)
            want = classifier.catalan(h) if s == h else comb(2 * s, s)
            if got != want:
                return False, f"rotation count failed at h={h}, r={r}"
    return True, f"rotation-invariant counts match binomials up to h={hmax}"


def _check_bijections(max_rank):
    sides = [
        ("A", range(1, min(4, max_rank) + 1), ncp_models.brady_f, ncp_models.brady_g),
        ("D", range(4, min(5, max_rank) + 1), ar_bijection_f, ncp_models.ar_bijection_g),
    ]
    for series, ranks, f, g in sides:
        for n in ranks:
            rs = build_root_system(DynkinType(series, n))
            if not interval_report(f"round trip ({rs.delta})", rs, lambda w: g(rs, f(rs, w)) == w).passed:
                return False, f"{series}-side roundtrip failed at rank {n}"
    return True, "partition bijections invert on both sides"


def _check_commuting_squares(max_rank):
    f = ncp_models.brady_f
    for n in range(2, min(5, max_rank) + 1):
        rs = build_root_system(DynkinType("A", n))
        cox, coxinv = rs.cox, rs.cox.inverse()
        square = interval_report(
            f"rotation square ({rs.delta})", rs, lambda w: f(rs, cox * w * coxinv) == rotate_a(f(rs, w), 1)
        )
        if not square.passed:
            return False, f"rotation square failed for A{n}"
    for n in range(4, min(5, max_rank) + 1):
        rs = build_root_system(DynkinType("D", n))
        for check in (ncp_models.coxeter_conjugation_is_sigma_rho, derived_engine.phi_fixes_sigma_on_nc):
            rep = check(rs)
            if not rep.passed:
                return False, rep.summary()
    return True, "conjugation and arm-swap squares commute"


def _check_engine_identities(max_rank):
    for d in _verified_types(max_rank):
        lab = build_label_walk(d)
        rs = build_root_system(d)
        for shift in (0, 1):
            if sorted(lab.layer_roots(shift)) != sorted(rs.positives):
                return False, f"label layer failed for {d}"
        # S^2 = tau^-h holds by construction; check what defines S
        s_map = suspension_vertex_map(d)
        for m in range(lab.h):
            for q in range(1, d.rank + 1):
                root, shift = lab.label(m, q)
                if lab.label(*s_map(m, q)) != (root, shift + 1):
                    return False, f"suspension does not fix the root and raise the shift at {(m, q)} for {d}"
    return True, "label layers biject and the suspension fixes every root and raises every shift by one"


def _check_classification(max_rank):
    bad = ["; ".join(lines) for lines in _disagreements(
        CategoryType(d, r, t)
        for d in _verified_types(max_rank)
        for t in automorphisms(d)
        for r in range(1, 2 * d.coxeter_number + 1)
    )]
    if bad:
        return False, f"classification disagrees: {' | '.join(bad[:5])}"
    triality = " (the triality (D4, r, 3) included)" if max_rank >= 4 else ""
    return True, (
        f"criterion equals brute force and the count formula equals enumeration"
        f" for all admissible types up to rank {max_rank}{triality} and for series E (E6, E7, E8)"
    )


def _check_cluster(max_rank):
    for d in _verified_types(max_rank):
        for power in (1, 2):
            rep = cluster_category_check(d, power)
            if not rep.passed or rep.total != 2:
                return False, rep.summary()
    return True, "shift-translate orbits admit only the two trivial invariant sets"


def _check_fibers(max_rank):
    for s, x in ((2, 2), (2, 3), (3, 2)):
        for w in enumerate_nc_a(s):
            fib = construct_fiber(w, x)
            if len(fib) != s + 1:
                return False, f"fiber size failed at s={s}, x={x}"
    return True, "rotation fibers have the stated size and project back"


def cmd_verify(args):
    checks = [
        _check_partition_counts,
        _check_interval_counts,
        _check_rotation_counts,
        _check_bijections,
        _check_commuting_squares,
        _check_engine_identities,
        _check_classification,
        _check_cluster,
        _check_fibers,
    ]
    results = []
    for fn in checks:
        ok, msg = fn(args.max_rank)
        results.append({"check": fn.__name__.lstrip("_"), "ok": ok, "detail": msg})
        status = "ok" if ok else "FAIL"
        print(f"[{status}] {msg}")
    failed = not all(r["ok"] for r in results)
    if args.json:
        print(json.dumps(results, indent=2))
    print("all checks passed" if not failed else "verification failed")
    return MISMATCH if failed else 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    handlers = {
        "count": cmd_count,
        "enumerate": cmd_enumerate,
        "classify": cmd_classify,
        "render": cmd_render,
        "table": cmd_table,
        "verify": cmd_verify,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MATH_ERROR
    except _Unwritable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # stdout's reader is gone (the flush above catches a short output
        # too); devnull takes the rest, so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
