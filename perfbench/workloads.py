"""The benchmark workloads: set-up, timed phase and output checks.

Each workload reaches the layers only through their public functions.
Sizes are fixed; the seed only orders the work and picks the sampled
partitions, so every seed attempts the same ops and expects the same
outputs.  ``setup`` runs before the timed phase, ``timed`` is the
measured phase, ``check`` compares its outputs with the expected values
and counts every op whose output is wrong (or whose call raised) as
failed.
"""

import hashlib
import sys
import traceback
from collections import Counter, namedtuple
from functools import partial
from math import comb, gcd
from time import perf_counter

from thicket.classifier import (
    CategoryType,
    NoClosedForm,
    admissible_types_for_rank,
    catalan,
    catalan_d,
    count_thick_formula,
    enumerate_thick,
    reduce_criterion,
)
from thicket.derived_engine import (
    brute_force_classify,
    build_label_walk,
    cluster_category_check,
)
from thicket.ncp_models import (
    ar_bijection_f,
    ar_bijection_g,
    brady_f,
    brady_g,
    construct_fiber,
    enumerate_nc_a,
    enumerate_nc_b,
    kreweras_alpha,
    kreweras_alpha_inverse,
    rotation_period_a,
)
from thicket.render import ascii_ar_strip, render_ar_strip, render_circle
from thicket.root_coxeter import (
    DynkinType,
    build_root_system,
    enumerate_nc,
    roots_below,
)

MAX_WITNESSES = 20


class Round:
    """What one round of a workload did: ops, failures, latencies, counts."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.latencies = []  # scaled seconds (see clock.py), one sample per op
        self._spans = []  # (start, end, ops) of the ops timed so far, until scaled
        self.counts = Counter()
        self.witnesses = []

    def fail(self, ops, witness):
        self.failed += ops
        if len(self.witnesses) < MAX_WITNESSES:
            self.witnesses.append(witness)

    def op(self, start, end, ops=1):
        """Record ops timed from start to end (perf_counter times); ops made
        in one batch each count at the batch's mean."""
        self._spans.append((start, end, ops))

    def scale(self, clock):
        """Turn the ops recorded so far into scaled latency samples."""
        for start, end, ops in self._spans:
            self.latencies += [clock.scaled(start, end) / ops] * ops
        self._spans = []

    def raised(self, ops, what):
        """Record an op whose layer call raised; the traceback goes to stderr."""
        print(f"{what} raised:\n{traceback.format_exc()}", file=sys.stderr)
        self.fail(ops, f"{what}: raised {sys.exc_info()[1]!r}")


def _thick_span(ct):
    return "classifier.enumerate_thick/" + reduce_criterion(ct).mode


def _warm_interval(delta, rnd):
    """Build a type's root system and its interval [id, cox]."""
    tr = rnd.tracer
    with tr.span("root_coxeter.build"):
        rs = build_root_system(delta)
    with tr.span("root_coxeter.enumerate_nc"):
        elements = enumerate_nc(rs)
    rnd.counts["root_coxeter.elements"] += len(elements)
    return rs, elements


# -- classify_sweep -----------------------------------------------------

SWEEP_MAX_RANK = 6
SWEEP_REPEATS = 2


def sweep_setup(rnd):
    """Warm the interval and root sets of every admissible type of rank
    <= SWEEP_MAX_RANK; return the cells and, per type, (rs, elements, roots)."""
    types = [t for n in range(1, SWEEP_MAX_RANK + 1) for t in admissible_types_for_rank(n)]
    intervals = {}
    for series, rank in sorted({(s, k) for s, k, _ in types}):
        delta = DynkinType(series, rank)
        rs, elements = _warm_interval(delta, rnd)
        roots = {}
        for w in elements:
            with rnd.tracer.span("root_coxeter.roots_below"):
                roots[w] = roots_below(rs, w)
        rnd.counts["root_coxeter.roots_below_calls"] += len(elements)
        with rnd.tracer.span("derived_engine.label_walk"):
            build_label_walk(delta)
        intervals[delta] = (rs, elements, roots)
    cells = []
    for series, rank, t in types:
        delta = DynkinType(series, rank)
        for r in range(1, 2 * delta.coxeter_number + 1):
            cells.append(CategoryType(delta, r, t))
    return cells, intervals


def interval_size(delta):
    """|[id, cox]|, the Catalan number of the type (E6 is the one E type
    of rank <= SWEEP_MAX_RANK)."""
    if delta.series == "A":
        return catalan(delta.rank + 1)
    if delta.series == "D":
        return catalan_d(delta.rank)
    return 833


def interval_problems(delta, rs, elements, roots):
    """What is wrong with a warm interval and its root sets, if anything."""
    problems = []
    if len(elements) != interval_size(delta):
        problems.append(f"interval has {len(elements)} elements, expected {interval_size(delta)}")
    if len(set(roots.values())) != len(elements):
        problems.append("two interval elements share a root set")
    if roots.get(rs.identity) != frozenset():
        problems.append("roots_below(id) is not empty")
    if roots.get(rs.cox) != frozenset(rs.positives):
        problems.append("roots_below(cox) is not every positive root")
    return problems


def _formula(ct):
    try:
        return count_thick_formula(ct)
    except NoClosedForm:
        return None


def sweep_timed(state, rng, rnd):
    """Classify every cell SWEEP_REPEATS times, each time in a new seeded
    order; one op (and one latency sample) per cell and sweep.

    The cluster-category check alternates the two orbit constructions
    the test suite uses: power 1 for odd r, power 2 for even r.
    """
    cells, intervals = state
    tr = rnd.tracer
    out = []
    for ct in (ct for _ in range(SWEEP_REPEATS) for ct in rng.sample(cells, len(cells))):
        rs, elements, _ = intervals[ct.delta]
        span = _thick_span(ct)
        t0 = perf_counter()
        try:
            with tr.span("harness.cell"):
                with tr.span(span):
                    thick = enumerate_thick(ct)
                with tr.span("root_coxeter.roots_below_warm"):
                    warm = [roots_below(rs, d.nc) for d in thick]
                with tr.span("derived_engine.brute_force"):
                    brute = brute_force_classify(ct)
                with tr.span("classifier.formula"):
                    formula = _formula(ct)
                cluster = None
                if ct.delta.series != "E":
                    with tr.span("derived_engine.cluster_check"):
                        cluster = cluster_category_check(ct.delta, 1 + (ct.r - 1) % 2)
        except Exception:
            rnd.raised(1, str(ct))
            continue
        rnd.op(t0, perf_counter())
        rnd.counts["classifier.enumerate_thick_calls"] += 1
        rnd.counts["classifier.kept"] += len(thick)
        rnd.counts["classifier.scanned"] += len(elements)
        rnd.counts["derived_engine.brute_force_calls"] += 1
        rnd.counts["derived_engine.invariant_found"] += len(brute)
        out.append((ct, thick, warm, brute, formula, cluster))
    rnd.attempted += SWEEP_REPEATS * len(cells)
    return intervals, out


def _tabulated_cat_d_minus_one(ct):
    """Is the tabulated answer of this D cell Cat(D_{n-1})?"""
    n, h, r = ct.delta.rank, ct.delta.coxeter_number, ct.r
    if ct.t == 1:
        return n % 2 == 1 and gcd(h, r) == n - 1
    if n % 2 == 1:
        return gcd(h, r + n - 1) == n - 1
    return r % h in (0, n - 1)


def expected_count(ct, formula):
    """The exhaustive count: the closed formula except on the erratum cells.

    The erratum cells are the D cells tabulated as Cat(D_{n-1}), where
    the count is binomial(2n-2, n-1), and (D4, r, 3) with 3 not dividing
    r, where it is 5 (README, criteria 6 and 7).  Series E has no
    formula; None means only the set comparison applies.
    """
    d = ct.delta
    if ct.t == 3:
        return 8 if ct.r % 3 == 0 else 5
    if d.series == "D" and _tabulated_cat_d_minus_one(ct):
        return comb(2 * d.rank - 2, d.rank - 1)
    return formula


def sweep_check(results, rnd):
    """A cell fails on a wrong output, or when its type's interval fails
    its checks (each such type is also reported once)."""
    intervals, cells = results
    bad = set()
    for delta, interval in intervals.items():
        problems = interval_problems(delta, *interval)
        if problems:
            bad.add(delta)
            rnd.fail(0, f"{delta}: {'; '.join(problems)}")
    for ct, thick, warm, brute, formula, cluster in cells:
        problems = [f"interval of {ct.delta} failed its checks"] if ct.delta in bad else []
        kept = {d.nc.matrix for d in thick}
        if len(kept) != len(thick) or kept != {d.nc.matrix for d in brute}:
            problems.append("enumerate_thick differs from brute_force_classify")
        if any(w != d.roots for w, d in zip(warm, thick)):
            problems.append("descriptor roots differ from roots_below")
        want = expected_count(ct, formula)
        if want is not None and len(thick) != want:
            problems.append(f"count {len(thick)}, expected {want}")
        if cluster is not None and not (cluster.passed and cluster.total == 2):
            problems.append(cluster.summary())
        if problems:
            rnd.fail(1, f"{ct}: {'; '.join(problems)}")


# -- partitions_render --------------------------------------------------

NC_A_MAX = 11
NC_B_MAX = 6
KREWERAS_N = 9
KREWERAS_SAMPLE = 4000
FIBERS = ((2, 2), (2, 3), (3, 2), (4, 2), (3, 3), (5, 2))
CIRCLE_A_N = 8
STRIP_TYPE = ("A", 5, 4, 1)
STRIP_COUNT = 6  # thick subcategories of (A5, 4, 1)
ROUNDTRIPS = {
    "brady": ("A", 5, brady_f, brady_g),
    "ar": ("D", 5, ar_bijection_f, ar_bijection_g),
}

# sha256 of the rendered SVG and ASCII output, recorded at the commit
# that introduced this benchmark; rendering must stay byte-identical
RENDER_DIGESTS = {
    "circle_A": "2d571c673225101636f4c5682521dd1771ad894b4fe0356c4924cc04ed95df5d",
    "circle_D": "6a815437e7c618fa107b839ad0ed24c9a9f56afd0666fc59ca2e29dd5b521a44",
    "strip": "bbeed609602b4698b625ddde951276f76e8f06341ae525713a4b0f1ca5d6576d",
}


def partitions_setup(rnd):
    """Inputs of the individually timed ops: small A models, A5 and D5."""
    nc_a = {}
    for n in sorted({KREWERAS_N, CIRCLE_A_N} | {s for s, _ in FIBERS}):
        with rnd.tracer.span("ncp_models.enumerate_nc_a"):
            nc_a[n] = enumerate_nc_a(n)
    intervals = {key: _warm_interval(DynkinType(series, rank), rnd)
                 for key, (series, rank, _, _) in ROUNDTRIPS.items()}
    return nc_a, intervals


def _timed_op(rnd, span, what, call, *args):
    """Run one individually timed op; returns its output, or None if it raised.

    A raised op is not counted here: its group check counts it missing.
    """
    t0 = perf_counter()
    try:
        with rnd.tracer.span(span):
            result = call(*args)
    except Exception:
        rnd.raised(0, what)
        return None
    rnd.op(t0, perf_counter())
    return result


def _roundtrip(forward, inverse, x):
    y = forward(x)
    return y, inverse(y)


def _strip(desc, window, domain_width):
    return (render_ar_strip(desc, window, domain_width=domain_width),
            ascii_ar_strip(desc, window))


def _kreweras_ops(state, rng, rnd, out):
    nc_a, _ = state
    for p in rng.sample(nc_a[KREWERAS_N], KREWERAS_SAMPLE):
        pair = _timed_op(rnd, "ncp_models.kreweras", f"Kreweras round trip of {p.blocks}",
                         _roundtrip, kreweras_alpha, kreweras_alpha_inverse, p)
        if pair is not None:
            out["kreweras"].append((p, pair[1]))


def _fiber_ops(state, rng, rnd, out):
    nc_a, _ = state
    for s, x in FIBERS:
        for w in nc_a[s]:
            fiber = _timed_op(rnd, "ncp_models.fiber", f"fiber of {w.blocks} at x={x}",
                              construct_fiber, w, x)
            if fiber is not None:
                out["fibers"].append((s, w, fiber))


def _circle_op(rnd, out, kind, p):
    svg = _timed_op(rnd, "render.circle", f"circle of {p.blocks}", render_circle, p, kind)
    if svg is not None:
        rnd.counts["render.svg_bytes"] += len(svg)
        out["circles"].append((kind, p.blocks, svg))


def _roundtrip_ops(key, state, rng, rnd, out):
    """Round trips on A5 or D5; each D5 partition is then drawn as a circle."""
    series, rank, forward, invert = ROUNDTRIPS[key]
    rs, elements = state[1][key]
    for w in rng.sample(elements, len(elements)):
        pair = _timed_op(rnd, f"ncp_models.{key}_roundtrip", f"{key} round trip in {series}{rank}",
                         _roundtrip, partial(forward, rs), partial(invert, rs), w)
        if pair is not None:
            out[key].append((w, pair[1]))
            if key == "ar":
                _circle_op(rnd, out, "D", pair[0])


def _circle_a_ops(state, rng, rnd, out):
    nc_a, _ = state
    for p in rng.sample(nc_a[CIRCLE_A_N], len(nc_a[CIRCLE_A_N])):
        _circle_op(rnd, out, "A", p)


def _strip_ops(state, rng, rnd, out):
    series, rank, r, t = STRIP_TYPE
    ct = CategoryType(DynkinType(series, rank), r, t)
    window = (0, 2 * ct.delta.coxeter_number)
    try:
        with rnd.tracer.span(_thick_span(ct)):
            descs = enumerate_thick(ct)
        rnd.counts["classifier.enumerate_thick_calls"] += 1
    except Exception:
        rnd.raised(0, f"classification of {ct}")
        descs = []
    out["strip_classes"] = len(descs)
    for i, d in enumerate(descs):
        pair = _timed_op(rnd, "render.strip", f"strip {i} of {ct}", _strip, d, window, ct.r)
        if pair is not None:
            rnd.counts["render.svg_bytes"] += len(pair[0])
            out["strips"].append((i,) + pair)


# the groups of individually timed ops; each takes (state, rng, rnd, out)
PARTITION_OP_GROUPS = (
    _kreweras_ops,
    _fiber_ops,
    partial(_roundtrip_ops, "brady"),
    partial(_roundtrip_ops, "ar"),
    _circle_a_ops,
    _strip_ops,
)


def partitions_timed(state, rng, rnd):
    """Partition models, bijection round trips and rendering.

    The enumeration batches (NC_A with rotation periods, then NC_B) run
    first, then the groups of individually timed ops (Kreweras, fiber,
    Brady and Athanasiadis-Reiner round trips, circles, strips) in a
    seeded order.  Each partition a batch makes is one op, and its
    latency sample is the batch's mean.
    """
    tr = rnd.tracer
    out = {"nc_a": {}, "periods": {}, "nc_b": {}, "kreweras": [], "fibers": [],
           "brady": [], "ar": [], "circles": [], "strips": []}
    steps = [("A", n) for n in range(1, NC_A_MAX + 1)] + [("B", n) for n in range(1, NC_B_MAX + 1)]
    for model, n in steps:
        t0 = perf_counter()
        try:
            if model == "A":
                with tr.span("ncp_models.enumerate_nc_a"):
                    ps = enumerate_nc_a(n)
                with tr.span("ncp_models.rotation_period"):
                    out["periods"][n] = Counter(rotation_period_a(p) for p in ps)
                out["nc_a"][n] = len(ps)
            else:
                with tr.span("ncp_models.enumerate_nc_b"):
                    out["nc_b"][n] = len(enumerate_nc_b(n))
        except Exception:
            rnd.raised(0, f"enumeration of NC_{model}({n})")
            continue
        made = out[f"nc_{model.lower()}"][n]
        rnd.op(t0, perf_counter(), made)
        rnd.counts["ncp_models.partitions"] += made
    for group in rng.sample(PARTITION_OP_GROUPS, len(PARTITION_OP_GROUPS)):
        group(state, rng, rnd, out)
    return out


def _digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


def render_digests(out):
    """Seed-independent digests of everything rendered in a round."""
    circles = sorted((kind, blocks, svg) for kind, blocks, svg in out["circles"])
    return {
        "circle_A": _digest(c for c in circles if c[0] == "A"),
        "circle_D": _digest(c for c in circles if c[0] == "D"),
        "strip": _digest(sorted(out["strips"])),
    }


def _rotation_counts_hold(h, periods):
    """The rotation-count theorem for NC(h) and every r <= 2h."""
    for r in range(1, 2 * h + 1):
        s = gcd(h, r)
        want = catalan(h) if s == h else comb(2 * s, s)
        if sum(c for d, c in periods.items() if s % d == 0) != want:
            return False
    return True


def partitions_check(out, rnd):
    """Count, per group of ops, the expected ops minus the ones that passed.

    A group checked only as a whole (a size, the rotation-count theorem,
    a render digest) fails with all its ops.
    """
    digests = render_digests(out)
    groups = []  # (name, expected ops, ops that passed)
    for n in range(1, NC_A_MAX + 1):
        ok = out["nc_a"].get(n) == catalan(n) and _rotation_counts_hold(n, out["periods"][n])
        groups.append((f"NC_A({n}) count and rotation counts", catalan(n), catalan(n) * ok))
    for n in range(1, NC_B_MAX + 1):
        want = comb(2 * n, n)
        groups.append((f"NC_B({n}) count", want, want * (out["nc_b"].get(n) == want)))
    groups.append(("Kreweras round trips", KREWERAS_SAMPLE,
                   sum(back == p for p, back in out["kreweras"])))
    groups.append(("fibers of size s+1", sum(catalan(s) for s, _ in FIBERS),
                   sum(len(set(f)) == len(f) == s + 1 for s, _, f in out["fibers"])))
    groups.append(("Brady round trips", catalan(6), sum(b == w for w, b in out["brady"])))
    groups.append(("Athanasiadis-Reiner round trips", catalan_d(5),
                   sum(b == w for w, b in out["ar"])))
    for name, kind, want in (("circle_A", "A", catalan(CIRCLE_A_N)), ("circle_D", "D", catalan_d(5))):
        complete = sum(svg.startswith("<svg") and svg.endswith("</svg>\n")
                       for k, _, svg in out["circles"] if k == kind)
        groups.append((f"{name} renders", want, complete * (digests[name] == RENDER_DIGESTS[name])))
    strips_ok = out.get("strip_classes") == STRIP_COUNT and digests["strip"] == RENDER_DIGESTS["strip"]
    groups.append(("strip renders", STRIP_COUNT, len(out["strips"]) * strips_ok))
    for name, want, ok in groups:
        rnd.attempted += want
        if ok < want:
            rnd.fail(want - ok, f"{name}: {want - ok} of {want} ops failed")


Workload = namedtuple("Workload", "setup timed check")


WORKLOADS = {
    "classify_sweep": Workload(sweep_setup, sweep_timed, sweep_check),
    "partitions_render": Workload(partitions_setup, partitions_timed, partitions_check),
}
