"""Acceptance suite: one test per numbered criterion, printed pass/fail.

Criteria 6 and 7 check the D-series closed forms with the corrections
of README's erratum: the paper's table prints Cat(D_{n-1}) at the
half-turn D cells and 2 at (D_4, r, 3) with 3 not dividing r, where
the counts are binomial(2n-2, n-1) and 5.  Both enumeration routes and
the Weyl-group oracle of test_independent_oracle.py, which shares no
code with the engine, give the corrected values;
test_engine_arbitrated_values pins them on the engine side.
"""

import json
from math import comb, gcd

import pytest

from thicket.classifier import (
    CategoryType,
    admissible_types_for_rank,
    catalan,
    catalan_d,
    count_thick_formula,
    enumerate_thick,
    overview_markdown,
)
from thicket.derived_engine import (
    brute_force_classify,
    build_label_walk,
    cluster_category_check,
    identity_map,
    phi_map,
    phi_fixes_sigma_on_nc,
    root_permutation,
    suspension_vertex_map,
    tau_power,
)
from thicket.ncp_models import (
    ar_bijection_f,
    ar_bijection_g,
    brady_f,
    brady_g,
    construct_fiber,
    coxeter_conjugation_is_sigma_rho,
    enumerate_nc_a,
    rotate_a,
    rotation_period_a,
    sigma,
)
from thicket.root_coxeter import (
    DynkinType,
    build_root_system,
    enumerate_nc,
    roots_below,
)


def _announce(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {status}{' - ' + detail if detail else ''}")
    return ok


def test_criterion_01_catalan_counts():
    for n in range(1, 11):
        assert len(enumerate_nc_a(n)) == catalan(n)
    for n in range(1, 7):
        rs = build_root_system(DynkinType("A", n - 1)) if n > 1 else None
        if rs is None:
            continue
        assert len(enumerate_nc(rs)) == catalan(n)
    rs = build_root_system(DynkinType("A", 5))
    assert len(enumerate_nc(rs)) == catalan(6) == 132
    assert _announce(1, True, "partition and interval counts are Catalan")


def test_criterion_02_rotation_count_theorem():
    for h in range(1, 13):
        periods = [rotation_period_a(p) for p in enumerate_nc_a(h)]
        for r in range(1, 2 * h + 1):
            s = gcd(h, r)
            got = sum(1 for d in periods if s % d == 0)
            want = catalan(h) if s == h else comb(2 * s, s)
            assert got == want, (h, r, got, want)
    assert _announce(2, True, "invariant counts match the binomial values up to h=12")


def test_criterion_03_a5_tau4_example():
    invariant = [p for p in enumerate_nc_a(6) if rotate_a(p, 2) == p]
    assert len(invariant) == 6
    blocks = {p.blocks for p in invariant}
    assert ((1, 2, 3, 4, 5, 6),) in blocks
    assert ((1,), (2,), (3,), (4,), (5,), (6,)) in blocks
    for p in invariant:
        assert rotate_a(p, 2) in invariant
    # the group side agrees through the support bijection
    ct = CategoryType(DynkinType("A", 5), 4, 1)
    rs = build_root_system(ct.delta)
    images = {brady_f(rs, d.nc).blocks for d in enumerate_thick(ct)}
    assert images == blocks
    assert _announce(3, True, "six invariant partitions, closed under the rotation")


def test_criterion_04_d5_14_2_example():
    from thicket.classifier import reduce_criterion

    ct = CategoryType(DynkinType("D", 5), 14, 2)
    assert reduce_criterion(ct).s == 2
    rs = build_root_system(ct.delta)
    descs = enumerate_thick(ct)
    assert len(descs) == 6
    members = {ar_bijection_f(rs, d.nc).blocks for d in descs}
    shown_a = (
        (1,), (-1,), (3,), (-3,), (2, 4, 5, -2, -4, -5),
    )
    shown_b = ((1, 2), (-1, -2), (3, 4), (-3, -4), (5,), (-5,))
    rejected = ((1, 2, -5), (-1, -2, 5), (3, 4), (-3, -4))
    canon = lambda blocks: tuple(sorted(tuple(sorted(b)) for b in blocks))
    assert canon(shown_a) in members
    assert canon(shown_b) in members
    assert canon(rejected) not in members
    assert _announce(4, True, "the two displayed partitions are kept, the third rejected")


def test_criterion_05_d_catalan_counts():
    for n, expected in ((4, 50), (5, 182), (6, 672)):
        assert catalan_d(n) == comb(2 * n, n) - comb(2 * n - 2, n - 1) == expected
        rs = build_root_system(DynkinType("D", n))
        assert len(enumerate_nc(rs)) == expected
    assert _announce(5, True, "interval sizes 50, 182, 672")


def _d_grid_cells():
    cells = []
    for n in (4, 5, 6):
        d = DynkinType("D", n)
        h = d.coxeter_number
        for t in (1, 2):
            for r in range(1, 2 * h + 1):
                cells.append(CategoryType(d, r, t))
    return cells


def test_criterion_06_d_count_formulas():
    """Closed-form counts versus both enumerations on the full D grid.

    At the plain half-turn criteria (s = n-1 for odd rank with either
    torsion, s in {0, n-1} for even rank with the arm swap) the paper's
    table prints Cat(D_{n-1}); the count is binomial(2(n-1), n-1),
    because mirror-pair boundary blocks lift to legal zero blocks
    containing the centroid labels rather than to forbidden single
    pairs.  The closed form carries the corrected value.
    """
    mismatches = []
    for ct in _d_grid_cells():
        formula = count_thick_formula(ct)
        enum = {d.nc.matrix for d in enumerate_thick(ct)}
        brute = {d.nc.matrix for d in brute_force_classify(ct)}
        assert enum == brute, f"enumeration routes disagree at {ct}"
        if formula != len(enum):
            mismatches.append((str(ct), formula, len(enum)))
    ok = not mismatches
    _announce(6, ok, f"{len(mismatches)} cells contradict the closed formulas: {mismatches}")
    assert ok, (
        "the closed forms disagree with both enumeration routes at "
        f"{mismatches}; test_independent_oracle.py recomputes every D cell "
        "without the engine"
    )


def test_criterion_07_d4_triality():
    """Eight thick subcategories when 3 divides r, five otherwise.

    The paper's table prints two for r not divisible by 3.  There are
    five: the two trivial ones plus three rank-two wide subcategories,
    each carried to itself by the rotation composed with a translation
    step (hand-checked witness in test_derived_engine.py, root sets in
    test_independent_oracle.py).  The s = 0 structure is as described.
    """
    d4 = DynkinType("D", 4)
    rs = build_root_system(d4)
    lab = build_label_walk(d4)
    tri = root_permutation(lab, phi_map(d4, 3))
    for r in (3, 6, 9, 12):
        descs = brute_force_classify(CategoryType(d4, r, 3))
        assert len(descs) == 8
        proper = [x for x in descs if x.roots and len(x.roots) < 12]
        assert len(proper) == 6
        assert sorted(len(x.roots) for x in proper) == [1, 1, 1, 3, 3, 3]
        for x in proper:
            image = frozenset(tri[a] for a in x.roots)
            assert image == roots_below(rs, x.nc)  # rotation-fixed by construction
        cox, coxinv = rs.cox, rs.cox.inverse()
        for size in (1, 3):
            family = {x.nc.matrix for x in proper if len(x.roots) == size}
            orbit = set()
            start = next(iter(family))
            cur = start
            while cur not in orbit:
                orbit.add(cur)
                cur = (cox * type(rs.cox)(cur) * coxinv).matrix
            assert orbit == family, "each family is one translation orbit of size 3"
    off_counts = {r: len(brute_force_classify(CategoryType(d4, r, 3)))
                  for r in (1, 2, 4, 5, 7, 8, 10, 11)}
    bad = {r: c for r, c in off_counts.items() if c != 5}
    ok = not bad
    _announce(7, ok, f"counts for r not divisible by 3: {off_counts}")
    assert ok, (
        "expected five invariant thick subcategories when 3 does not divide r "
        f"(the trivial pair and three rank-two wide ones), got {off_counts}"
    )


def test_criterion_08_commuting_squares():
    for n in range(1, 7):
        rs = build_root_system(DynkinType("A", n))
        cox, coxinv = rs.cox, rs.cox.inverse()
        for w in enumerate_nc(rs):
            assert brady_f(rs, cox * w * coxinv) == rotate_a(brady_f(rs, w), 1)
    for n in (4, 5):
        rs = build_root_system(DynkinType("D", n))
        rep = coxeter_conjugation_is_sigma_rho(rs)
        assert rep.passed, rep.summary()
        rep = phi_fixes_sigma_on_nc(rs)
        assert rep.passed, rep.summary()
    assert _announce(8, True, "conjugation = rotation, = sigma.rho, arm swap = sigma")


def test_criterion_09_bijection_roundtrips():
    for n in range(1, 6):
        rs = build_root_system(DynkinType("A", n))
        for w in enumerate_nc(rs):
            assert brady_g(rs, brady_f(rs, w)) == w
    for n in (4, 5):
        rs = build_root_system(DynkinType("D", n))
        for w in enumerate_nc(rs):
            assert ar_bijection_g(rs, ar_bijection_f(rs, w)) == w
    assert _announce(9, True, "both support bijections invert exactly")


def test_criterion_10_fiber_lemma():
    for s, x in ((2, 2), (2, 3), (3, 2), (4, 2)):
        h = s * x
        invariant = {p.blocks for p in enumerate_nc_a(h) if rotate_a(p, s) == p}
        union = set()
        for w in enumerate_nc_a(s):
            fib = {f.blocks for f in construct_fiber(w, x)}
            assert len(fib) == s + 1
            assert not fib & union
            union |= fib
        assert union == invariant
        assert len(invariant) == (s + 1) * catalan(s) == comb(2 * s, s)
    assert _announce(10, True, "fibers of size s+1 tile the invariant set")


def test_criterion_11_engine_identities():
    specs = [("A", n) for n in range(1, 7)] + [("D", n) for n in (4, 5, 6)]
    specs.append(("E", 6))
    for spec in specs:
        d = DynkinType(*spec)
        n, h = d.rank, d.coxeter_number
        s_map = suspension_vertex_map(d)
        # with tau = (m, q) -> (m - 1, q) the square lands on the inverse
        # power; the walk convention pinning this is recorded in the notes
        assert s_map.power(2) == tau_power(n, -h)
        lab = build_label_walk(d)
        rs = build_root_system(d)
        for shift in (0, 1):
            assert sorted(lab.layer_roots(shift)) == sorted(rs.positives)
    for n in (2, 4, 6):
        assert phi_map(DynkinType("A", n), "inf").power(2) == tau_power(n, 1)
    for spec in (("A", 3), ("A", 5), ("D", 5), ("D", 6), ("E", 6)):
        d = DynkinType(*spec)
        assert phi_map(d, 2).power(2) == identity_map(d.rank)
    assert phi_map(DynkinType("D", 4), 2).power(2) == identity_map(4)
    assert phi_map(DynkinType("D", 4), 3).power(3) == identity_map(4)
    assert _announce(11, True, "suspension square, symmetry orders, label layers")


def test_criterion_12_classification_equivalence():
    cells = 0
    for n in range(1, 6):
        for series, rank, t in admissible_types_for_rank(n):
            if series == "E":
                continue
            d = DynkinType(series, rank)
            for r in range(1, 2 * d.coxeter_number + 1):
                ct = CategoryType(d, r, t)
                enum = {x.nc.matrix for x in enumerate_thick(ct)}
                brute = {x.nc.matrix for x in brute_force_classify(ct)}
                assert enum == brute, str(ct)
                cells += 1
    for t in (1, 2):
        for r in range(1, 25):
            ct = CategoryType(DynkinType("E", 6), r, t)
            enum = {x.nc.matrix for x in enumerate_thick(ct)}
            brute = {x.nc.matrix for x in brute_force_classify(ct)}
            assert enum == brute, str(ct)
            cells += 1
    assert _announce(12, True, f"criterion equals brute force on {cells} type cells")


def test_criterion_13_cluster_categories():
    specs = [("A", n) for n in range(1, 7)] + [("D", n) for n in (4, 5, 6)]
    specs.append(("E", 6))
    for spec in specs:
        for power in (1, 2):
            rep = cluster_category_check(DynkinType(*spec), power)
            assert rep.passed and rep.total == 2, rep.summary()
    assert _announce(13, True, "exactly two invariant thick subcategories everywhere")


def test_criterion_14_overview_table_golden():
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "overview.md"
    assert overview_markdown() == golden.read_text()
    assert _announce(14, True, "table output matches the golden file")


def test_engine_arbitrated_values():
    """The exhaustive values at the cells where the paper's printed forms are wrong."""
    assert len(enumerate_thick(CategoryType(DynkinType("D", 4), 3, 2))) == comb(6, 3)
    assert len(enumerate_thick(CategoryType(DynkinType("D", 4), 6, 2))) == comb(6, 3)
    assert len(enumerate_thick(CategoryType(DynkinType("D", 5), 4, 1))) == comb(8, 4)
    assert len(enumerate_thick(CategoryType(DynkinType("D", 5), 8, 2))) == comb(8, 4)
    assert len(enumerate_thick(CategoryType(DynkinType("D", 6), 5, 2))) == comb(10, 5)
    assert len(enumerate_thick(CategoryType(DynkinType("D", 6), 10, 2))) == comb(10, 5)
    for r in (1, 2, 4, 5):
        descs = brute_force_classify(CategoryType(DynkinType("D", 4), r, 3))
        assert len(descs) == 5
        proper = [d for d in descs if d.roots and len(d.roots) < 12]
        assert sorted(len(d.roots) for d in proper) == [3, 3, 3]
