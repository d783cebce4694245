import hashlib
from fractions import Fraction
from math import comb, gcd, prod

import pytest

from reference import criterion_root_map, is_invariant_nc
from thicket import classifier
from thicket.classifier import (
    CategoryType,
    InvarianceCriterion,
    NotAsashibaType,
    admissible_types_for_rank,
    algebra_type_to_category_type,
    catalan,
    catalan_d,
    classification_report,
    count_thick,
    count_thick_formula,
    enumerate_thick,
    overview_markdown,
    overview_table,
    reduce_criterion,
)
from thicket.derived_engine import (
    InvalidType,
    brute_force_classify,
    build_label_walk,
    generator_map,
    root_permutation,
)
from thicket.root_coxeter import DynkinType, build_root_system, enumerate_nc


def ct(series, rank, r, t):
    return CategoryType(DynkinType(series, rank), r, t)


# -- admissibility ---------------------------------------------------------


def test_admissible_types():
    ct("A", 1, 1, 1)
    ct("A", 3, 2, 2)
    ct("A", 4, 2, "inf")
    ct("D", 6, 5, 2)
    ct("D", 4, 9, 3)
    ct("E", 7, 3, 1)
    ct("E", 6, 3, 2)
    for bad in [("A", 4, 1, 2), ("A", 3, 1, "inf"), ("A", 1, 1, 2),
                ("D", 5, 1, 3), ("E", 7, 1, 2), ("E", 8, 1, 3)]:
        with pytest.raises(InvalidType):
            ct(*bad)
    for r in (0, 2.5, "3", True, None):
        with pytest.raises(InvalidType):
            ct("A", 3, r, 1)
    for rank in (2.0, True, "3"):
        with pytest.raises(InvalidType):
            DynkinType("A", rank)


def test_torsion_normalization():
    assert ct("A", 4, 1, "infinity").t == "inf"
    assert ct("A", 3, 1, "2").t == 2
    assert ct("A", 4, 1, float("inf")).t == "inf"
    assert type(ct("A", 3, 1, 2).t) is int
    for t in (True, 2.0, 1.0, "4", None):
        with pytest.raises(InvalidType):
            ct("A", 3, 1, t)


def test_admissible_listing():
    assert ("A", 4, "inf") in [
        (s, n, t) for s, n, t in admissible_types_for_rank(4)
    ]
    assert ("D", 4, 3) in [(s, n, t) for s, n, t in admissible_types_for_rank(4)]


# -- the criterion ---------------------------------------------------------------


def test_reduce_criterion_cases():
    # the offset is r for t = 1 and h // 2 + r for t = 2 and inf
    for cell, crit in [
        (ct("A", 5, 4, 1), ("cox_conjugation", 2)),
        (ct("D", 6, 7, 2), ("sigma_rho_power", 7)),
        (ct("D", 4, 6, 3), ("d4_triality", 0)),
        (ct("D", 5, 14, 2), ("cox_conjugation", 2)),
        (ct("A", 4, 3, "inf"), ("cox_conjugation", 5)),
        (ct("A", 3, 2, 2), ("cox_conjugation", 4)),
        (ct("E", 6, 5, 2), ("cox_conjugation", 1)),
    ]:
        assert reduce_criterion(cell) == InvarianceCriterion(*crit), str(cell)


def test_is_invariant_nc_basics():
    rs = build_root_system(DynkinType("A", 5))
    crit = reduce_criterion(ct("A", 5, 4, 1))
    assert is_invariant_nc(rs, rs.identity, crit)
    assert is_invariant_nc(rs, rs.cox, crit)
    count = sum(1 for w in enumerate_nc(rs) if is_invariant_nc(rs, w, crit))
    assert count == 6


def test_triality_criterion_agrees_with_brute_force():
    # the triality's criterion is conjugation by P_3 s_1 s_4 cox^-s, like
    # every other cell's a twist composed with a cox power
    c = ct("D", 4, 1, 3)
    rs = build_root_system(DynkinType("D", 4))
    crit = reduce_criterion(c)
    brute = brute_force_classify(c)
    assert [w for w in enumerate_nc(rs) if is_invariant_nc(rs, w, crit)] == [d.nc for d in brute]
    assert enumerate_thick(c) == brute
    assert len(brute) == 5


def _orbits(perm):
    out = set()
    for a in perm:
        orbit = {a}
        b = perm[a]
        while b != a:
            orbit.add(b)
            b = perm[b]
        out.add(frozenset(orbit))
    return out


def test_paper_and_engine_root_maps_have_the_same_orbits():
    # equal orbits give equal fixed root sets, so the interval-level
    # criterion and the engine classify every such cell alike
    for n in range(1, 7):
        for series, rank, t in admissible_types_for_rank(n):
            d = DynkinType(series, rank)
            rs = build_root_system(d)
            lab = build_label_walk(d)
            for r in range(1, 2 * d.coxeter_number + 1):
                c = ct(series, rank, r, t)
                paper = _orbits(criterion_root_map(rs, reduce_criterion(c)))
                engine = _orbits(root_permutation(lab, generator_map(c)))
                if paper != engine:
                    orbit = sorted(paper ^ engine, key=sorted)[0]
                    side = "criterion" if orbit in paper else "engine"
                    pytest.fail(f"{c}: {side} orbit {sorted(orbit)} is not an orbit of the other map")


# -- enumeration ----------------------------------------------------------------


def test_enumeration_paper_examples():
    assert len(enumerate_thick(ct("A", 5, 4, 1))) == 6
    assert len(enumerate_thick(ct("D", 5, 14, 2))) == 6
    assert len(enumerate_thick(ct("E", 6, 1, 1))) == 2


def test_enumeration_includes_trivial_pair():
    rs = build_root_system(DynkinType("A", 5))
    descs = enumerate_thick(ct("A", 5, 4, 1))
    matrices = {d.nc.matrix for d in descs}
    assert rs.identity.matrix in matrices
    assert rs.cox.matrix in matrices


def test_e6_enumeration_matches_brute_force_sample():
    c = ct("E", 6, 6, 1)
    enum = {d.nc.matrix for d in enumerate_thick(c)}
    brute = {d.nc.matrix for d in brute_force_classify(c)}
    assert enum == brute


# -- counting formulas --------------------------------------------------------------


def test_catalan_values():
    assert [catalan(n) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    assert catalan_d(4) == 50 and catalan_d(5) == 182 and catalan_d(6) == 672


def test_count_formula_a_series():
    assert count_thick_formula(ct("A", 5, 4, 1)) == comb(4, 2)
    assert count_thick_formula(ct("A", 5, 6, 1)) == catalan(6)
    assert count_thick_formula(ct("A", 2, 1, 1)) == 2


def test_count_formula_d_series():
    assert count_thick_formula(ct("D", 5, 14, 2)) == comb(4, 2)
    assert count_thick_formula(ct("D", 4, 8, 1)) == comb(2, 1)
    assert count_thick_formula(ct("D", 4, 6, 1)) == catalan_d(4)
    assert count_thick_formula(ct("D", 5, 4, 1)) == comb(8, 4)
    assert count_thick_formula(ct("D", 6, 5, 1)) == catalan_d(6)


def test_count_formula_d4_triality():
    assert count_thick_formula(ct("D", 4, 3, 3)) == 8
    assert count_thick_formula(ct("D", 4, 1, 3)) == 5


def test_count_formula_e6_values():
    # prod over the degrees 2, 5, 6, 8, 9, 12 divisible by m = 12 / s
    by_s = {1: 2, 2: 6, 3: 5, 4: 14, 6: 105, 12: 833}
    for r in range(1, 25):
        assert count_thick_formula(ct("E", 6, r, 1)) == by_s[gcd(12, r)]
        assert count_thick_formula(ct("E", 6, r, 2)) == by_s[gcd(12, r + 6)]
    assert count_thick(ct("E", 6, 1, 1)) == 2


def test_count_formula_is_the_degree_product():
    # the formula reads only the criterion and the degrees; both
    # enumeration routes count the same cells without it
    cells = [
        ct(series, rank, r, t)
        for n in range(1, 7)
        for series, rank, t in admissible_types_for_rank(n)
        for r in range(1, 2 * DynkinType(series, rank).coxeter_number + 1)
    ]
    cells += [ct("E", 7, r, 1) for r in range(1, 37)]
    assert len(cells) == 260 + 36
    for c in cells:
        counts = (count_thick_formula(c), len(enumerate_thick(c)), len(brute_force_classify(c)))
        assert len(set(counts)) == 1, f"{c}: formula, enumeration, brute force = {counts}"


def closed_form_reference(c):
    """The three closed forms the count had, one per criterion mode: the
    Bessis-Reiner product over the degrees d with m | d, m = h / s; the
    type-B count binomial(2p, p), p = gcd(n - 1, s), at the even-D arm
    swap; 8 or 5 at the triality."""
    crit = reduce_criterion(c)
    if crit.mode == "d4_triality":
        return 8 if crit.s == 0 else 5
    if crit.mode == "sigma_rho_power":
        p = gcd(c.delta.rank - 1, crit.s)
        return comb(2 * p, p)
    h = c.delta.coxeter_number
    fixed = [d for d in c.delta.degrees if d % (h // crit.s) == 0]
    return prod(h + d for d in fixed) // prod(fixed)


def test_twisted_degree_product_equals_the_closed_forms():
    cells = [
        ct(series, rank, r, t)
        for n in range(1, 13)
        for series, rank, t in admissible_types_for_rank(n)
        for r in range(1, 2 * DynkinType(series, rank).coxeter_number + 1)
    ]
    assert len(cells) == 1016
    wrong = [(str(c), count_thick_formula(c), closed_form_reference(c)) for c in cells
             if count_thick_formula(c) != closed_form_reference(c)]
    assert not wrong


def test_count_proper_flag():
    assert count_thick(ct("A", 5, 4, 1), proper=True) == 4


def test_known_tabulated_cells_where_the_engine_disagrees():
    # Wherever the paper's D-series split answers Cat(D_{n-1}) (the
    # cells with a plain half-turn criterion), exhaustive classification
    # yields the generic binomial value instead: the half-turn-invariant
    # boundary partitions all lift, because a mirror pair {i, -i} joins
    # the centroid labels to form a legal four-element zero block.  The
    # closed formula carries the engine's value, not the tabulated one.
    for c, tabulated, engine in [
        (ct("D", 4, 3, 2), catalan_d(3), comb(6, 3)),
        (ct("D", 4, 6, 2), catalan_d(3), comb(6, 3)),
        (ct("D", 5, 4, 1), catalan_d(4), comb(8, 4)),
        (ct("D", 5, 8, 2), catalan_d(4), comb(8, 4)),
        (ct("D", 6, 5, 2), catalan_d(5), comb(10, 5)),
        (ct("D", 6, 10, 2), catalan_d(5), comb(10, 5)),
        (ct("D", 4, 1, 3), 2, 5),
    ]:
        assert count_thick_formula(c) == engine != tabulated
        assert len(enumerate_thick(c)) == engine
        assert len(brute_force_classify(c)) == engine


def test_zero_block_lift_witness_for_the_half_turn_cells():
    # the element with balanced pairs on {1, -1} and {5, -5} and a paired
    # three-cycle on the rest is in the interval and is fixed by the
    # fourth conjugation power, yet its image under the forget-centroid
    # map is a diameter block, which the tabulated subtraction discards
    from reference import mat_pow
    from thicket.linalg import mat_inverse, mat_mul
    from thicket.ncp_models import ar_bijection_f
    from thicket.root_coxeter import type_d_as_signed_permutation

    rs = build_root_system(DynkinType("D", 5))
    target = {1: -1, -1: 1, 5: -5, -5: 5, 2: 3, 3: 4, 4: 2, -2: -3, -3: -4, -4: -2}
    w = next(
        w for w in enumerate_nc(rs)
        if type_d_as_signed_permutation(rs, w) == target
    )
    assert ar_bijection_f(rs, w).zero_block == (-5, -1, 1, 5)
    c4 = mat_pow(rs.cox.matrix, 4)
    assert mat_mul(mat_mul(c4, w.matrix), mat_inverse(c4)) == w.matrix


def test_coprime_collapse():
    for series, rank, t in [("A", 4, 1), ("D", 5, 1), ("E", 6, 1)]:
        d = DynkinType(series, rank)
        h = d.coxeter_number
        r = next(x for x in range(1, h) if gcd(h, x) == 1)
        c = CategoryType(d, r, t)
        assert len(enumerate_thick(c)) == 2


# -- algebra conversion -----------------------------------------------------------------


def test_algebra_conversion_examples():
    out = algebra_type_to_category_type(DynkinType("A", 5), 2, 2)
    assert (out.delta, out.r, out.t) == (DynkinType("A", 5), 10, 2)
    out = algebra_type_to_category_type(DynkinType("D", 4), 1, 3)
    assert out.r == 5
    out = algebra_type_to_category_type(DynkinType("A", 3), Fraction(1, 3), 1)
    assert out.r == 1


def test_algebra_conversion_rejections():
    with pytest.raises(NotAsashibaType):
        algebra_type_to_category_type(DynkinType("A", 4), Fraction(1, 3), 1)
    with pytest.raises(NotAsashibaType):
        algebra_type_to_category_type(DynkinType("A", 5), Fraction(1, 2), 2)
    with pytest.raises(NotAsashibaType):
        algebra_type_to_category_type(DynkinType("D", 5), Fraction(1, 3), 1)
    # triple-rank D allows third-integral frequencies; a reducible third
    # collapses to the plain integer family
    out = algebra_type_to_category_type(DynkinType("D", 6), Fraction(2, 3), 1)
    assert out.r == 6
    out = algebra_type_to_category_type(DynkinType("D", 6), Fraction(3, 3), 1)
    assert out.r == 9


def test_algebra_conversion_never_infinite():
    with pytest.raises(NotAsashibaType):
        algebra_type_to_category_type(DynkinType("A", 4), 1, "inf")


def test_algebra_conversion_grid_is_pinned():
    # the outcome at every point of a fixed grid, pinned by digest:
    # A1-A9, D4-D12, E6-E8; t in 1, 2, 3, inf; f = a/b, -2 <= a < 40, 1 <= b < 15
    deltas = [DynkinType("A", n) for n in range(1, 10)]
    deltas += [DynkinType("D", n) for n in range(4, 13)]
    deltas += [DynkinType("E", n) for n in (6, 7, 8)]
    lines = []
    for d in deltas:
        for t in (1, 2, 3, "inf"):
            for a in range(-2, 40):
                for b in range(1, 15):
                    try:
                        c = algebra_type_to_category_type(d, Fraction(a, b), t)
                        out = f"{c.delta}:{c.r}:{c.t}"
                    except NotAsashibaType:
                        out = "NotAsashibaType"
                    lines.append(f"{d},{t},{a}/{b}={out}")
    assert len(lines) == 49392
    assert sum(not line.endswith("=NotAsashibaType") for line in lines) == 5091
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0ef6023cb49450b919aa600c108f3c9d5c736cf83d512aa924d87ea82d895518"


# -- reports and the overview --------------------------------------------------------------


def test_classification_report_agreement():
    doc = classification_report(ct("D", 5, 14, 2))
    assert doc["criterion"] == "cox_conjugation"
    assert doc["s"] == 2
    assert doc["count_formula"] == doc["count_enumerated"] == doc["count_brute_force"] == 6
    assert doc["witnesses"] == []
    assert doc["agree"] is True


@pytest.mark.parametrize("cell,count", [(("D", 4, 1, 3), 5), (("D", 4, 3, 3), 8), (("D", 4, 3, 2), 20)])
def test_classification_report_runs_brute_force_once(monkeypatch, cell, count):
    # brute force is the report's second route at every cell, the triality included
    calls = []

    def counted(c):
        calls.append(c)
        return brute_force_classify(c)

    monkeypatch.setattr(classifier, "brute_force_classify", counted)
    doc = classification_report(ct(*cell))
    assert calls == [ct(*cell)]
    assert doc["count_formula"] == doc["count_enumerated"] == doc["count_brute_force"] == count
    assert doc["agree"] is True


def test_classification_report_flags_tabulated_disagreement(monkeypatch):
    doc = classification_report(ct("D", 4, 3, 2))
    assert doc["count_formula"] == doc["count_enumerated"] == doc["count_brute_force"] == 20
    assert doc["agree"] is True
    # the paper's printed value, Cat(D_3) = 14, must be reported as a mismatch
    monkeypatch.setattr(classifier, "count_thick_formula", lambda c: catalan_d(3))
    doc = classification_report(ct("D", 4, 3, 2))
    assert doc["count_formula"] == 14
    assert doc["count_enumerated"] == doc["count_brute_force"] == 20
    assert doc["agree"] is False


def test_overview_rows():
    rows = overview_table()
    assert len(rows) == 9
    a_row = rows[0]
    assert "gcd(n+1, r)" in a_row["classifying"]
    d4_row = [r for r in rows if r["type"].startswith("(D_4")][0]
    assert "8 if s = 0" in d4_row["count"]
    e6_row = rows[-1]
    assert "gcd(12, r + 6)" in e6_row["classifying"]
    md = overview_markdown()
    assert md.count("\n") == 11  # header, separator, nine rows
