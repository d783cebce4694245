import hashlib
import json
import random
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    absolute_length,
    kernel_interval,
    leq_absolute,
    mat_order,
    mat_sub,
    matrix_closure,
    rank,
    reflections_below,
)
from thicket import root_coxeter
from thicket.classifier import CategoryType, count_thick_formula
from thicket.linalg import (
    identity,
    kernel,
    mat_inverse,
    mat_mul,
    mat_vec,
    scaled_inverse,
    sub_outer,
)
from thicket.root_coxeter import (
    BrokenInvariant,
    DynkinType,
    GroupElement,
    NotARoot,
    NotInInterval,
    RootSystem,
    WrongSeries,
    build_root_system,
    enumerate_nc,
    group_element_to_json,
    in_nc,
    permutation_cycles,
    reflection,
    roots_below,
    type_a_as_permutation,
    type_d_as_signed_permutation,
)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


# -- type validation ----------------------------------------------------


@pytest.mark.parametrize("series,rank_,ok", [
    ("A", 1, True), ("A", 9, True), ("A", 0, False),
    ("D", 4, True), ("D", 3, False),
    ("E", 6, True), ("E", 7, True), ("E", 8, True), ("E", 5, False), ("E", 9, False),
    ("B", 2, False),
])
def test_dynkin_type_validation(series, rank_, ok):
    if ok:
        DynkinType(series, rank_)
    else:
        with pytest.raises(ValueError):
            DynkinType(series, rank_)


@pytest.mark.parametrize("series,rank_,h", [
    ("A", 1, 2), ("A", 5, 6), ("D", 4, 6), ("D", 6, 10),
    ("E", 6, 12), ("E", 7, 18), ("E", 8, 30),
])
def test_coxeter_numbers(series, rank_, h):
    d = DynkinType(series, rank_)
    assert d.coxeter_number == h


def test_degrees_against_group_orders():
    # |W| is the product of the degrees and h the largest one
    orders = [(DynkinType("A", n), factorial(n + 1), n + 1) for n in range(1, 9)]
    orders += [(DynkinType("D", n), 2 ** (n - 1) * factorial(n), 2 * n - 2) for n in range(4, 9)]
    orders += [
        (DynkinType("E", 6), 51840, 12),
        (DynkinType("E", 7), 2903040, 18),
        (DynkinType("E", 8), 696729600, 30),
    ]
    for d, order, h in orders:
        assert prod(d.degrees) == order, str(d)
        assert max(d.degrees) == d.coxeter_number == h, str(d)
    # at s = h conjugation fixes every element: the product is the interval size
    for rank_, size in ((6, 833), (7, 4160), (8, 25080)):
        d = DynkinType("E", rank_)
        assert count_thick_formula(CategoryType(d, d.coxeter_number, 1)) == size


# -- root systems --------------------------------------------------------


@pytest.mark.parametrize("series,rank_,count", [
    ("A", 1, 1), ("A", 3, 6), ("A", 6, 21),
    ("D", 4, 12), ("D", 5, 20), ("E", 6, 36),
])
def test_positive_root_counts(series, rank_, count):
    rs = build_root_system(DynkinType(series, rank_))
    assert len(rs.positives) == count


@pytest.mark.parametrize("spec", (
    [("A", n) for n in range(1, 13)] + [("D", n) for n in range(4, 13)]
    + [("E", 6), ("E", 7), ("E", 8)]
))
def test_positive_roots_are_the_matrix_closure(spec):
    # the upward walk of one-coordinate steps against the closure under
    # reflection matrices, in both signs, root for root and in order
    rs = build_root_system(DynkinType(*spec))
    assert rs.positives == matrix_closure(rs)


def test_positive_roots_have_norm_two_and_nonnegative_coordinates():
    for spec in [("A", 4), ("D", 5), ("E", 6)]:
        rs = build_root_system(DynkinType(*spec))
        for v in rs.positives:
            assert rs.pairing(v, v) == 2
            assert all(x >= 0 for x in v)


def test_symmetric_form_is_symmetrized_euler_form():
    rs = build_root_system(DynkinType("D", 4))
    n = rs.rank
    for i in range(n):
        for j in range(n):
            assert rs.sym_form[i][j] == rs.euler_form[i][j] + rs.euler_form[j][i]


RANK_8_TYPES = (
    [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + [("E", 6), ("E", 7), ("E", 8)]
)


@pytest.mark.parametrize("spec", RANK_8_TYPES)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_pairing_is_the_double_sum_of_the_symmetric_form(spec, data):
    rs = build_root_system(DynkinType(*spec))
    n = rs.rank
    v, w = (tuple(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
            for _ in range(2))
    expected = sum(v[i] * rs.sym_form[i][j] * w[j] for i in range(n) for j in range(n))
    assert rs.pairing(v, w) == expected


def test_reflection_formula_on_a2():
    # s_{a1} sends a1 to -a1 and a2 to a1 + a2
    rs = build_root_system(DynkinType("A", 2))
    s = reflection(rs, (1, 0))
    assert s((1, 0)) == (-1, 0)
    assert s((0, 1)) == (1, 1)


def test_reflection_on_a1_is_minus_one():
    rs = build_root_system(DynkinType("A", 1))
    assert reflection(rs, (1,)).matrix == ((-1,),)


def test_reflections_are_involutions_and_permute_roots():
    for spec in [("A", 3), ("D", 4)]:
        rs = build_root_system(DynkinType(*spec))
        all_roots = set(rs.positives) | {tuple(-x for x in v) for v in rs.positives}
        for v in rs.positives:
            s = reflection(rs, v)
            assert mat_mul(s.matrix, s.matrix) == identity(rs.rank)
            assert {s(w) for w in all_roots} == all_roots
            assert s(v) == tuple(-x for x in v)


def test_simple_reflection_flips_exactly_one_positive():
    for spec in [("A", 4), ("D", 4)]:
        rs = build_root_system(DynkinType(*spec))
        for i in range(1, rs.rank + 1):
            s = rs.simple_reflection(i)
            flipped = [v for v in rs.positives if any(x < 0 for x in s(v))]
            assert flipped == [rs.simples[i - 1]]


def test_reflection_rejects_non_roots():
    rs = build_root_system(DynkinType("A", 2))
    with pytest.raises(NotARoot):
        reflection(rs, (2, 0))


def test_exact_inverses():
    assert scaled_inverse(((2, 0), (1, 1))) == (((1, 0), (-1, 2)), 2)
    assert mat_inverse(((2, 1), (1, 1))) == ((1, -1), (-1, 2))
    with pytest.raises(ValueError):
        mat_inverse(((2, 0), (1, 1)))  # invertible over Q only
    with pytest.raises(ValueError):
        scaled_inverse(((1, 2), (2, 4)))  # singular


def test_scaled_inverse_against_rank():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        if rank(m) < n:
            with pytest.raises(ValueError, match="singular"):
                scaled_inverse(m)
            continue
        inv, d = scaled_inverse(m)
        assert mat_mul(m, inv) == tuple(tuple(d * x for x in row) for row in identity(n))
        assert gcd(d, *(x for row in inv for x in row)) == 1  # d is least


def test_coxeter_element_order_is_coxeter_number():
    for spec in [("A", 1), ("A", 4), ("D", 4), ("D", 5), ("E", 6)]:
        d = DynkinType(*spec)
        rs = build_root_system(d)
        assert mat_order(rs.cox.matrix) == d.coxeter_number


def test_coxeter_element_of_a_series_is_the_long_cycle():
    for n in range(1, 6):
        rs = build_root_system(DynkinType("A", n))
        perm = type_a_as_permutation(rs, rs.cox)
        assert perm == tuple(list(range(2, n + 2)) + [1])


def test_coxeter_element_of_d_series_cycle_structure():
    for n in (4, 5):
        rs = build_root_system(DynkinType("D", n))
        perm = type_d_as_signed_permutation(rs, rs.cox)
        for i in range(1, n - 1):
            assert perm[i] == i + 1
        assert perm[n - 1] == -1
        assert perm[n] == -n


# -- absolute length ------------------------------------------------------


def _whole_group_with_lengths(rs):
    """Breadth-first closure of the reflections; oracle for lengths."""
    refls = [reflection(rs, v).matrix for v in rs.positives]
    lengths = {identity(rs.rank): 0}
    frontier = [identity(rs.rank)]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for w in frontier:
            for t in refls:
                wt = mat_mul(w, t)
                if wt not in lengths:
                    lengths[wt] = depth
                    nxt.append(wt)
        frontier = nxt
    return lengths


@pytest.mark.parametrize("spec", [("A", 1), ("A", 2), ("A", 3), ("D", 4)])
def test_absolute_length_matches_brute_force_factorization(spec):
    rs = build_root_system(DynkinType(*spec))
    lengths = _whole_group_with_lengths(rs)
    for m, expected in lengths.items():
        assert absolute_length(rs, GroupElement(m)) == expected


def test_absolute_length_basics():
    rs = build_root_system(DynkinType("D", 4))
    assert absolute_length(rs, rs.identity) == 0
    for v in rs.positives:
        assert absolute_length(rs, reflection(rs, v)) == 1
    assert absolute_length(rs, rs.cox) == rs.rank


def _leq_by_covering_chains(rs, elements):
    """Transitive closure of the length-additive covering relation."""
    refls = [reflection(rs, v) for v in rs.positives]
    covers = {}
    for u in elements:
        lu = absolute_length(rs, u)
        covers[u.matrix] = {
            (u * t).matrix
            for t in refls
            if absolute_length(rs, u * t) == lu + 1
        }
    reach = {m: {m} | covers[m] for m in covers}
    changed = True
    while changed:
        changed = False
        for m in reach:
            new = set()
            for x in reach[m]:
                new |= reach.get(x, {x})
            if not new <= reach[m]:
                reach[m] |= new
                changed = True
    return reach


@pytest.mark.parametrize("spec", [("A", 2), ("A", 3), ("D", 4)])
def test_leq_absolute_matches_covering_closure_on_interval(spec):
    rs = build_root_system(DynkinType(*spec))
    elements = enumerate_nc(rs)
    reach = _leq_by_covering_chains(rs, elements)
    for u in elements:
        for w in elements:
            assert leq_absolute(rs, u, w) == (w.matrix in reach[u.matrix])


def test_leq_absolute_reflexive_and_bounded():
    rs = build_root_system(DynkinType("A", 3))
    for w in enumerate_nc(rs):
        assert leq_absolute(rs, rs.identity, w)
        assert leq_absolute(rs, w, w)
        assert leq_absolute(rs, w, rs.cox)


def test_a2_interval_has_five_elements_with_expected_members():
    rs = build_root_system(DynkinType("A", 2))
    nc = enumerate_nc(rs)
    assert len(nc) == 5
    s1 = rs.simple_reflection(1)
    s2 = rs.simple_reflection(2)
    assert leq_absolute(rs, s1, rs.cox)
    assert leq_absolute(rs, s2, rs.cox)
    assert leq_absolute(rs, s1 * s2 * s1, rs.cox)


# -- interval enumeration --------------------------------------------------


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 5), (3, 14), (4, 42), (5, 132)])
def test_interval_counts_type_a(n, expected):
    rs = build_root_system(DynkinType("A", n))
    assert len(enumerate_nc(rs)) == expected == catalan(n + 1)


@pytest.mark.parametrize("n", [4, 5])
def test_interval_counts_type_d(n, ):
    rs = build_root_system(DynkinType("D", n))
    assert len(enumerate_nc(rs)) == comb(2 * n, n) - comb(2 * n - 2, n - 1)


def test_interval_count_e6_matches_degree_product():
    # independent oracle: product of (h + d_i) / d_i over the invariant degrees
    degrees = (2, 5, 6, 8, 9, 12)
    h = 12
    num = 1
    den = 1
    for d in degrees:
        num *= h + d
        den *= d
    assert num % den == 0
    rs = build_root_system(DynkinType("E", 6))
    assert len(enumerate_nc(rs)) == num // den == 833


def test_interval_enumeration_via_full_group_filter():
    rs = build_root_system(DynkinType("A", 3))
    lengths = _whole_group_with_lengths(rs)
    assert len(lengths) == 24
    cox = rs.cox
    expected = {
        m
        for m in lengths
        if lengths[m]
        + absolute_length(rs, GroupElement(m).inverse() * cox)
        == rs.rank
    }
    assert {w.matrix for w in enumerate_nc(rs)} == expected


def test_conjugation_by_cox_preserves_interval():
    for spec in [("A", 3), ("D", 4)]:
        rs = build_root_system(DynkinType(*spec))
        cox, coxinv = rs.cox, rs.cox.inverse()
        members = {w.matrix for w in enumerate_nc(rs)}
        for w in enumerate_nc(rs):
            assert (cox * w * coxinv).matrix in members


# -- the subcategory root sets ---------------------------------------------


def test_roots_below_identity_and_cox():
    rs = build_root_system(DynkinType("D", 4))
    assert roots_below(rs, rs.identity) == frozenset()
    assert roots_below(rs, rs.cox) == frozenset(rs.positives)


def test_roots_below_single_reflection_in_a2():
    rs = build_root_system(DynkinType("A", 2))
    assert roots_below(rs, rs.simple_reflection(1)) == frozenset({(1, 0)})


def test_roots_below_generate_the_element():
    rs = build_root_system(DynkinType("A", 3))
    for w in enumerate_nc(rs):
        gens = [reflection(rs, v).matrix for v in roots_below(rs, w)]
        seen = {identity(rs.rank)}
        frontier = [identity(rs.rank)]
        while frontier:
            nxt = []
            for m in frontier:
                for t in gens:
                    mt = mat_mul(m, t)
                    if mt not in seen:
                        seen.add(mt)
                        nxt.append(mt)
            frontier = nxt
        assert w.matrix in seen


@pytest.mark.parametrize("spec", [("A", 4), ("D", 4), ("D", 5)])
def test_roots_below_matches_the_absolute_order(spec):
    rs = build_root_system(DynkinType(*spec))
    refls = {v: reflection(rs, v) for v in rs.positives}
    for w in enumerate_nc(rs):
        expected = {v for v, t in refls.items() if leq_absolute(rs, t, w)}
        assert roots_below(rs, w) == expected


@pytest.mark.parametrize("spec", [("A", 3), ("D", 4)])
def test_in_nc_matches_the_absolute_order_on_the_whole_group(spec):
    rs = build_root_system(DynkinType(*spec))
    for m in _whole_group_with_lengths(rs):
        g = GroupElement(m)
        assert in_nc(rs, g) == leq_absolute(rs, g, rs.cox)


@pytest.mark.parametrize("spec", [("A", 4), ("D", 4), ("D", 5)])
def test_kernel_mask_matches_the_absolute_order(spec):
    # the Carter / Brady-Watt test behind the reference builder, against
    # the length-additivity definition, for every x = w^-1 cox of the interval
    rs = build_root_system(DynkinType(*spec))
    refls = [reflection(rs, v) for v in rs.positives]
    for w in enumerate_nc(rs):
        x = w.inverse() * rs.cox
        below = reflections_below(rs, x.matrix)
        for i, t in enumerate(refls):
            assert bool(below >> i & 1) == leq_absolute(rs, t, x)


RANK_7_TYPES = (
    [("A", n) for n in range(1, 8)] + [("D", n) for n in range(4, 8)] + [("E", 6), ("E", 7)]
)


@pytest.mark.parametrize("spec", RANK_7_TYPES)
def test_perpendicular_search_matches_the_kernel_search(spec):
    # keys, order and masks of the table against the kernel builder
    rs = build_root_system(DynkinType(*spec))
    table = root_coxeter._interval(rs)
    assert [(w.matrix, d.mask) for w, d in table.items()] == kernel_interval(rs)
    for d in table.values():
        assert d.roots == {a for i, a in enumerate(rs.positives) if d.mask >> i & 1}


def test_each_interval_build_starts_from_an_empty_row_memo():
    # A6, D6 and E6 share their rank, so their matrices have rows of one
    # length; rows memoized by one build and read by the next would give
    # the second type matrices of the first type's reflections
    for first, second in [(("D", 6), ("E", 6)), (("E", 6), ("A", 6)), (("A", 6), ("D", 6))]:
        root_coxeter._interval(RootSystem(DynkinType(*first)))
        rs = RootSystem(DynkinType(*second))
        table = root_coxeter._interval(rs)
        assert [(w.matrix, d.mask) for w, d in table.items()] == kernel_interval(rs)


@pytest.mark.parametrize("spec", [("A", 5), ("D", 5), ("E", 6)])
def test_root_set_of_w_s_a_is_the_right_perpendicular_cut(spec):
    # R(w s_a) = R(w) & perp[a] with perp[a] = {b : a^T E b = 0}, for every
    # w of the interval and every root a of w
    rs = build_root_system(DynkinType(*spec))
    e, n = rs.euler_form, rs.rank
    perp = [
        sum(1 << j for j, b in enumerate(rs.positives)
            if not sum(a[p] * e[p][q] * b[q] for p in range(n) for q in range(n)))
        for a in rs.positives
    ]
    table = root_coxeter._interval(rs)
    for w, d in table.items():
        for i, a in enumerate(rs.positives):
            if d.mask >> i & 1:
                assert table[w * reflection(rs, a)].mask == d.mask & perp[i]


# sha256 of the JSON of [matrix, sorted root set] over the table, in order,
# as the rank-per-candidate search built it (E7: as the kernel search with
# matrix products built it); the perpendicular search must agree
INTERVAL_DIGESTS = {
    ("A", 5): "6faeb918c620dd4f4962f6c96471361b9ead024d5724e21ddc646086cdd8fbf2",
    ("D", 6): "b7c9d1134c648231ae86bcff491f60d41d6b737e715f6d43cf74a9771ad732e2",
    ("E", 6): "23e1a09311be0e7748f8e5067ffec965b4b65fc220e3b3ca1c0bc9fcf7372eca",
    ("E", 7): "6f1ce5b8d4352de32ae5d418757687df438ae72b0fbc04a34495b431be1148ae",
}


@pytest.mark.parametrize("spec", sorted(INTERVAL_DIGESTS))
def test_interval_table_digest(spec):
    rs = build_root_system(DynkinType(*spec))
    doc = [
        [[list(row) for row in w.matrix], sorted(list(v) for v in roots_below(rs, w))]
        for w in enumerate_nc(rs)
    ]
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == INTERVAL_DIGESTS[spec]


# sha256 of the JSON of group_element_to_json over [id, cox], in order, as
# the hand-written permutation readers gave it; the basis change must agree
PERMUTATION_JSON_DIGESTS = {
    ("A", 1): "061534ad1dc1db30bbbaf44d1c3a3a518964525d8fb53b5850dd84ee52e430ab",
    ("A", 2): "e457293b081394afa59c392b577c18134a7a34e11d3be404ebfe58e99a0262c0",
    ("A", 3): "6f1851964e96abfa3e7ba20541c0b8216e3128bf1a8d65a01fd457526e79d7b6",
    ("A", 4): "c438ca47c44c7f176e8cf74925e3d0fbf33bdeb5fdeb1761d91791a8528cfb76",
    ("A", 5): "b4a5bd7af95d4d3dfe2f75506695a0d711a5efbb28580d147fd5236c1c250384",
    ("A", 6): "b563d943577ece0151ae5d591720888b7b19beec21a783f56f0ec1c88112f823",
    ("D", 4): "18a9b2734b5e2fc6af0fc1d23ebd41a20e3c08d551ccab10b8464745e1471751",
    ("D", 5): "960093fb544e8cc1daae1fa1a9047a6f7b8dc8f183ada9498834e9981d76e4dc",
    ("D", 6): "847fc4b58ef6f17903db6079d40f330a7db9b50c9ab706fc6147bd15b26cd6e2",
}


@pytest.mark.parametrize("spec", sorted(PERMUTATION_JSON_DIGESTS))
def test_group_element_json_digest(spec):
    rs = build_root_system(DynkinType(*spec))
    doc = [group_element_to_json(rs, w) for w in enumerate_nc(rs)]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == PERMUTATION_JSON_DIGESTS[spec]


@pytest.mark.parametrize("spec", [("A", 4), ("D", 5), ("E", 6)])
def test_a_fresh_equal_element_finds_its_interval_entry(spec):
    # the table is keyed by the elements enumerate_nc hands out; a new
    # element with a new but equal matrix hashes equal and finds the entry
    rs = build_root_system(DynkinType(*spec))
    for w in enumerate_nc(rs):
        fresh = GroupElement(tuple(tuple(list(row)) for row in w.matrix))
        assert fresh is not w and fresh.matrix is not w.matrix
        assert fresh == w and hash(fresh) == hash(w)
        assert in_nc(rs, fresh)
        assert roots_below(rs, fresh) is roots_below(rs, w)
    top = rs.identity * rs.cox
    assert top is not rs.cox and roots_below(rs, top) == frozenset(rs.positives)
    # cox^-1 has length n and is not cox, so it lies outside the interval
    outside = rs.cox.inverse()
    assert not in_nc(rs, outside)
    with pytest.raises(NotInInterval):
        roots_below(rs, outside)


def test_roots_below_rejects_elements_outside_interval():
    rs = build_root_system(DynkinType("A", 2))
    s1 = rs.simple_reflection(1)
    s2 = rs.simple_reflection(2)
    outside = s2 * s1  # the other rotation; not below cox = s1 s2
    assert not leq_absolute(rs, outside, rs.cox)
    with pytest.raises(NotInInterval):
        roots_below(rs, outside)


# -- permutation models ------------------------------------------------------


def test_simple_reflections_map_to_adjacent_transpositions():
    rs = build_root_system(DynkinType("A", 3))
    for i in range(1, 4):
        perm = type_a_as_permutation(rs, rs.simple_reflection(i))
        expected = list(range(1, 5))
        expected[i - 1], expected[i] = expected[i], expected[i - 1]
        assert perm == tuple(expected)


def test_d_simple_reflections_map_to_signed_transpositions():
    n = 4
    rs = build_root_system(DynkinType("D", n))
    for i in range(1, n):
        perm = type_d_as_signed_permutation(rs, rs.simple_reflection(i))
        moved = {k: v for k, v in perm.items() if k != v}
        assert moved == {i: i + 1, i + 1: i, -i: -(i + 1), -(i + 1): -i}
    perm = type_d_as_signed_permutation(rs, rs.simple_reflection(n))
    moved = {k: v for k, v in perm.items() if k != v}
    assert moved == {n - 1: -n, -n: n - 1, -(n - 1): n, n: -(n - 1)}


def test_permutation_models_are_homomorphisms():
    rng = random.Random(7)
    rs = build_root_system(DynkinType("A", 3))
    nc = enumerate_nc(rs)
    for _ in range(100):
        u, w = rng.choice(nc), rng.choice(nc)
        pu = type_a_as_permutation(rs, u)
        pw = type_a_as_permutation(rs, w)
        puw = type_a_as_permutation(rs, u * w)
        assert puw == tuple(pu[pw[i - 1] - 1] for i in range(1, 5))
    rsd = build_root_system(DynkinType("D", 4))
    ncd = enumerate_nc(rsd)
    for _ in range(100):
        u, w = rng.choice(ncd), rng.choice(ncd)
        pu = type_d_as_signed_permutation(rsd, u)
        pw = type_d_as_signed_permutation(rsd, w)
        puw = type_d_as_signed_permutation(rsd, u * w)
        assert puw == {k: pu[pw[k]] for k in pw}


@pytest.mark.parametrize("spec", [("A", 1), ("A", 4), ("D", 4), ("D", 5)])
def test_one_basis_change_reads_and_writes_every_element(spec):
    rs = build_root_system(DynkinType(*spec))
    for w in enumerate_nc(rs):
        perm = root_coxeter._ambient_permutation(rs, w)
        assert root_coxeter._element_of_permutation(rs, perm) == w


def test_basis_change_writer_rejects_non_integral_results():
    rs = build_root_system(DynkinType("A", 3))
    with pytest.raises(ValueError, match="not an element of the group"):
        # negating a coordinate does not preserve the A3 root lattice
        root_coxeter._element_of_permutation(rs, {1: -1})


def test_permutation_model_wrong_series():
    rs = build_root_system(DynkinType("D", 4))
    with pytest.raises(WrongSeries):
        type_a_as_permutation(rs, rs.cox)
    rsa = build_root_system(DynkinType("A", 3))
    with pytest.raises(WrongSeries):
        type_d_as_signed_permutation(rsa, rsa.cox)


def test_group_element_json():
    rs = build_root_system(DynkinType("A", 2))
    doc = group_element_to_json(rs, rs.cox)
    assert doc["series"] == "A" and doc["rank"] == 2
    assert doc["cycles"] == [[1, 2, 3]]
    assert len(doc["matrix"]) == 2
    rsd = build_root_system(DynkinType("D", 4))
    doc = group_element_to_json(rsd, rsd.cox)
    assert [1, 2, 3, -1, -2, -3] in doc["cycles"]
    assert [4, -4] in doc["cycles"]


def test_permutation_cycles_on_tuples():
    assert permutation_cycles((2, 3, 1, 4)) == ((1, 2, 3),)


def test_bareiss_rank_against_fraction_elimination():
    rng = random.Random(3)
    from fractions import Fraction

    def frac_rank(m):
        a = [[Fraction(x) for x in row] for row in m]
        r = 0
        for c in range(len(a[0])):
            piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            for i in range(len(a)):
                if i != r and a[i][c] != 0:
                    f = a[i][c] / a[r][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            r += 1
        return r

    for _ in range(50):
        m = tuple(
            tuple(rng.randint(-4, 4) for _ in range(5)) for _ in range(5)
        )
        assert rank(m) == frac_rank(m)


def _random_matrix(rng, rows, cols, rank_):
    """Integer rows x cols matrix of the given rank (a product of factors)."""
    left = [[rng.randint(-3, 3) for _ in range(rank_)] for _ in range(rows)]
    right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank_)]
    return mat_mul(left, right) if rank_ else tuple((0,) * cols for _ in range(rows))


def test_kernel_is_a_primitive_integer_null_basis():
    rng = random.Random(11)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)))
        basis = kernel(m)
        assert len(basis) == cols - rank(m)
        if basis:
            assert rank(basis) == len(basis)
        for k in basis:
            assert len(k) == cols and all(isinstance(x, int) for x in k)
            assert gcd(*k) == 1
            assert mat_vec(m, k) == (0,) * rows


def test_kernel_of_zero_and_identity():
    for n in (1, 3, 5):
        assert kernel(tuple((0,) * n for _ in range(n))) == identity(n)
        assert kernel(identity(n)) == ()
    assert kernel(((2, 4),)) == ((-2, 1),)


def test_sub_outer_is_the_rank_one_difference():
    rng = random.Random(12)
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)))
        u = [rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(rows)]
        v = [rng.randint(-3, 3) for _ in range(cols)]
        outer = tuple(tuple(x * y for y in v) for x in u)
        assert sub_outer(a, u, v) == mat_sub(a, outer)


def test_broken_invariant_is_a_named_runtime_error(monkeypatch):
    # a wrong degree table: its exponents sum to 35, not |Phi+| = 36
    monkeypatch.setattr(DynkinType, "degrees", property(lambda d: (2, 5, 6, 8, 8, 12)))
    with pytest.raises(BrokenInvariant, match="36 positive roots, expected 35"):
        RootSystem(DynkinType("E", 6))
    assert issubclass(BrokenInvariant, RuntimeError)
    assert not issubclass(BrokenInvariant, ValueError)
