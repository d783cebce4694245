import hashlib
import json
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    d_chord_sanity,
    is_in_nc_d,
    is_noncrossing_blocks,
    kreweras_blocks,
    kreweras_inverse_blocks,
    nc_blocks,
    relabel_by_dict,
    rotate_blocks,
    rotation_period_blocks,
    sigma_rho_power,
)
from thicket.ncp_models import (
    BadDivisor,
    BPartition,
    Crossing,
    DPartition,
    NotAPartition,
    NotInvariant,
    SetPartitionA,
    ar_bijection_f,
    ar_bijection_g,
    brady_f,
    brady_g,
    construct_fiber,
    coxeter_conjugation_is_sigma_rho,
    enumerate_nc_a,
    enumerate_nc_b,
    is_noncrossing_a,
    kreweras_alpha,
    kreweras_alpha_inverse,
    project_f,
    rho,
    rotate_a,
    rotation_period_a,
    sigma,
)
from thicket import ncp_models
from thicket.root_coxeter import (
    BrokenInvariant,
    DynkinType,
    NotInInterval,
    build_root_system,
    enumerate_nc,
)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def all_set_partitions(n):
    """Every partition of [n]; oracle for the noncrossing filter."""
    if n == 0:
        yield ()
        return
    for rest in all_set_partitions(n - 1):
        yield rest + ((n,),)
        for i, b in enumerate(rest):
            yield rest[:i] + (b + (n,),) + rest[i + 1:]


# -- noncrossing predicate ------------------------------------------------


def test_noncrossing_examples():
    assert is_noncrossing_a(SetPartitionA(4, ((1, 3), (2,), (4,))))
    assert not is_noncrossing_a(SetPartitionA(4, ((1, 3), (2, 4))))
    assert is_noncrossing_a(SetPartitionA(5, ((1,), (2,), (3,), (4,), (5,))))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_matches_filtered_partitions(n):
    brute = sorted(
        SetPartitionA(n, blocks).blocks
        for blocks in all_set_partitions(n)
        if is_noncrossing_a(SetPartitionA(n, blocks))
    )
    assert sorted(p.blocks for p in enumerate_nc_a(n)) == brute
    assert len(brute) == catalan(n)


def test_enumeration_counts():
    assert len(enumerate_nc_a(2)) == 2
    assert len(enumerate_nc_a(3)) == 5
    assert len(enumerate_nc_a(4)) == 14


def test_partition_validation():
    with pytest.raises(ValueError):
        SetPartitionA(3, ((1, 2),))
    with pytest.raises(ValueError):
        SetPartitionA(3, ((1, 2), (2, 3)))
    with pytest.raises(NotAPartition, match="empty"):
        SetPartitionA(3, ((1, 2), (), (3,)))


# -- rotation ---------------------------------------------------------------


def test_rotation_basics():
    p = SetPartitionA(3, ((1, 2), (3,)))
    assert rotate_a(p, 1) == SetPartitionA(3, ((2, 3), (1,)))
    assert rotate_a(p, 3) == p
    assert sorted(len(b) for b in rotate_a(p, 2).blocks) == sorted(
        len(b) for b in p.blocks
    )


def test_rotation_preserves_noncrossing():
    for p in enumerate_nc_a(5):
        for k in range(5):
            assert is_noncrossing_a(rotate_a(p, k))


def test_rotation_period_divides_n():
    for p in enumerate_nc_a(6):
        assert 6 % rotation_period_a(p) == 0


def test_rotation_period_of_the_empty_partition_is_one():
    (p,) = enumerate_nc_a(0)
    assert rotate_a(p, 1) == p
    assert rotation_period_a(p) == 1


# -- Brady bijection ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_brady_roundtrip(n):
    rs = build_root_system(DynkinType("A", n))
    seen = set()
    for w in enumerate_nc(rs):
        p = brady_f(rs, w)
        assert is_noncrossing_a(p)
        assert brady_g(rs, p) == w
        seen.add(p.blocks)
    assert len(seen) == len(enumerate_nc(rs))
    assert seen == {p.blocks for p in enumerate_nc_a(n + 1)}


def test_brady_identity_and_cox():
    rs = build_root_system(DynkinType("A", 3))
    assert brady_f(rs, rs.identity).blocks == ((1,), (2,), (3,), (4,))
    assert brady_f(rs, rs.cox).blocks == ((1, 2, 3, 4),)


# -- the complement -----------------------------------------------------------


def _interleaved(p, q):
    """p on odd positions, q on even positions of a 2n circle."""
    n = p.n
    blocks = [tuple(2 * x - 1 for x in b) for b in p.blocks]
    blocks += [tuple(2 * x for x in b) for b in q.blocks]
    return SetPartitionA(2 * n, tuple(blocks))


def _complement_oracle(p):
    """Maximal partition keeping the interleaved union noncrossing."""
    n = p.n
    best = None
    for blocks in all_set_partitions(n):
        q = SetPartitionA(n, blocks)
        if not is_noncrossing_a(_interleaved(p, q)):
            continue
        if best is None or len(q.blocks) < len(best.blocks):
            best = q
    return best


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_alpha_is_the_maximal_complement(n):
    for p in enumerate_nc_a(n):
        a = kreweras_alpha(p)
        oracle = _complement_oracle(p)
        assert a == oracle
        assert is_noncrossing_a(_interleaved(p, a))


def test_alpha_block_count_and_extremes():
    for n in range(1, 7):
        full = SetPartitionA(n, (tuple(range(1, n + 1)),))
        singles = SetPartitionA(n, tuple((i,) for i in range(1, n + 1)))
        assert kreweras_alpha(full) == singles
        assert kreweras_alpha(singles) == full
        for p in enumerate_nc_a(n):
            assert len(kreweras_alpha(p).blocks) == n - len(p.blocks) + 1


def test_alpha_example_n4():
    p = SetPartitionA(4, ((1, 2), (3,), (4,)))
    assert len(kreweras_alpha(p).blocks) == 2


def test_alpha_is_a_bijection_with_inverse():
    for n in range(1, 7):
        images = set()
        for p in enumerate_nc_a(n):
            a = kreweras_alpha(p)
            images.add(a.blocks)
            assert kreweras_alpha_inverse(a) == p
        assert len(images) == catalan(n)


def test_alpha_squared_is_a_rotation_not_the_identity():
    # diagnostic: the maximal complement squares to a one-step rotation
    moved = 0
    for p in enumerate_nc_a(5):
        twice = kreweras_alpha(kreweras_alpha(p))
        assert twice == rotate_a(p, -1)
        if twice != p:
            moved += 1
    assert moved > 0


def test_alpha_requires_noncrossing():
    with pytest.raises(Crossing):
        kreweras_alpha(SetPartitionA(4, ((1, 3), (2, 4))))


# -- projection and fibers ------------------------------------------------------


def test_project_basics():
    full = SetPartitionA(6, (tuple(range(1, 7)),))
    assert project_f(full, 2) == SetPartitionA(2, ((1, 2),))
    singles = SetPartitionA(6, tuple((i,) for i in range(1, 7)))
    assert project_f(singles, 2) == SetPartitionA(2, ((1,), (2,)))
    with pytest.raises(BadDivisor):
        project_f(full, 6)
    with pytest.raises(NotInvariant):
        project_f(SetPartitionA(6, ((1, 2), (3,), (4,), (5,), (6,))), 2)


@pytest.mark.parametrize("s", [0, -2, -3, True, 2.0, 6, 4])
def test_project_rejects_bad_divisors(s):
    with pytest.raises(BadDivisor, match=f"^{s} is not a proper divisor of 6$"):
        project_f(SetPartitionA(6, (tuple(range(1, 7)),)), s)


def test_projection_commutes_with_alpha():
    h, s = 6, 2
    for p in enumerate_nc_a(h):
        if rotate_a(p, s) != p:
            continue
        assert project_f(kreweras_alpha(p), s) == kreweras_alpha(project_f(p, s))


def test_fiber_worked_example():
    w = SetPartitionA(2, ((1,), (2,)))
    fib = {f.blocks for f in construct_fiber(w, 3)}
    assert fib == {
        ((1, 3, 5), (2,), (4,), (6,)),
        ((1,), (2, 4, 6), (3,), (5,)),
        ((1,), (2,), (3,), (4,), (5,), (6,)),
    }
    total = sum(len(construct_fiber(v, 3)) for v in enumerate_nc_a(2))
    assert total == comb(4, 2)


@pytest.mark.parametrize("s,x", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_fibers_partition_the_invariant_set(s, x):
    h = s * x
    invariant = {p.blocks for p in enumerate_nc_a(h) if rotate_a(p, s) == p}
    collected = set()
    for w in enumerate_nc_a(s):
        fib = construct_fiber(w, x)
        assert len(fib) == s + 1
        blocks = {f.blocks for f in fib}
        assert len(blocks) == s + 1
        assert not blocks & collected
        collected |= blocks
    assert collected == invariant
    assert len(invariant) == (s + 1) * catalan(s) == comb(2 * s, s)


@pytest.mark.parametrize("x", [1, 0, -2, True, 2.5, 2.0, "2"])
def test_fiber_rejects_bad_multipliers(x):
    with pytest.raises(BadDivisor, match="^fiber construction needs x > 1$"):
        construct_fiber(SetPartitionA(2, ((1,), (2,))), x)


def test_fiber_checks_survive_python_o(monkeypatch):
    # a lift that is invariant but projects elsewhere must not pass
    wrong = SetPartitionA(4, ((1, 2, 3, 4),))
    monkeypatch.setattr(ncp_models, "_lift_with_big_block", lambda p, big, x: wrong)
    with pytest.raises(BrokenInvariant):
        construct_fiber(SetPartitionA(2, ((1,), (2,))), 2)


# -- B model ---------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_b_model_counts(n):
    got = enumerate_nc_b(n)
    assert len(got) == comb(2 * n, n)
    for p in got:
        assert {tuple(sorted(-x for x in b)) for b in p.blocks} == set(p.blocks)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_b_model_is_the_half_turn_invariant_a_model(n):
    # reference: filter NC(2n) by the half-turn, positions n+1..2n being -1..-n
    def label(x):
        return x if x <= n else n - x

    invariant = {
        BPartition(n, tuple(tuple(label(x) for x in b) for b in p.blocks)).blocks
        for p in enumerate_nc_a(2 * n)
        if rotate_a(p, n) == p
    }
    got = [p.blocks for p in enumerate_nc_b(n)]
    assert len(got) == len(set(got))
    assert set(got) == invariant


def test_b_model_smallest_case():
    blocks = {p.blocks for p in enumerate_nc_b(1)}
    assert blocks == {((-1,), (1,)), ((-1, 1),)}


def test_b_model_allows_single_pair_zero_block():
    BPartition(2, ((1, -1), (2,), (-2,)))
    with pytest.raises(ValueError):
        DPartition(4, ((1, -1), (2,), (-2,), (3,), (-3,), (4,), (-4,)))


# -- D model ----------------------------------------------------------------------


def test_d_partition_validation():
    DPartition(4, ((1, 2), (-1, -2), (3,), (-3,), (4,), (-4,)))
    with pytest.raises(ValueError):
        DPartition(4, ((1, 2), (-1, 3), (-2, -3), (4,), (-4,)))
    with pytest.raises(ValueError):
        DPartition(
            4, ((1, -1), (2, -2), (3,), (-3,), (4,), (-4,))
        )  # two zero blocks
    # the bijections back to the group reject, as invalid input (exit 2),
    # partitions they cannot read
    a3, d4 = build_root_system(DynkinType("A", 3)), build_root_system(DynkinType("D", 4))
    d5 = DPartition(5, tuple((x,) for x in (1, -1, 2, -2, 3, -3, 4, -4, 5, -5)))
    no_centroid = DPartition(4, ((1, -1, 2, -2), (3,), (-3,), (4,), (-4,)))
    interleaved = DPartition(4, ((-4, -2, 1, 3), (-3, -1, 2, 4)))
    for bijection, rs, p, cls, message in [
        (brady_g, a3, SetPartitionA(3, ((1,), (2,), (3,))), NotAPartition, "rank \\+ 1"),
        (ar_bijection_g, d4, d5, NotAPartition, "match the rank"),
        (ar_bijection_g, d4, no_centroid, NotInInterval, "centroid labels"),
        (ar_bijection_g, d4, interleaved, NotInInterval, "unique arc"),
    ]:
        with pytest.raises(cls, match=message):
            bijection(rs, p)


def test_signed_partitions_share_one_body():
    blocks = ((1, 2), (-1, -2), (3, 4, -3, -4))
    b, d = BPartition(4, blocks), DPartition(4, blocks[::-1])
    assert b.blocks == d.blocks
    assert b.zero_block == d.zero_block == (-4, -3, 3, 4)
    assert b != d
    assert d == DPartition(4, blocks) and hash(d) == hash(DPartition(4, blocks))
    assert BPartition(2, ((1,), (-1,), (2,), (-2,))).zero_block is None
    assert d.to_json()["model"] == "D" and b.to_json()["model"] == "B"
    for n, bad, message in [
        (3, ((1,), (-1,), (2,), (-2,), (3,), (-3,)), "D model needs n >= 4"),
        (4, ((1, 2), (-1, -2), (3,), (-3,), (4,)), r"do not partition \[±4\]"),
        (4, ((1, 2), (-1, 3), (-2, -3), (4,), (-4,)), "mirror of a block is missing"),
        (4, ((1, -1), (2, -2), (3,), (-3,), (4,), (-4,)), "more than one zero block"),
        (4, ((1, -1), (2,), (-2,), (3,), (-3,), (4,), (-4,)), "single pair"),
        (4, ((1,), (-1,), (2,), (-2,), (3,), (-3,), (4,), (-4,), ()), "a block is empty"),
    ]:
        with pytest.raises(NotAPartition, match=message):
            DPartition(n, bad)
    # an empty block is not the zero block
    with pytest.raises(NotAPartition, match="a block is empty"):
        BPartition(1, ((1,), (-1,), ()))


def test_d_chord_sanity_rejects_interleaved_boundary_chords():
    # on the hexagon 1, 2, 3, -1, -2, -3 the chord {1, 3} crosses {2, -2}
    assert not d_chord_sanity(DPartition(4, ((1, 3), (-1, -3), (2, -2, 4, -4))))
    assert d_chord_sanity(DPartition(4, ((1, 2), (-1, -2), (3, -3, 4, -4))))


@pytest.mark.parametrize("n", [4, 5])
def test_ar_roundtrip(n):
    rs = build_root_system(DynkinType("D", n))
    images = set()
    for w in enumerate_nc(rs):
        p = ar_bijection_f(rs, w)
        assert d_chord_sanity(p)
        assert ar_bijection_g(rs, p) == w
        images.add(p.blocks)
    assert len(images) == len(enumerate_nc(rs))


# sha256 of the JSON of the bijection images over [id, cox], in order, as the
# hand-written permutation readers gave them; the basis change must agree
BIJECTION_DIGESTS = {
    ("A", 1): "83d7cc6dc1d75aa1b86961614e8c1a9e5acd7a030605a677d240f55142c6115d",
    ("A", 2): "6982c0cff69d1f0e9777effa27dd28545c94019afb07b997b4b90453809a1e89",
    ("A", 3): "9259348261609f35721ca678600a0cbb125ea8b7122aefa69ba8135c1cb59d73",
    ("A", 4): "9d430a8ca67453ed907d9ee044bb93011396e33787b27c5e0906f0c34eaa49c6",
    ("A", 5): "d07bd7b5241b98d800a1b46fd1cb588a68eeebf2058c50126c8b270e4b040201",
    ("A", 6): "20605a0b7c925220f63b768fddfc01df0cac2e74a421a8be5de817b2dd204630",
    ("D", 4): "011500e9d43aa974f52dc8ccb74886d2f593b048a74081a7d46e08345b937d48",
    ("D", 5): "09fcf1525eb6a118c17d2a10f0f75a128440e2c2c10c1d1b98131bbce7c49b20",
    ("D", 6): "4b5df8a9a3306dea2e6db0a6a7f92bb01f1de6fd6465fa570488c45ca22c08e5",
}


@pytest.mark.parametrize("spec", sorted(BIJECTION_DIGESTS))
def test_bijection_image_digest(spec):
    rs = build_root_system(DynkinType(*spec))
    if spec[0] == "A":
        doc = [brady_f(rs, w).blocks for w in enumerate_nc(rs)]
    else:
        doc = [ar_bijection_f(rs, w).to_json() for w in enumerate_nc(rs)]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == BIJECTION_DIGESTS[spec]


def test_ar_identity_and_cox():
    rs = build_root_system(DynkinType("D", 4))
    pid = ar_bijection_f(rs, rs.identity)
    assert all(len(b) == 1 for b in pid.blocks)
    pcox = ar_bijection_f(rs, rs.cox)
    assert pcox.blocks == ((-4, -3, -2, -1, 1, 2, 3, 4),)


def test_group_side_noncrossing_test():
    rs = build_root_system(DynkinType("D", 4))
    good = ar_bijection_f(rs, rs.cox)
    assert is_in_nc_d(rs, good)
    # crossing configuration: interleaved mirror pairs
    bad = DPartition(4, ((1, 3), (-1, -3), (2, -2, 4, -4)))
    assert not d_chord_sanity(bad) or not is_in_nc_d(rs, bad)


# -- rotation and sign flip ---------------------------------------------------------


def _d_elements(n):
    rs = build_root_system(DynkinType("D", n))
    return rs, [ar_bijection_f(rs, w) for w in enumerate_nc(rs)]


def test_rho_sigma_relations():
    rs, parts = _d_elements(4)
    n = 4
    for p in parts:
        q = p
        for _ in range(2 * n - 2):
            q = rho(q)
        assert q == p
        assert sigma(sigma(p)) == p
        assert sigma(rho(p)) == rho(sigma(p))
        sr = sigma(rho(p))
        out = sr
        for _ in range(2 * n - 3):
            out = sigma(rho(out))
        assert out == p


def test_sigma_fixes_zero_blocks():
    rs = build_root_system(DynkinType("D", 4))
    p = ar_bijection_f(rs, rs.cox)
    assert sigma(p) == p


def test_rho_example():
    p = DPartition(4, ((1, 2), (-1, -2), (3,), (-3,), (4,), (-4,)))
    assert rho(p) == DPartition(4, ((2, 3), (-2, -3), (1,), (-1,), (4,), (-4,)))


def test_half_turn_with_flip_fixes_everything():
    rs, parts = _d_elements(4)
    for p in parts:
        q = p
        for _ in range(3):
            q = rho(q)
        assert sigma(q) == p


def test_sigma_rho_power_helper():
    rs, parts = _d_elements(4)
    for p in parts[:10]:
        assert sigma_rho_power(p, 0) == sigma(p)
        assert sigma_rho_power(p, 1) == rho(p)  # sigma^2 rho = rho


def test_interval_report_lists_the_failures_in_interval_order():
    rs = build_root_system(DynkinType("A", 3))
    elements = enumerate_nc(rs)
    odd = set(elements[1::2])
    report = ncp_models.interval_report("odd places", rs, lambda w: w not in odd)
    assert report.failures == tuple(elements[1::2])
    assert report.summary() == "odd places: 14 cases, FAILED (7)"
    assert ncp_models.interval_report("all", rs, lambda w: True).summary() == "all: 14 cases, ok"


@pytest.mark.parametrize("n", [4, 5])
def test_conjugation_square(n):
    rs = build_root_system(DynkinType("D", n))
    report = coxeter_conjugation_is_sigma_rho(rs)
    assert report.passed, report.summary()
    assert report.total == len(enumerate_nc(rs))


def test_json_shapes():
    p = SetPartitionA(4, ((1, 4), (2, 3)))
    assert p.to_json() == {"model": "A", "n": 4, "blocks": [[1, 4], [2, 3]]}
    rs = build_root_system(DynkinType("D", 4))
    doc = ar_bijection_f(rs, rs.cox).to_json()
    assert doc["model"] == "D"
    assert doc["blocks"][0]["zero_block"] is True
    b = enumerate_nc_b(1)[0].to_json()
    assert b["model"] == "B"


def test_rotation_preserves_crossing_too():
    crossing = SetPartitionA(4, ((1, 3), (2, 4)))
    for k in range(4):
        assert not is_noncrossing_a(rotate_a(crossing, k))


# -- label tuples against the block-form references ---------------------------


@pytest.mark.parametrize("n", range(1, 11))
def test_enumeration_order_and_periods_match_the_block_form(n):
    ref = nc_blocks(n)
    ps = enumerate_nc_a(n)
    assert [p.blocks for p in ps] == ref
    assert [rotation_period_a(p) for p in ps] == [rotation_period_blocks(n, b) for b in ref]


# sha256 of repr([p.lab for p in enumerate_nc_a(n)]) and of repr of their
# rotation periods, recorded before the relabelling moved to index scans;
# the block-form comparison above stops at n = 10
NC_A_DIGESTS = {
    11: ("3bbfd2b6c124c4fedc4f8835825145a1e433c28bce703fdd211f6463cb83c8c5",
         "6dd5c94fca935a7189bf731512ed8f7efed9c4bbe37955c3e8eb482fb5a8217f"),
    12: ("4f16a7d2a5528a5eb76485f969201baaa2a827d1c63786a925c04e57f9ab31f9",
         "56ccde5846ea174278a06398b3fc26fb79fd2e7ba6682bfc7327582090cec880"),
}


@pytest.mark.parametrize("n", sorted(NC_A_DIGESTS))
def test_enumeration_order_and_periods_keep_their_digests(n):
    ps = enumerate_nc_a(n)
    labels = [p.lab for p in ps]
    periods = [rotation_period_a(p) for p in ps]
    assert len(ps) == catalan(n)
    digests = tuple(hashlib.sha256(repr(x).encode()).hexdigest() for x in (labels, periods))
    assert digests == NC_A_DIGESTS[n]


@pytest.mark.parametrize("n", range(1, 11))
def test_kreweras_pair_matches_the_face_groups(n):
    for p in enumerate_nc_a(n):
        assert kreweras_alpha(p).blocks == kreweras_blocks(n, p.blocks)
        assert kreweras_alpha_inverse(p).blocks == kreweras_inverse_blocks(n, p.blocks)


@pytest.mark.parametrize("n", range(1, 8))
def test_stack_test_matches_the_chord_test_on_every_set_partition(n):
    verdicts = []
    for blocks in all_set_partitions(n):
        verdicts.append(is_noncrossing_a(SetPartitionA(n, blocks)))
        assert verdicts[-1] == is_noncrossing_blocks(blocks), blocks
    assert sum(verdicts) == catalan(n)


@pytest.mark.parametrize("lab", [(2, 2), (1, 3, 3), (1, 1, 2), (0,), (1, -1), (1, 2, 1, 3)])
def test_label_constructor_rejects_labels_that_are_not_canonical(lab):
    with pytest.raises(BrokenInvariant, match="not canonical"):
        ncp_models._from_labels(lab)


@st.composite
def nc_partitions(draw):
    """A noncrossing partition of [n], n <= 40: each point opens a block or
    joins one still open, which closes every block opened after it."""
    n = draw(st.integers(1, 40))
    open_blocks, blocks = [], []
    for x in range(1, n + 1):
        k = draw(st.integers(0, len(open_blocks)))
        if k:
            del open_blocks[len(open_blocks) - k + 1:]
            open_blocks[-1].append(x)
        else:
            open_blocks.append([x])
            blocks.append(open_blocks[-1])
    return SetPartitionA(n, blocks)


PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@PROPERTY
@given(nc_partitions())
def test_labels_and_blocks_round_trip(p):
    assert is_noncrossing_a(p) and is_noncrossing_blocks(p.blocks)
    q = SetPartitionA(p.n, p.blocks)
    assert q == p and q.lab == p.lab and hash(q) == hash(p)


@PROPERTY
@given(nc_partitions())
def test_kreweras_complement_and_its_inverse_cancel(p):
    assert kreweras_alpha_inverse(kreweras_alpha(p)) == p
    assert kreweras_alpha(kreweras_alpha_inverse(p)) == p


@PROPERTY
@given(st.lists(st.integers(-4, 45), max_size=40), st.booleans())
def test_relabel_matches_the_dict_form(seq, as_tuple):
    # zero, negative, repeated and non-canonical entries, as a list or a tuple
    seq = tuple(seq) if as_tuple else seq
    assert ncp_models._relabel(seq) == relabel_by_dict(seq)


@PROPERTY
@given(nc_partitions(), st.integers(-80, 80))
def test_rotation_matches_the_block_form(p, k):
    n = p.n
    assert rotate_a(p, n) == p
    d = rotation_period_a(p)
    assert n % d == 0 and rotate_a(p, d) == p
    assert rotate_a(p, k).blocks == rotate_blocks(n, p.blocks, k)

