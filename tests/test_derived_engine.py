import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    absolute_length,
    criterion_root_map,
    fixed_descriptors,
    is_invariant_vertex_set,
    is_quiver_automorphism,
    mat_pow,
    thick_from_nc,
    uncached_fixed,
    zd_arrows,
)
from thicket import derived_engine
from thicket.classifier import (
    CategoryType,
    InvarianceCriterion,
    admissible_types_for_rank,
    criterion_permutation,
    enumerate_thick,
    reduce_criterion,
)
from thicket.derived_engine import (
    InvalidType,
    Labeling,
    MixedRoots,
    QuiverAutomorphism,
    _after_tau,
    automorphisms,
    brute_force_classify,
    build_label_walk,
    cluster_category_check,
    cluster_map,
    fixed_by_cycles,
    generator_map,
    identity_map,
    phi_map,
    phi_fixes_sigma_on_nc,
    root_permutation,
    suspension_vertex_map,
    tau_power,
    vertex_map,
    vertex_map_permutation,
)
from thicket.linalg import mat_mul, mat_vec
from thicket.ncp_models import ar_bijection_f, ar_bijection_g, sigma
from thicket.root_coxeter import (
    BrokenInvariant,
    DynkinType,
    RootSystem,
    arrows,
    build_root_system,
    cycle_masks,
    enumerate_nc,
    roots_below,
)

ALL_SMALL = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
             ("D", 4), ("D", 5), ("D", 6), ("E", 6)]


# -- vertex maps --------------------------------------------------------


def test_vertex_map_algebra():
    tau = tau_power(3, 2)
    assert tau(5, 1) == (3, 1)
    assert tau.power(-1) == tau_power(3, -2)
    assert tau @ tau.inverse() == identity_map(3)
    phi = phi_map(DynkinType("A", 3), 2)
    assert (phi @ phi) == identity_map(3)
    assert (phi @ tau_power(3, 1)) == (tau_power(3, 1) @ phi)


@pytest.mark.parametrize("spec", ALL_SMALL)
def test_tau_is_an_automorphism(spec):
    d = DynkinType(*spec)
    assert is_quiver_automorphism(d, tau_power(d.rank, 3))


@pytest.mark.parametrize("spec,t", [
    (("A", 3), 2), (("A", 5), 2), (("D", 4), 2), (("D", 5), 2),
    (("D", 6), 2), (("E", 6), 2),
])
def test_involutions(spec, t):
    d = DynkinType(*spec)
    phi = phi_map(d, t)
    assert is_quiver_automorphism(d, phi)
    assert phi.power(2) == identity_map(d.rank)
    assert phi != identity_map(d.rank)


def test_e6_reflection_fixes_branch_columns():
    phi = phi_map(DynkinType("E", 6), 2)
    assert phi(0, 3) == (0, 3)
    assert phi(0, 4) == (0, 4)
    assert phi(0, 1) == (0, 6)


def test_triality_order_three():
    d = DynkinType("D", 4)
    tri = phi_map(d, 3)
    assert is_quiver_automorphism(d, tri)
    assert tri.power(3) == identity_map(4)
    assert tri.power(1) != identity_map(4)
    assert tri(0, 2) == (0, 2)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_a_even_glide_squares_to_translation(n):
    d = DynkinType("A", n)
    phi = phi_map(d, "inf")
    assert is_quiver_automorphism(d, phi)
    assert phi.power(2) == tau_power(n, 1)


def test_phi_map_rejects_bad_orders():
    with pytest.raises(InvalidType):
        phi_map(DynkinType("A", 4), 2)
    with pytest.raises(InvalidType):
        phi_map(DynkinType("A", 3), "inf")
    with pytest.raises(InvalidType):
        phi_map(DynkinType("D", 5), 3)
    with pytest.raises(InvalidType):
        phi_map(DynkinType("E", 7), 2)


def test_one_table_decides_admissibility_phi_and_the_nakayama_flip():
    # the (Delta, t) phi_map accepts are the admissible types, in order,
    # and at t = 2 and inf the criterion is untwisted exactly where phi's
    # columns follow the suspension's
    ranks = {"A": range(1, 13), "D": range(4, 13), "E": (6, 7, 8)}
    for n in range(1, 13):
        accepted = []
        for d in [DynkinType(series, n) for series in "ADE" if n in ranks[series]]:
            for t in (1, 2, 3, "inf"):
                try:
                    phi_map(d, t)
                except InvalidType as exc:
                    assert str(exc) == f"({d}, r, {t}) is not an admissible type"
                    continue
                accepted.append((d.series, n, t))
        assert accepted == admissible_types_for_rank(n)
        for series, _, t in accepted:
            d = DynkinType(series, n)
            if t in (2, "inf"):
                untwisted = CategoryType(d, 1, t).criterion.mode == "cox_conjugation"
                assert untwisted == (phi_map(d, t).perm == suspension_vertex_map(d).perm), (d, t)


def test_vertex_map_refuses_an_impossible_column_map():
    # every column map the engine passes in is an internal constant, so a
    # bad one is a fault, never "invalid mathematical input"
    a3 = DynkinType("A", 3)
    with pytest.raises(BrokenInvariant, match="not a graph automorphism"):
        vertex_map(a3, (2, 1, 3), 2, 0)
    with pytest.raises(BrokenInvariant, match="admits no offsets"):
        vertex_map(a3, (1, 2, 3), 2, 1)
    assert not issubclass(BrokenInvariant, ValueError)


class CountingPerm(tuple):
    """A column map that counts how often it is formatted."""

    formatted = 0

    def __repr__(self):
        CountingPerm.formatted += 1
        return super().__repr__()


def test_vertex_map_formats_its_message_only_on_failure(monkeypatch):
    # the message spells out all of perm, so formatting it on every arrow
    # made vertex_map quadratic in the rank
    monkeypatch.setattr(CountingPerm, "formatted", 0)
    for n in (3, 50):
        d = DynkinType("A", n)
        g = vertex_map(d, CountingPerm(range(1, n + 1)), 1, -1)
        assert g == QuiverAutomorphism(n, tuple(range(1, n + 1)), (1,) * n)
        flip = CountingPerm(range(n, 0, -1))
        assert vertex_map(d, flip, 2, -(n + 1)) == suspension_vertex_map(d)
    assert CountingPerm.formatted == 0
    for perm, order, k, match in [
        ((2, 1, 3), 2, 0, "column map \\(2, 1, 3\\) is not a graph automorphism of A3"),
        ((1, 2, 3), 2, 1, "column map \\(1, 2, 3\\) admits no offsets with g\\^2 = tau\\^1 on A3"),
    ]:
        with pytest.raises(BrokenInvariant, match=match):
            vertex_map(DynkinType("A", 3), CountingPerm(perm), order, k)
    assert CountingPerm.formatted == 2


# (perm, offset) of every vertex map and the slice offsets of the labeling;
# an order missing from PINNED_MAPS has no map for that type
PINNED_MAPS = {
    ("A1", 1): ((1,), (0,)),
    ("A1", "S"): ((1,), (1,)),
    ("A2", 1): ((1, 2), (0, 0)),
    ("A2", "inf"): ((2, 1), (-1, 0)),
    ("A2", "S"): ((2, 1), (1, 2)),
    ("A3", 1): ((1, 2, 3), (0, 0, 0)),
    ("A3", 2): ((3, 2, 1), (-1, 0, 1)),
    ("A3", "S"): ((3, 2, 1), (1, 2, 3)),
    ("A4", 1): ((1, 2, 3, 4), (0, 0, 0, 0)),
    ("A4", "inf"): ((4, 3, 2, 1), (-2, -1, 0, 1)),
    ("A4", "S"): ((4, 3, 2, 1), (1, 2, 3, 4)),
    ("A5", 1): ((1, 2, 3, 4, 5), (0, 0, 0, 0, 0)),
    ("A5", 2): ((5, 4, 3, 2, 1), (-2, -1, 0, 1, 2)),
    ("A5", "S"): ((5, 4, 3, 2, 1), (1, 2, 3, 4, 5)),
    ("A6", 1): ((1, 2, 3, 4, 5, 6), (0, 0, 0, 0, 0, 0)),
    ("A6", "inf"): ((6, 5, 4, 3, 2, 1), (-3, -2, -1, 0, 1, 2)),
    ("A6", "S"): ((6, 5, 4, 3, 2, 1), (1, 2, 3, 4, 5, 6)),
    ("A7", 1): ((1, 2, 3, 4, 5, 6, 7), (0, 0, 0, 0, 0, 0, 0)),
    ("A7", 2): ((7, 6, 5, 4, 3, 2, 1), (-3, -2, -1, 0, 1, 2, 3)),
    ("A7", "S"): ((7, 6, 5, 4, 3, 2, 1), (1, 2, 3, 4, 5, 6, 7)),
    ("A8", 1): ((1, 2, 3, 4, 5, 6, 7, 8), (0, 0, 0, 0, 0, 0, 0, 0)),
    ("A8", "inf"): ((8, 7, 6, 5, 4, 3, 2, 1), (-4, -3, -2, -1, 0, 1, 2, 3)),
    ("A8", "S"): ((8, 7, 6, 5, 4, 3, 2, 1), (1, 2, 3, 4, 5, 6, 7, 8)),
    ("D4", 1): ((1, 2, 3, 4), (0, 0, 0, 0)),
    ("D4", 2): ((1, 2, 4, 3), (0, 0, 0, 0)),
    ("D4", 3): ((3, 2, 4, 1), (-1, 0, 0, 1)),
    ("D4", "S"): ((1, 2, 3, 4), (3, 3, 3, 3)),
    ("D5", 1): ((1, 2, 3, 4, 5), (0, 0, 0, 0, 0)),
    ("D5", 2): ((1, 2, 3, 5, 4), (0, 0, 0, 0, 0)),
    ("D5", "S"): ((1, 2, 3, 5, 4), (4, 4, 4, 4, 4)),
    ("D6", 1): ((1, 2, 3, 4, 5, 6), (0, 0, 0, 0, 0, 0)),
    ("D6", 2): ((1, 2, 3, 4, 6, 5), (0, 0, 0, 0, 0, 0)),
    ("D6", "S"): ((1, 2, 3, 4, 5, 6), (5, 5, 5, 5, 5, 5)),
    ("D7", 1): ((1, 2, 3, 4, 5, 6, 7), (0, 0, 0, 0, 0, 0, 0)),
    ("D7", 2): ((1, 2, 3, 4, 5, 7, 6), (0, 0, 0, 0, 0, 0, 0)),
    ("D7", "S"): ((1, 2, 3, 4, 5, 7, 6), (6, 6, 6, 6, 6, 6, 6)),
    ("D8", 1): ((1, 2, 3, 4, 5, 6, 7, 8), (0, 0, 0, 0, 0, 0, 0, 0)),
    ("D8", 2): ((1, 2, 3, 4, 5, 6, 8, 7), (0, 0, 0, 0, 0, 0, 0, 0)),
    ("D8", "S"): ((1, 2, 3, 4, 5, 6, 7, 8), (7, 7, 7, 7, 7, 7, 7, 7)),
    ("E6", 1): ((1, 2, 3, 4, 5, 6), (0, 0, 0, 0, 0, 0)),
    ("E6", 2): ((6, 5, 3, 4, 2, 1), (0, 0, 0, 0, 0, 0)),
    ("E6", "S"): ((6, 5, 3, 4, 2, 1), (6, 6, 6, 6, 6, 6)),
    ("E7", 1): ((1, 2, 3, 4, 5, 6, 7), (0, 0, 0, 0, 0, 0, 0)),
    ("E7", "S"): ((1, 2, 3, 4, 5, 6, 7), (9, 9, 9, 9, 9, 9, 9)),
    ("E8", 1): ((1, 2, 3, 4, 5, 6, 7, 8), (0, 0, 0, 0, 0, 0, 0, 0)),
    ("E8", "S"): ((1, 2, 3, 4, 5, 6, 7, 8), (15, 15, 15, 15, 15, 15, 15, 15)),
}

PINNED_SLICES = {
    "A1": (0,),
    "A2": (1, 0),
    "A3": (2, 1, 0),
    "A4": (3, 2, 1, 0),
    "A5": (4, 3, 2, 1, 0),
    "A6": (5, 4, 3, 2, 1, 0),
    "A7": (6, 5, 4, 3, 2, 1, 0),
    "A8": (7, 6, 5, 4, 3, 2, 1, 0),
    "D4": (2, 1, 0, 0),
    "D5": (3, 2, 1, 0, 0),
    "D6": (4, 3, 2, 1, 0, 0),
    "D7": (5, 4, 3, 2, 1, 0, 0),
    "D8": (6, 5, 4, 3, 2, 1, 0, 0),
    "E6": (0, 1, 2, 1, 1, 0),
    "E7": (1, 2, 3, 2, 2, 1, 0),
    "E8": (2, 3, 4, 3, 3, 2, 1, 0),
}


@pytest.mark.parametrize("key", list(PINNED_SLICES))
def test_vertex_maps_are_pinned(key):
    d = DynkinType(key[0], int(key[1:]))
    for t in (1, 2, 3, "inf"):
        if (key, t) in PINNED_MAPS:
            g = phi_map(d, t)
            assert (g.perm, g.offset) == PINNED_MAPS[key, t]
        else:
            with pytest.raises(InvalidType):
                phi_map(d, t)
    s = suspension_vertex_map(d)
    assert (s.perm, s.offset) == PINNED_MAPS[key, "S"]
    assert build_label_walk(d).slice_offsets == PINNED_SLICES[key]


# every type of rank <= 8, and A and D up to rank 12
SLICE_TYPES = ([("A", n) for n in range(1, 13)] + [("D", n) for n in range(4, 13)]
               + [("E", n) for n in (6, 7, 8)])

# sha256 of the JSON of (rs.cox.matrix, the labeling's projectives, the
# labeling's [root, shift] at every (m, q) with 0 <= m < h, q-major), as
# the Kahn order of the simples and the labeling's own slice walk gave them
SLICE_DIGESTS = {
    ('A', 1): ("3aa68b41fe21beb89166e0e32d3467a7e1dfa6923a33e9779ef226e3233da949",
             "043f347c2cdc0d8ce70c38775d24e556c0290acf6d0c87a3a52aa85471cb8d02",
             "10a573af3fa48652044928d3c439a81de4d1836a3d45d27d9523954901cf906c"),
    ('A', 2): ("9dadbd5dd39a92490cb139eb5b8856674073121d6940508a930d8e81e398eeab",
             "d2e054f071ed106ee7e1e6930995f6b4adaafe1e052be2bc294e60cdc530aa37",
             "eeda15ed2b035504b7c3a4fb7173c3da9aa9e1f26647313596bdbfba62998bbf"),
    ('A', 3): ("e414a43306985749153cfdb89a4045461f6df5abea855f29f8c43454ce1f7d1d",
             "064fac6d12d83d04292d1d4bc5fefba8b6e747073b1f0fc639b0d0e1e1b6970a",
             "e76d303aa28beaeeaddc09cc8c1cf3ec8441d0590affe98f8a7522b55e9f0ab4"),
    ('A', 4): ("1c264a75bde1f832152f24a073128323b856aa797ef2719ff70771c98bdf2bdd",
             "2e71ad511ac4a72925b0fbcb73aec629ecbc988570c828506c77d53f79bc8cdf",
             "e4fd284f56f91d687517e858a59e58417a471b862a1e5860d11e3e4f921fe4ea"),
    ('A', 5): ("f1cbf5b6565ea7ee12338956af0bf7dc4e7e26b7bce3eea87d8a633f20ede45e",
             "b795517d72e6b5a4aaba89d8a15e8e9ebcc8a086daffe1e4b60e8e0879e434d7",
             "6ffddf7a7fead333c60b701fc2dab26587f754404f8abfa7513cfd7d6bda062e"),
    ('A', 6): ("d79c69cc7b8b6a80506fd231f2600e3483fa53f1e0b30975b067d359b75d70b2",
             "177df0fab1d01ef9fcde9bd2d66b761d68fb45824b292e74e2b88b147aca0413",
             "a2de2089837af404a087ab04c7eecc318d764845b15c9fcb5ae21a5ee1f26873"),
    ('A', 7): ("0cb9a73594312bbc7678a7229afdceee63c3c509eeb31b36ecc6938fe59fa71a",
             "b08adde114679181b7af12dbd436d5222f545609589624e41545dbc0288b6bb9",
             "75977de4bd872a6a1c3f8f3fbbf29ddf206b5a74c7f57948edc74cf593476528"),
    ('A', 8): ("6502f9cc48809f90da1ee65d07b94e3e3378ec836e62542231cbbe454f19e81d",
             "b48b0357bdf3ff323847387fa3465e507cfe9cb6b5239c5baa9df9f1785e3bbb",
             "a0d2409b9fe253011572eb691e35005f59c61ccc1cbbe67fc0fb7367ed6ec721"),
    ('A', 9): ("ff331e3344b5c6b12670ae55fc4a458d261221eb7f786342bde865478435a179",
             "81f055c79cf67c958b00eeb85be150cab23b26ac4ae757689d444a5c14f0413e",
             "5f42743c43411a7f23bf896412b82c2fedda1daff0995beb88e39cb637e4b6b2"),
    ('A', 10): ("2a797f12c34744d79c0fb59c41ec7e39ffd7f84e149c98c4ebbe3f41ecae0887",
             "a0676d340226170269fbbf86631db079ec62c0694d25561d2238cde8218e808c",
             "a10d2e27e1baad76fceb5f6da0ee5e84f7f9613264fced6ebeb3f52b720fc9c4"),
    ('A', 11): ("d41c8848b5db0eeeb316d952219571e3fd43fd2803c19ebb8c1a57235df9ca42",
             "92410106b3d225a63733e4a2d27b606e01f8bf63a634a884ac54bdd02fb877e9",
             "0742f7f71c42b1fd68f6730f19ef1bfbf45c0afc8440940882cbe6cbd99e65ec"),
    ('A', 12): ("2b3951797c3bcfcac9c827b253672f9611fed2894a69acb1df45b6e26abac8be",
             "7505236976062f52d006597c4d3489e37b144591284bcd294851e1f0a1d5a64d",
             "2e1d96ccf9cd2b6dc1e69497092c296d231ec5352f265fbeabe5d3bf3c36880e"),
    ('D', 4): ("1146bf234f113b2d5bb00812955516d63e06a6a10b363a0506a0cf90eebadfd4",
             "a662c1dd6b57d24e2bd3f4a15fff8e639e8faffcddb6819225db91677d445220",
             "b2ebce1a57737cffcd6c287c75d9a258e366a39b7ae89da5b77e9cf82e5b79ed"),
    ('D', 5): ("bad33c9bf63fc6b583bf75f9a9ed18fdf0d6f8e8efb5518f0e2984d6cc5438b3",
             "b79c76a6ea55c4bb903d0452c1d5808728ce3437455ee564d569bce66c8064f7",
             "da67f06d9c4180abb37170c977971423c267e42ed34cda5e769f46435c960e4c"),
    ('D', 6): ("39d7b38250de71d588048b568dce86f2555f0b15bb3f6c5fc9090d2455b97ac9",
             "704fa710fab3ee97a814650043815dd757bfc55fb8ddbb6ef94cfd67f256d4ca",
             "4b3707ef9dcb63ae913923027b6d78590b4f8f1d1b8ba3ff8565ad51b502a8a7"),
    ('D', 7): ("0ecf50816399e006a4eeb669928c7e1fc3bc7b39d2b12ccc540dc818acc6141f",
             "72964624d2bbad93e85bd8d59d1e5a0ba9f134cebf66ad120b49fea62061d493",
             "6382dd7d506d185a8b7434a43f584639a4b309e928bce1a803d3df0908176d08"),
    ('D', 8): ("56ea8812c1c126e51ad26041e78cc12fe79d3b5b43bbdee52c85cf1adc2c6c8d",
             "083db647fba4122087f768e873a336146ca4e82772a81c936b5b5f9ff1113955",
             "f403085ac2f28d4955ac60cfb37db791a784f383074a064d1acb7216d7793fe3"),
    ('D', 9): ("ee8721603e073fddfe73fc7bf114f1b63dbc6493e969003d68ca4355a148eb31",
             "bb32e1b3ce877d41cf84f3947ad9276393c0ccf68430d70988cfebd1706f2e20",
             "4637ad41b582b0b0658716508cc8cfd347287614fef98e2cfa122cfece072c25"),
    ('D', 10): ("cf8568381cc1459d8c86d67cec0a3477c346a7fb4f383920f30ece58fff13be0",
             "83e9c8e6ef0942eaba178063377eda4549eb9e4944d8af862cdeaf389766fcc9",
             "09ddc04ceba2c9440e5283b05ca88eb3607283656f40eb0099b0de19ced2f6f9"),
    ('D', 11): ("647c3bb5e2e093bfc2822d243d625c69610edb7276b830405ab06326b28ea20e",
             "85136e010ddcd9172da4fd1bb8f42500968fc5b706cddcdd122000df7def569e",
             "01c9d23395f16ddca1eb93d86486a672e69b8ac06c948b2d97a8a2a6a07932fd"),
    ('D', 12): ("5738255068bf3cbf055edd1cb3ad5bd6ea724fc6fce541dbaf0be5af1c936ab9",
             "79ee24d0ebed5891c7b76aee038af4d4d57a8aafb380da9944941caa5251689b",
             "3de3e142fe347d94fd8b7850076c37922ef209a937173490ea7620a3cb82b414"),
    ('E', 6): ("01869dfb38df829d0e347da4379035a25e159eef399d1cc433c151fcc995211d",
             "2757bce767df53690d37cf2d622a706262020bb5f7ce9ab487b131b5fd3b163c",
             "2391b4989642b373979a7049ef06dbe22d48309893d2deb3a296785e2593ec1a"),
    ('E', 7): ("451998a694c5fb4dcaf4a317eebe909410f8087c65a78cbcb5652392aeef52b9",
             "a838f808eb5196dcd5a990a5798fb2e059e0a28933cfb66721861ec1e13bc9f6",
             "b0f01c87cd3dde4ad89be9fb4f8bf7bdcfe908f2417673196054502f4015e615"),
    ('E', 8): ("f109fc7634dccab88b4cc601f69c4d2cbfabb884711f6d4e50c4d3f978eb2987",
             "d190cb6eb94f2f26c319725486fd54c77472a5129156707dadf009d09efb2be1",
             "e10db721c15d7bdea404da98d386576854e22270926081f6728d1496819a4fdf"),
}


def _digest(doc):
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("spec", SLICE_TYPES)
def test_coxeter_element_projectives_and_labels_are_pinned(spec):
    d = DynkinType(*spec)
    lab = build_label_walk(d)
    labels = [[list(lab.root_at(m, q)), lab.shift_at(m, q)]
              for q in range(1, d.rank + 1) for m in range(lab.h)]
    got = (_digest(build_root_system(d).cox.matrix), _digest(lab.projectives), _digest(labels))
    assert got == SLICE_DIGESTS[spec]


@pytest.mark.parametrize("spec", SLICE_TYPES)
def test_every_arrow_points_one_step_down_the_slice(spec):
    d = DynkinType(*spec)
    off = build_label_walk(d).slice_offsets
    assert min(off) == 0
    assert all(off[a - 1] == off[b - 1] + 1 for a, b in arrows(d))


def test_zd_arrow_shapes():
    arr = zd_arrows(DynkinType("A", 2), range(0, 1))
    assert ((0, 1), (0, 2)) in arr
    assert ((-1, 2), (0, 1)) in arr


# -- labels --------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SMALL)
def test_label_layers_biject_with_positive_roots(spec):
    d = DynkinType(*spec)
    lab = build_label_walk(d)
    rs = build_root_system(d)
    for shift in (-1, 0, 1, 2):
        assert sorted(lab.layer_roots(shift)) == sorted(rs.positives)


def test_label_walk_example_a2():
    lab = build_label_walk(DynkinType("A", 2))
    # projectives on the seed slice at shift 0
    assert lab.label(1, 1) == ((1, 1), 0)
    assert lab.label(0, 2) == ((0, 1), 0)
    # one forward step applies the inverse Coxeter transformation
    assert lab.label(1, 2) == ((1, 0), 0)
    # crossing the injective boundary raises the shift
    assert lab.label(2, 1) == ((0, 1), 1)


def test_shift_periodicity():
    lab = build_label_walk(DynkinType("D", 4))
    for q in range(1, 5):
        for m in range(-7, 7):
            assert lab.root_at(m + lab.h, q) == lab.root_at(m, q)
            assert lab.shift_at(m + lab.h, q) == lab.shift_at(m, q) + 2


# -- suspension -----------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SMALL + [("E", 7), ("E", 8)])
def test_suspension_raises_shift_and_fixes_root(spec):
    d = DynkinType(*spec)
    lab = build_label_walk(d)
    s = suspension_vertex_map(d)
    for m in range(-5, 2 * lab.h):
        for q in range(1, d.rank + 1):
            sm, sq = s(m, q)
            assert lab.root_at(sm, sq) == lab.root_at(m, q)
            assert lab.shift_at(sm, sq) == lab.shift_at(m, q) + 1


@pytest.mark.parametrize("spec", ALL_SMALL)
def test_suspension_squares_to_h_translation_steps(spec):
    # with tau (m, q) -> (m - 1, q) and the shift rising along the walk,
    # S^2 is the h-th power of the inverse translation
    d = DynkinType(*spec)
    s = suspension_vertex_map(d)
    assert s.power(2) == tau_power(d.rank, -d.coxeter_number)
    assert is_quiver_automorphism(d, s)


def test_suspension_is_pure_translation_for_self_dual_series():
    assert suspension_vertex_map(DynkinType("D", 4)) == QuiverAutomorphism(4, (1, 2, 3, 4), (3, 3, 3, 3))
    s = suspension_vertex_map(DynkinType("A", 3))
    assert s.perm == (3, 2, 1)


# -- descriptors and invariance ---------------------------------------------


def test_descriptor_extremes():
    rs = build_root_system(DynkinType("A", 3))
    lab = build_label_walk(DynkinType("A", 3))
    empty = thick_from_nc(rs, rs.identity)
    full = thick_from_nc(rs, rs.cox)
    assert empty.marked_vertices(lab, 0, lab.h) == []
    assert len(full.marked_vertices(lab, 0, lab.h)) == lab.h * rs.rank
    for g in (tau_power(3, 1), phi_map(DynkinType("A", 3), 2), suspension_vertex_map(DynkinType("A", 3))):
        assert is_invariant_vertex_set(lab, empty, g)
        assert is_invariant_vertex_set(lab, full, g)


@pytest.mark.parametrize("spec", [("A", 3), ("A", 4), ("D", 4), ("D", 5)])
def test_tau_equivariance_square(spec):
    d = DynkinType(*spec)
    rs = build_root_system(d)
    lab = build_label_walk(d)
    cox, coxinv = rs.cox, rs.cox.inverse()
    tau = root_permutation(lab, tau_power(d.rank, 1))
    for w in enumerate_nc(rs):
        image = frozenset(tau[a] for a in roots_below(rs, w))
        assert image == roots_below(rs, cox * w * coxinv)


@pytest.mark.parametrize("spec", ALL_SMALL)
def test_root_permutation_well_defined_for_generators(spec):
    d = DynkinType(*spec)
    lab = build_label_walk(d)
    maps = [tau_power(d.rank, 2), suspension_vertex_map(d)]
    if d.series == "A" and d.rank % 2 == 0 and d.rank >= 2:
        maps.append(phi_map(d, "inf"))
    if d.series == "A" and d.rank % 2 == 1 and d.rank >= 3:
        maps.append(phi_map(d, 2))
    if d.series == "D":
        maps.append(phi_map(d, 2))
    if d == DynkinType("D", 4):
        maps.append(phi_map(d, 3))
    if d == DynkinType("E", 6):
        maps.append(phi_map(d, 2))
    rs = build_root_system(d)
    for g in maps:
        perm = root_permutation(lab, g)
        assert perm is not None
        assert sorted(perm) == sorted(rs.positives)
        assert sorted(perm.values()) == sorted(rs.positives)


def test_root_permutation_matches_vertex_scan():
    ct = CategoryType(DynkinType("D", 4), 2, 2)
    rs = build_root_system(ct.delta)
    lab = build_label_walk(ct.delta)
    g = generator_map(ct)
    perm = root_permutation(lab, g)
    for w in enumerate_nc(rs):
        desc = thick_from_nc(rs, w)
        fast = all(perm[r] in desc.roots for r in desc.roots)
        assert fast == is_invariant_vertex_set(lab, desc, g)


def test_root_permutation_rejects_a_map_that_mixes_roots():
    # swapping two columns without offsets is no automorphism of ZA3
    lab = build_label_walk(DynkinType("A", 3))
    g = QuiverAutomorphism(3, (2, 1, 3), (0, 0, 0))
    with pytest.raises(MixedRoots):
        root_permutation(lab, g)
    # an internal fault, never "invalid mathematical input"
    assert not issubclass(MixedRoots, ValueError)


# -- brute force anchors -------------------------------------------------------


def test_brute_force_paper_anchor_counts():
    assert len(brute_force_classify(CategoryType(DynkinType("D", 4), 3, 3))) == 8
    assert len(brute_force_classify(CategoryType(DynkinType("A", 2), 1, 1))) == 2
    assert len(brute_force_classify(CategoryType(DynkinType("A", 5), 4, 1))) == 6


def test_brute_force_a5_tau4_vertex_level():
    # six invariant sets for the fourth translation power on A5
    ct = CategoryType(DynkinType("A", 5), 4, 1)
    descs = brute_force_classify(ct)
    assert len(descs) == 6
    sizes = sorted(len(d.roots) for d in descs)
    assert sizes[0] == 0 and sizes[-1] == 15


def test_arm_swap_acts_as_sign_flip():
    for n in (4, 5):
        rs = build_root_system(DynkinType("D", n))
        report = phi_fixes_sigma_on_nc(rs)
        assert report.passed, report.summary()


def test_arm_swap_report_lists_each_failure_in_interval_order(monkeypatch):
    # with the identity for the arm swap's root map, the failures are the
    # elements the sign flip moves
    rs = build_root_system(DynkinType("D", 4))
    elements = enumerate_nc(rs)
    moved = tuple(
        w for w in elements
        if ar_bijection_g(rs, sigma(ar_bijection_f(rs, w))) != w
    )
    monkeypatch.setattr(
        derived_engine, "root_permutation", lambda lab, g: {a: a for a in lab.rs.positives}
    )
    report = phi_fixes_sigma_on_nc(rs)
    assert report.total == len(elements) == 50
    assert report.failures == moved and 0 < len(moved) < len(elements)
    assert report.summary() == (
        f"arm swap acts as the sign flip on the D model (D4): 50 cases, FAILED ({len(moved)})")


def test_triality_action_structure():
    d = DynkinType("D", 4)
    rs = build_root_system(d)
    lab = build_label_walk(d)
    tri = root_permutation(lab, phi_map(d, 3))
    # distinct interval elements have distinct root sets
    element_of = {roots_below(rs, w): w for w in enumerate_nc(rs)}
    image = {}
    for w in enumerate_nc(rs):
        img = element_of[frozenset(tri[a] for a in roots_below(rs, w))]
        image[w.matrix] = img.matrix
        assert absolute_length(rs, w) == absolute_length(rs, img)
    assert sorted(image) == sorted(image.values())
    assert all(image[image[image[m]]] == m for m in image)
    # the swap realizes the inverse: conjugating by it inverts the rotation
    assert sum(1 for m in image if image[m] == m) == 8


def test_triality_cycles_the_arm_simples():
    d = DynkinType("D", 4)
    rs = build_root_system(d)
    lab = build_label_walk(d)
    tri = root_permutation(lab, phi_map(d, 3))
    simple = {q: tuple(int(i == q - 1) for i in range(4)) for q in (1, 3, 4)}
    refl = {q: next(w for w in enumerate_nc(rs)
                    if roots_below(rs, w) == frozenset({simple[q]}))
            for q in (1, 3, 4)}
    img = {q: frozenset(tri[a] for a in roots_below(rs, refl[q])) for q in (1, 3, 4)}
    assert img[3] == roots_below(rs, refl[4])
    assert img[4] == roots_below(rs, refl[1])
    assert img[1] == roots_below(rs, refl[3])


def test_triality_witness_invariant_wide_a2():
    # the rank-two wide subcategory on the two short arms is carried to
    # itself by the rotation composed with one translation step
    d = DynkinType("D", 4)
    lab = build_label_walk(d)
    tri = phi_map(d, 3)
    g = tri @ tau_power(4, -1)
    roots = {(0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0)}
    marked = {(m, q) for m in range(6) for q in range(1, 5)
              if lab.root_at(m, q) in roots}
    assert marked == {(0, 1), (0, 3), (1, 4), (3, 1), (3, 3), (4, 4)}
    for v in marked:
        gm, gq = g(*v)
        assert (gm % 6, gq) in {(m % 6, q) for m, q in marked}


@pytest.mark.parametrize("r,expected", [(1, 5), (2, 5), (3, 8), (4, 5), (5, 5), (6, 8)])
def test_triality_brute_force_counts(r, expected):
    # the engine finds three invariant rank-two wides when r is coprime
    # to three; the tabulated classification claims only the trivial pair
    ct = CategoryType(DynkinType("D", 4), r, 3)
    assert len(brute_force_classify(ct)) == expected


def test_triality_count_is_direction_independent():
    d = DynkinType("D", 4)
    rs = build_root_system(d)
    lab = build_label_walk(d)
    for r in (1, 2, 3):
        for direction in (-1, 1):
            g = phi_map(d, 3) @ tau_power(4, direction * r)
            count = sum(
                1
                for w in enumerate_nc(rs)
                if is_invariant_vertex_set(lab, thick_from_nc(rs, w), g)
            )
            assert count == (8 if r % 3 == 0 else 5)


# -- cluster orbits -------------------------------------------------------------


@pytest.mark.parametrize("spec", [("A", 1), ("A", 3), ("A", 4), ("D", 4), ("D", 5)])
@pytest.mark.parametrize("power", [1, 2])
def test_cluster_orbits_have_no_proper_invariants(spec, power):
    report = cluster_category_check(DynkinType(*spec), power)
    assert report.passed, report.summary()
    assert report.total == 2


def test_cluster_report_is_made_once_per_type_and_power():
    d = DynkinType("D", 5)
    report = cluster_category_check(d, 2)
    assert cluster_category_check(d, 2) is report
    assert cluster_category_check(DynkinType("D", 5), 2) is report
    assert cluster_category_check(d, 1) is not report
    assert isinstance(report.failures, tuple)


@pytest.mark.parametrize("spec", ALL_SMALL)
@pytest.mark.parametrize("power", [1, 2])
def test_memoized_cluster_report_equals_a_fresh_one(spec, power):
    d = DynkinType(*spec)
    report = cluster_category_check(d, power)
    fresh = cluster_category_check.__wrapped__(d, power)
    assert fresh is not report
    assert fresh == report


@pytest.fixture
def empty_cluster_memo():
    cluster_category_check.cache_clear()
    yield
    # drop the reports made under a patched filter
    cluster_category_check.cache_clear()


def test_cluster_memo_does_not_hide_a_fault_present_before_the_first_call(
    monkeypatch, empty_cluster_memo
):
    d = DynkinType("A", 4)
    rs = build_root_system(d)
    real = derived_engine.fixed_by_cycles
    # no cycles: every element of the interval is kept
    proper = next(x for x in real(rs, ()) if 0 < len(x.roots) < len(rs.positives))

    def keeps_a_proper_set(rs, cycles):
        return real(rs, cycles) + [proper]

    monkeypatch.setattr(derived_engine, "fixed_by_cycles", keeps_a_proper_set)
    report = cluster_category_check(d, 1)
    assert not report.passed
    assert report.failures == (proper.nc,) and report.total == 3
    assert cluster_category_check(d, 1) is report


def test_descriptor_json():
    rs = build_root_system(DynkinType("A", 2))
    ct = CategoryType(DynkinType("A", 2), 1, 1)
    desc = thick_from_nc(rs, rs.cox)
    doc = desc.to_json(ct)
    assert doc["type"] == {"series": "A", "rank": 2, "r": 1, "t": 1}
    assert len(doc["marked_vertices"]) == 6
    assert doc["roots"] == [[0, 1], [1, 0], [1, 1]]
    assert doc["nc"]["cycles"] == [[1, 2, 3]]


# -- the invariance filter ---------------------------------------------------


def reference_fixed(rs, root_map):
    """The filter's definition on frozensets: root sets root_map maps into
    themselves (onto, as root_map is injective and the sets are finite)."""
    out = []
    for w in enumerate_nc(rs):
        roots = roots_below(rs, w)
        if all(root_map[a] in roots for a in roots):
            out.append((w, roots))
    return out


def assert_filter_matches_reference(rs, root_map):
    got = [(d.nc, d.roots) for d in fixed_descriptors(rs, root_map)]
    assert got == reference_fixed(rs, root_map)


def classification_root_maps(d):
    """Every root map a classification route of the type builds: one per
    criterion and per generator over 1 <= r <= 2h, plus both cluster-check
    orbit constructions."""
    rs = build_root_system(d)
    lab = build_label_walk(d)
    maps = {}
    for series, rank, t in admissible_types_for_rank(d.rank):
        if (series, rank) != (d.series, d.rank):
            continue
        for r in range(1, 2 * d.coxeter_number + 1):
            ct = CategoryType(d, r, t)
            maps[reduce_criterion(ct)] = criterion_root_map(rs, reduce_criterion(ct))
            maps[str(ct)] = root_permutation(lab, generator_map(ct))
    for power in (1, 2):
        g = suspension_vertex_map(d).power(power) @ tau_power(d.rank, -1)
        maps[f"cluster {power}"] = root_permutation(lab, g)
    return maps


@pytest.mark.parametrize("spec", ALL_SMALL)
def test_mask_filter_matches_the_reference_on_every_classification_map(spec):
    d = DynkinType(*spec)
    rs = build_root_system(d)
    for root_map in classification_root_maps(d).values():
        assert_filter_matches_reference(rs, root_map)


@pytest.mark.parametrize("spec", [("A", 5), ("D", 5), ("E", 6)])
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_mask_filter_matches_the_reference_on_random_permutations(spec, data):
    # a random permutation of a random subset of the roots, the rest fixed,
    # so that proper invariant sets are common
    rs = build_root_system(DynkinType(*spec))
    n = len(rs.positives)
    moved = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    images = data.draw(st.permutations(moved))
    perm = list(range(n))
    for i, j in zip(moved, images):
        perm[i] = j
    assert_filter_matches_reference(rs, {a: rs.positives[j] for a, j in zip(rs.positives, perm)})


def test_mask_filter_rejects_a_root_map_that_is_no_permutation():
    rs = build_root_system(DynkinType("A", 3))
    first = rs.positives[0]
    collapsed = {a: first for a in rs.positives}
    missing = {a: a for a in rs.positives[1:]}
    negated = {a: tuple(-x for x in a) for a in rs.positives}
    for root_map in (collapsed, missing, negated):
        with pytest.raises(BrokenInvariant):
            fixed_descriptors(rs, root_map)


# -- cached root maps -----------------------------------------------------------


# P_3 e_q = e_(3, 2, 4, 1)[q]: alpha_1 -> alpha_3 -> alpha_4 -> alpha_1
P3 = ((0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0))


def matrix_criterion_map(rs, crit):
    """The criterion's root map built with matrices: alpha -> ±L alpha with
    L = cox^s, or P cox^s where P swaps the simple roots n-1 and n, or
    P_3 s_1 s_4 cox^-s for the triality."""
    if crit.mode == "d4_triality":
        s1, s4 = rs.simple_reflection(1).matrix, rs.simple_reflection(4).matrix
        L = mat_mul(mat_mul(mat_mul(P3, s1), s4), mat_pow(rs.cox.matrix, -crit.s))
    else:
        L = mat_pow(rs.cox.matrix, crit.s)
    if crit.mode == "sigma_rho_power":
        n = rs.rank
        L = L[: n - 2] + (L[n - 1], L[n - 2])
    return {a: rs.normalize_root(mat_vec(L, a))[0] for a in rs.positives}


def as_root_map(rs, perm):
    return {a: rs.positives[j] for a, j in zip(rs.positives, perm)}


def cells_of(d):
    for series, rank, t in admissible_types_for_rank(d.rank):
        if (series, rank) == (d.series, d.rank):
            for r in range(1, 2 * d.coxeter_number + 1):
                yield CategoryType(d, r, t)


@pytest.mark.parametrize("spec", ALL_SMALL)
def test_cached_root_maps_match_their_references(spec):
    # every cached index permutation against the map it stands for: the
    # criterion's against the matrix construction, the engine's against a
    # fresh labeling walk; each route's descriptors against the filter's
    # definition on that reference map; and each vertex map, built by
    # raising offsets, against the composition with a tau power
    d = DynkinType(*spec)
    rs = build_root_system(d)
    lab = build_label_walk(d)
    criterion_fixed = {}
    for ct in cells_of(d):
        crit = reduce_criterion(ct)
        if crit not in criterion_fixed:
            reference = matrix_criterion_map(rs, crit)
            assert as_root_map(rs, criterion_permutation(rs, crit)[0]) == reference, str(ct)
            assert criterion_root_map(rs, crit) == reference, str(ct)
            criterion_fixed[crit] = reference_fixed(rs, reference)
        got = [(x.nc, x.roots) for x in enumerate_thick(ct)]
        assert got == criterion_fixed[crit], str(ct)
        g = generator_map(ct)
        assert g == phi_map(d, ct.t) @ tau_power(d.rank, -ct.r), str(ct)
        walk = root_permutation(lab, g)
        assert as_root_map(rs, vertex_map_permutation(lab, g)[0]) == walk, str(ct)
        got = [(x.nc, x.roots) for x in brute_force_classify(ct)]
        assert got == reference_fixed(rs, walk), str(ct)
    for power in (1, 2):
        g = suspension_vertex_map(d).power(power) @ tau_power(d.rank, -1)
        assert cluster_map(d, power) == g
        walk = root_permutation(lab, g)
        perm, cycles = vertex_map_permutation(lab, g)
        assert as_root_map(rs, perm) == walk
        assert [(x.nc, x.roots) for x in fixed_by_cycles(rs, cycles)] == reference_fixed(rs, walk)


@pytest.mark.parametrize("route", [enumerate_thick, brute_force_classify])
@pytest.mark.parametrize("cell", [("E", 6, 4, 1), ("E", 6, 12, 1), ("D", 4, 1, 3), ("A", 5, 2, 2)])
def test_route_results_share_no_list(route, cell):
    # (E6, 12, 1) fixes every root, so its filter has no cycle to run
    ct = CategoryType(DynkinType(*cell[:2]), *cell[2:])
    first, second = route(ct), route(ct)
    assert first == second and first is not second
    kept = list(second)
    first.clear()
    assert second == kept
    assert route(ct) == kept


def test_a_root_system_built_by_hand_has_its_own_caches():
    d = DynkinType("D", 5)
    shared = build_root_system(d)
    own = RootSystem(d)
    assert own is not shared
    assert own._interval_cache is None and own._permutation_cache == {}
    assert own._fixed_cache == {}
    # s = 3 divides no h = 8, so no classification route builds this criterion
    crit = InvarianceCriterion(automorphisms(d)[1].twist, 3)
    got = fixed_descriptors(own, criterion_root_map(own, crit))
    assert crit in own._permutation_cache
    assert crit not in shared._permutation_cache
    expected = fixed_descriptors(shared, criterion_root_map(shared, crit))
    assert got == expected
    assert all(x is not y for x, y in zip(got, expected))
    assert own._interval_cache is not shared._interval_cache
    assert own._fixed_cache and own._fixed_cache is not shared._fixed_cache


# -- the cached filter and the cached walk --------------------------------------


def pairs(descriptors):
    return [(x.nc, x.roots) for x in descriptors]


@pytest.mark.parametrize("spec", ALL_SMALL)
def test_memoized_filter_matches_the_uncached_reference_at_every_cell(spec):
    # the criterion route, brute force and both cluster powers read one
    # memo; each result, on its first call (a miss, or a hit another route
    # left) and on a repeat (a hit), against the reference worked out afresh
    d = DynkinType(*spec)
    rs = build_root_system(d)
    lab = build_label_walk(d)
    reference = {}

    def expected(cycles):
        if cycles not in reference:
            reference[cycles] = uncached_fixed(rs, cycles)
        return reference[cycles]

    for ct in cells_of(d):
        criterion = criterion_permutation(rs, reduce_criterion(ct))[1]
        generator = vertex_map_permutation(lab, generator_map(ct))[1]
        for _ in range(2):
            assert pairs(enumerate_thick(ct)) == expected(criterion), str(ct)
            assert pairs(brute_force_classify(ct)) == expected(generator), str(ct)
    for power in (1, 2):
        cycles = vertex_map_permutation(lab, cluster_map(d, power))[1]
        for _ in range(2):
            assert pairs(fixed_by_cycles(rs, cycles)) == expected(cycles)
            report = cluster_category_check(d, power)
            assert report.passed and report.total == len(expected(cycles)) == 2
    assert set(reference) <= set(rs._fixed_cache)


@pytest.mark.parametrize("spec", [("A", 5), ("D", 4), ("E", 6)])
def test_mutating_a_filter_result_leaves_the_next_one_alone(spec):
    d = DynkinType(*spec)
    rs = build_root_system(d)
    lab = build_label_walk(d)
    every = [criterion_permutation(rs, reduce_criterion(ct))[1] for ct in cells_of(d)]
    every += [vertex_map_permutation(lab, cluster_map(d, p))[1] for p in (1, 2)]
    for cycles in every + [()]:
        first = fixed_by_cycles(rs, cycles)
        first.reverse()
        first.append(first[0])
        second = fixed_by_cycles(rs, cycles)
        assert second is not first
        assert pairs(second) == uncached_fixed(rs, cycles)
        second.clear()
        assert pairs(fixed_by_cycles(rs, cycles)) == uncached_fixed(rs, cycles)


@pytest.mark.parametrize("spec", ALL_SMALL)
def test_one_labeling_walk_per_vertex_map_mod_tau_h(spec):
    # g and g.tau^-h read the same roots, so they share one cached entry,
    # and that entry is what a fresh walk of either gives
    d = DynkinType(*spec)
    rs = build_root_system(d)
    lab = build_label_walk(d)
    h = d.coxeter_number
    maps = [generator_map(ct) for ct in cells_of(d)] + [cluster_map(d, p) for p in (1, 2)]
    for g in maps:
        later = _after_tau(g, h)
        assert later != g
        entry = vertex_map_permutation(lab, g)
        assert vertex_map_permutation(lab, later) is entry
        assert entry[1] == cycle_masks(entry[0])
        for x in (g, later, _after_tau(g, -2 * h)):
            assert as_root_map(rs, entry[0]) == root_permutation(lab, x)


def test_the_generators_of_r_and_r_plus_h_walk_once(monkeypatch):
    # a fresh labeling, so every walk is counted: r = 1..2h at each t
    # needs h walks per t, not 2h
    d = DynkinType("D", 5)
    lab = Labeling(RootSystem(d))
    walks = []

    def counted(labeling, g):
        walks.append(g)
        return root_permutation(labeling, g)

    monkeypatch.setattr(derived_engine, "root_permutation", counted)
    cells = list(cells_of(d))
    for ct in cells:
        vertex_map_permutation(lab, generator_map(ct))
    assert len(walks) == len(cells) // 2 == len(lab._permutations)
