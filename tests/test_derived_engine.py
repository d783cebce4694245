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
    zd_arrows,
)
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
    MixedRoots,
    QuiverAutomorphism,
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
    build_root_system,
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


def test_vertex_map_refuses_an_impossible_column_map():
    # every column map the engine passes in is an internal constant, so a
    # bad one is a fault, never "invalid mathematical input"
    a3 = DynkinType("A", 3)
    with pytest.raises(BrokenInvariant, match="not a graph automorphism"):
        vertex_map(a3, (2, 1, 3), 2, 0)
    with pytest.raises(BrokenInvariant, match="admits no offsets"):
        vertex_map(a3, (1, 2, 3), 2, 1)
    assert not issubclass(BrokenInvariant, ValueError)


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
    rs = build_root_system(DynkinType("A", 2))
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
    assert own._descriptor_cache is None and own._permutation_cache == {}
    # s = 3 divides no h = 8, so no classification route builds this criterion
    crit = InvarianceCriterion("cox_conjugation", 3)
    got = fixed_descriptors(own, criterion_root_map(own, crit))
    assert crit in own._permutation_cache
    assert crit not in shared._permutation_cache
    expected = fixed_descriptors(shared, criterion_root_map(shared, crit))
    assert got == expected
    assert all(x is not y for x, y in zip(got, expected))
    assert own._descriptor_cache is not shared._descriptor_cache
