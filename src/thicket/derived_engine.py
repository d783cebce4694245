"""The translation quiver ZDelta, its labeling and its automorphisms.

Vertices are pairs (m, q) with q a 1-based vertex of Delta.  Every
automorphism used here is a column permutation combined with per-column
m-offsets, so composition, powers and inverses stay exact and hashable.
One constructor, vertex_map, builds them all: one walk over the Dynkin
tree fixes the relative offsets, and the power identity g^order = tau^k
fixes the remaining constant.  phi_map has (order, k) = (t, 0), or
(2, 1) for t = inf; the suspension is the Nakayama permutation with
(2, -h).

The labeling walk attaches (positive root, shift) to each vertex.  The
translation tau is (m, q) -> (m - 1, q).  Walking in the +m direction
applies cox^-1 to roots and bumps the shift when the sign flips; over h
steps every column returns to its root with the shift increased by 2.
Consequently the shift-raising suspension map squares to m -> m + h,
the h-th power of the inverse translation.  That orientation of the
identity is pinned here once, in suspension_vertex_map.
"""

from dataclasses import dataclass
from functools import lru_cache

from .linalg import mat_inverse, mat_vec
from .root_coxeter import (
    DynkinType,
    InvalidType,
    arrows,
    build_root_system,
    cycle_masks,
    enumerate_nc,
    index_permutation,
    roots_below,
    _interval,
    _require,
)


class MixedRoots(RuntimeError):
    """Internal fault: a vertex map sends two vertices carrying one root
    to vertices carrying different roots, so it induces no root map."""


@dataclass(frozen=True)
class QuiverAutomorphism:
    """g(m, q) = (m + offset[q-1], perm[q-1])."""

    n: int
    perm: tuple
    offset: tuple

    def __call__(self, m, q):
        return m + self.offset[q - 1], self.perm[q - 1]

    def __matmul__(self, other):
        perm = []
        offset = []
        for q in range(1, self.n + 1):
            m1, q1 = other(0, q)
            m2, q2 = self(m1, q1)
            perm.append(q2)
            offset.append(m2)
        return QuiverAutomorphism(self.n, tuple(perm), tuple(offset))

    def inverse(self):
        perm = [0] * self.n
        offset = [0] * self.n
        for q in range(1, self.n + 1):
            m1, q1 = self(0, q)
            perm[q1 - 1] = q
            offset[q1 - 1] = -m1
        return QuiverAutomorphism(self.n, tuple(perm), tuple(offset))

    def power(self, k):
        out = identity_map(self.n)
        base = self if k >= 0 else self.inverse()
        for _ in range(abs(k)):
            out = base @ out
        return out


def identity_map(n):
    return QuiverAutomorphism(n, tuple(range(1, n + 1)), (0,) * n)


def tau_power(n, k):
    """The k-th power of the translation: (m, q) -> (m - k, q)."""
    return QuiverAutomorphism(n, tuple(range(1, n + 1)), (-k,) * n)


def _tree_offsets(delta, rise):
    """Column offsets with off[b] - off[a] = rise(a, b) along every arrow
    a -> b of Delta, rooted at off[1] = 0 (Delta is a tree)."""
    off = {1: 0}
    while len(off) < delta.rank:
        for (a, b) in arrows(delta):
            if a in off and b not in off:
                off[b] = off[a] + rise(a, b)
            elif b in off and a not in off:
                off[a] = off[b] - rise(a, b)
    return [off[q] for q in range(1, delta.rank + 1)]


def vertex_map(delta, perm, order, k):
    """The vertex map of ZDelta with column permutation perm and g^order = tau^k.

    Along an arrow a -> b of Delta the image columns are joined either by
    a quiver arrow (equal offsets) or by a mesh arrow (the offset rises by
    one); the power identity pins the remaining global constant.
    """
    arr = set(arrows(delta))

    def rise(a, b):
        pa, pb = perm[a - 1], perm[b - 1]
        _require((pa, pb) in arr or (pb, pa) in arr,
                 f"column map {perm} is not a graph automorphism of {delta}")
        return int((pb, pa) in arr)

    rel = _tree_offsets(delta, rise)
    total, q = 0, 1
    for _ in range(order):
        total += rel[q - 1]
        q = perm[q - 1]
    shift = (-k - total) // order
    g = QuiverAutomorphism(delta.rank, tuple(perm), tuple(o + shift for o in rel))
    _require(g.power(order) == tau_power(delta.rank, k),
             f"column map {perm} admits no offsets with g^{order} = tau^{k} on {delta}")
    return g


def _diagram_flip(delta):
    """The order-2 graph automorphism of Delta (the identity when it has none)."""
    n = delta.rank
    if delta.series == "A":
        return tuple(range(n, 0, -1))
    if delta.series == "D":
        return tuple(range(1, n - 1)) + (n, n - 1)
    return (6, 5, 3, 4, 2, 1) if n == 6 else tuple(range(1, n + 1))


@lru_cache(maxsize=None)
def phi_map(delta, t):
    """The order-t vertex map of ZDelta used in the automorphism group.

    t = 1 is the identity; t = 2 the diagram flip (central line for A
    odd, arm swap for D, the column flip for E6); t = 3 the D4 rotation
    of the three outer arms; t = "inf" the A-even flip whose square is
    one step of the translation.
    """
    n = delta.rank
    ident = tuple(range(1, n + 1))
    flip = _diagram_flip(delta)
    a_even = delta.series == "A" and n % 2 == 0
    table = {
        1: (ident, 1, 0),
        2: (flip, 2, 0) if flip != ident and not a_even else None,
        3: ((3, 2, 4, 1), 3, 0) if delta == DynkinType("D", 4) else None,
        "inf": (flip, 2, 1) if a_even else None,
    }
    if table.get(t) is None:
        raise InvalidType(f"no automorphism of order {t!r} for {delta}")
    return vertex_map(delta, *table[t])


@lru_cache(maxsize=None)
def suspension_vertex_map(delta):
    """Vertex map of the shift functor: fixes roots, raises shift by 1.

    Its columns follow the Nakayama permutation (the diagram flip for A,
    odd D and E6, the identity otherwise) and S^2 = tau^-h.
    """
    series, n = delta.series, delta.rank
    flips = series == "A" or (series == "D" and n % 2) or delta == DynkinType("E", 6)
    perm = _diagram_flip(delta) if flips else tuple(range(1, n + 1))
    return vertex_map(delta, perm, 2, -delta.coxeter_number)


# -- labeling ----------------------------------------------------------


class Labeling:
    """(root, shift) labels for the vertices of ZDelta.

    One period of each column is materialized; any window follows from
    m-periodicity (roots repeat with period h, shifts gain 2 per period).
    """

    def __init__(self, rs):
        self.rs = rs
        n = rs.rank
        self.h = rs.delta.coxeter_number
        self.slice_offsets = self._slice_offsets()
        self.coxinv = mat_inverse(rs.cox.matrix)
        proj = mat_inverse(rs.euler_form)
        self.projectives = tuple(tuple(row) for row in proj)
        self._permutations = {}  # vertex map -> vertex_map_permutation
        for row in self.projectives:
            _require(row in rs.positives, "projective seed is not a positive root")
        self._root_col = []
        self._shift_col = []
        for q in range(1, n + 1):
            roots, shifts = self._walk_column(q)
            self._root_col.append(roots)
            self._shift_col.append(shifts)

    def _slice_offsets(self):
        """Column offsets placing the projectives on a slice of ZDelta.

        Along an arrow x -> y the radical inclusion P(y) -> P(x) is the mesh
        arrow (c, y) -> (c + 1, x), so sources sit one step right.
        """
        off = _tree_offsets(self.rs.delta, lambda a, b: -1)
        return tuple(o - min(off) for o in off)

    def _walk_column(self, q):
        h = self.h
        c = self.slice_offsets[q - 1]
        roots = [None] * h
        shifts = [None] * h

        def store(m, root, shift):
            idx = m % h
            roots[idx] = root
            # shifts are stored for the representative m in [0, h)
            shifts[idx] = shift - 2 * ((m - idx) // h)

        root, shift = self.projectives[q - 1], 0
        m = c
        store(m, root, shift)
        for _ in range(h - 1):
            v = mat_vec(self.coxinv, root)
            if all(x <= 0 for x in v):
                root, shift = tuple(-x for x in v), shift + 1
            else:
                root = tuple(v)
            m += 1
            store(m, root, shift)
        return tuple(roots), tuple(shifts)

    def root_at(self, m, q):
        return self._root_col[q - 1][m % self.h]

    def shift_at(self, m, q):
        base = m % self.h
        return self._shift_col[q - 1][base] + 2 * ((m - base) // self.h)

    def label(self, m, q):
        return self.root_at(m, q), self.shift_at(m, q)

    def layer_roots(self, shift):
        """Roots of all vertices with the given shift (one full layer)."""
        out = []
        for q in range(1, self.rs.rank + 1):
            for m in range(-2 * self.h, 2 * self.h):
                if self.shift_at(m, q) == shift:
                    out.append(self.root_at(m, q))
        return out


@lru_cache(maxsize=None)
def build_label_walk(delta):
    return Labeling(build_root_system(delta))


# -- thick subcategories as vertex sets --------------------------------


@dataclass(frozen=True)
class ThickDescriptor:
    delta: DynkinType
    nc: object
    roots: frozenset

    def marked(self, labeling, m, q):
        return labeling.root_at(m, q) in self.roots

    def marked_vertices(self, labeling, m_lo, m_hi):
        return [
            (m, q)
            for m in range(m_lo, m_hi)
            for q in range(1, self.delta.rank + 1)
            if self.marked(labeling, m, q)
        ]

    def to_json(self, ct=None):
        from .root_coxeter import group_element_to_json

        rs = build_root_system(self.delta)
        labeling = build_label_walk(self.delta)
        doc = {
            "nc": group_element_to_json(rs, self.nc),
            "roots": sorted([list(r) for r in self.roots]),
            "marked_vertices": [
                [m, q] for (m, q) in self.marked_vertices(labeling, 0, labeling.h)
            ],
        }
        if ct is not None:
            doc["type"] = ct.to_json()
        return doc


def root_permutation(labeling, g):
    """The permutation of positive roots induced by the vertex map g.

    Vertex marks are root-determined, so when every vertex carrying a
    root maps to vertices carrying one common root, invariance of a
    vertex set reduces to closure of its root set under this map.
    Raises MixedRoots when g mixes roots (never for the maps built here).
    Each call walks the labeling afresh; the classification routes read
    the map through vertex_map_permutation, which walks once per vertex
    map and caches it as an index permutation of rs.positives.
    """
    out = {}
    h = labeling.h
    for m in range(h):
        for q in range(1, labeling.rs.rank + 1):
            src = labeling.root_at(m, q)
            img = labeling.root_at(*g(m, q))
            if out.setdefault(src, img) != img:
                raise MixedRoots(f"{g!r} sends {src} to {out[src]} and {img}")
    return out


def _descriptor_table(rs):
    """(mask, ThickDescriptor) for every interval element, in interval
    order; built once per root system."""
    if rs._descriptor_cache is None:
        rs._descriptor_cache = tuple(
            (mask, ThickDescriptor(rs.delta, w, roots)) for w, mask, roots in _interval(rs).values()
        )
    return rs._descriptor_cache


def fixed_by_cycles(rs, cycles):
    """Descriptors of the interval elements whose root mask meets each
    cycle mask c in nothing or in all of c, as a new list in interval order.

    A finite set is mapped onto itself by a permutation exactly when it
    is a union of its cycles, so with the nontrivial cycle masks of a
    root map these are the elements whose root set it fixes.  Each cycle
    in turn filters the survivors of the one before; the descriptors are
    the ones built once per root system.
    """
    kept = _descriptor_table(rs)
    for c in cycles:
        ends = (0, c)
        kept = [e for e in kept if e[0] & c in ends]
    return [d for _, d in kept]


def vertex_map_permutation(labeling, g):
    """root_permutation(labeling, g) as (index permutation of
    labeling.rs.positives, its nontrivial cycle masks).

    The labeling walk runs, and its map is checked to be a permutation
    (BrokenInvariant otherwise), once per vertex map; the result is kept
    on the labeling.
    """
    cached = labeling._permutations.get(g)
    if cached is None:
        perm = index_permutation(labeling.rs, root_permutation(labeling, g))
        cached = labeling._permutations[g] = (perm, cycle_masks(perm))
    return cached


def _after_tau(g, k):
    """g @ tau_power(g.n, -k), built without composing: every offset of g
    raised by k."""
    return QuiverAutomorphism(g.n, g.perm, tuple(o + k for o in g.offset))


def generator_map(ct):
    """Vertex map generating the identification group of the type:
    phi.tau^-r.

    The translation power is taken in the walk direction (m -> m + r);
    for pure powers and the involutions this generates the same group
    either way, and for the infinite-order case it is the orientation
    under which the classification matches reduce_criterion's offset.
    """
    return _after_tau(phi_map(ct.delta, ct.t), ct.r)


@lru_cache(maxsize=None)
def cluster_map(delta, power):
    """S^power.tau^-1, whose orbits build the cluster category (power 1)
    and its shift-twice variant (power 2); built once per type and power."""
    return _after_tau(suspension_vertex_map(delta).power(power), 1)


def brute_force_classify(ct):
    """The interval elements whose vertex set the generator fixes.

    This is the oracle that every closed formula and interval-level
    criterion is checked against.  The root map is the generator's
    root_permutation off the labeling walk, as the index permutation
    vertex_map_permutation caches.
    """
    labeling = build_label_walk(ct.delta)
    _, cycles = vertex_map_permutation(labeling, generator_map(ct))
    return fixed_by_cycles(labeling.rs, cycles)


def phi_fixes_sigma_on_nc(rs):
    """Check that the arm swap acts on the D model as the sign flip.

    Distinct interval elements have distinct root sets, so the arm swap
    sends w to the expected element exactly when its root permutation
    sends the root set of w onto the expected one.
    """
    from .ncp_models import VerificationReport, ar_bijection_f, ar_bijection_g, sigma

    perm = root_permutation(build_label_walk(rs.delta), phi_map(rs.delta, 2))
    failures = []
    elements = enumerate_nc(rs)
    for w in elements:
        expected = ar_bijection_g(rs, sigma(ar_bijection_f(rs, w)))
        if frozenset(perm[a] for a in roots_below(rs, w)) != roots_below(rs, expected):
            failures.append(w)
    return VerificationReport(
        f"arm swap acts as the sign flip on the D model ({rs.delta})",
        len(elements),
        tuple(failures),
    )


def cluster_category_check(delta, power=1):
    """Orbit construction by shift-then-translate admits no proper
    invariant vertex sets; returns the verification report."""
    from .ncp_models import VerificationReport

    rs = build_root_system(delta)
    labeling = build_label_walk(delta)
    invariant = fixed_by_cycles(rs, vertex_map_permutation(labeling, cluster_map(delta, power))[1])
    failures = tuple(
        d.nc for d in invariant if d.roots not in (frozenset(), frozenset(rs.positives))
    )
    return VerificationReport(
        f"orbit by S^{power}.tau^-1 has only the two trivial invariant sets ({delta})",
        len(invariant),
        failures,
    )
