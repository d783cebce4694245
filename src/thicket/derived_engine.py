"""The translation quiver ZDelta, its labeling and its automorphisms.

Vertices are pairs (m, q) with q a 1-based vertex of Delta.  Every
automorphism used here is a column permutation combined with per-column
m-offsets, so composition, powers and inverses stay exact and hashable.
One constructor, vertex_map, builds them all: one walk over the Dynkin
tree fixes the relative offsets, and the power identity g^order = tau^k
fixes the remaining constant.  One table, automorphisms(Delta), holds
each admissible (Delta, t): phi's column permutation and (order, k),
(t, 0) or (2, 1) for t = inf, and the criterion's offset and twist.
The admissible types, phi_map, the suspension (the Nakayama
permutation with (2, -h)) and the classifier's criteria all read it.

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
from math import gcd
from operator import mod

from .linalg import mat_inverse, mat_vec
from .ncp_models import VerificationReport, ar_bijection_f, ar_bijection_g, interval_report, sigma
from .root_coxeter import (
    BrokenInvariant,
    DynkinType,
    InvalidType,
    ThickDescriptor,  # re-exported: the value type of the classification routes
    arrows,
    build_root_system,
    cycle_masks,
    index_permutation,
    roots_below,
    _interval,
    _tree_offsets,
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


def vertex_map(delta, perm, order, k):
    """The vertex map of ZDelta with column permutation perm and g^order = tau^k.

    Along an arrow a -> b of Delta the image columns are joined either by
    a quiver arrow (equal offsets) or by a mesh arrow (the offset rises by
    one); the power identity pins the remaining global constant.
    """
    arr = set(arrows(delta))

    def rise(a, b):
        pa, pb = perm[a - 1], perm[b - 1]
        # the messages spell out all of perm: format them only on failure
        if (pa, pb) not in arr and (pb, pa) not in arr:
            raise BrokenInvariant(f"column map {perm} is not a graph automorphism of {delta}")
        return int((pb, pa) in arr)

    rel = _tree_offsets(delta, rise)
    total, q = 0, 1
    for _ in range(order):
        total += rel[q - 1]
        q = perm[q - 1]
    shift = (-k - total) // order
    g = QuiverAutomorphism(delta.rank, tuple(perm), tuple(o + shift for o in rel))
    if g.power(order) != tau_power(delta.rank, k):
        raise BrokenInvariant(
            f"column map {perm} admits no offsets with g^{order} = tau^{k} on {delta}")
    return g


@dataclass(frozen=True, eq=False)
class Twist:
    """The twist T of a criterion, conjugation by L = T cox^(sign s) with
    s = reduce(offset + r, modulus), reduce gcd or mod.  T applies its
    word first ((i, j) is s_i s_j), then sends e_q to e_perm[q]; it
    multiplies the invariant of degree d by exp(2 pi i a/b) for each (d,
    a, b) of invariants.  Hashed by identity, as a cache key."""

    name: str
    perm: tuple
    word: tuple
    sign: int
    reduce: object
    modulus: int
    invariants: tuple


@dataclass(frozen=True)
class Automorphism:
    """One admissible (Delta, t): phi's column permutation perm with
    phi^order = tau^k, the offset the criterion adds to r, and its twist."""

    perm: tuple
    order: int
    k: int
    offset: int
    twist: Twist


@lru_cache(maxsize=None)
def automorphisms(delta):
    """The table of delta: {t: Automorphism} for each admissible t, in order.

    t = 1 is the identity; t = 2 the diagram flip (central line for A
    odd, arm swap for D, the column flip for E6); t = 3 the D4 rotation
    of the three outer arms; t = "inf" the A-even flip whose square is
    one step of the translation.

    Where phi's columns follow the Nakayama permutation (A, odd D, E6),
    phi is the suspension times a power of tau, and the suspension fixes
    every root, so phi.tau^-r and cox^(h // 2 + r) generate one group of
    root maps: the criterion is untwisted, with offset h // 2.  The even-D
    arm swap twists by P, the swap of the simple roots n-1 and n: cox
    conjugation acts on the D model as sigma.rho
    (ncp_models.coxeter_conjugation_is_sigma_rho) and the arm swap as
    sigma (phi_fixes_sigma_on_nc below; each is an interval_report over
    [id, cox]), so sigma^(s+1) rho^s is conjugation by P cox^s.  The
    triality twists by P_3 s_1 s_4 with the power -s: the rotation
    permutes the simple roots as P_3, and s_1 s_4 is the reflection-functor
    word at the two arms whose arrows it reverses, so phi.tau^-r acts on
    roots as T cox^-r, and cox^3 = -1.
    """
    n, h = delta.rank, delta.coxeter_number

    def twist(name, perm, word, sign, reduce, modulus, *moved):
        rest = list(delta.degrees)
        for d, _, _ in moved:
            rest.remove(d)
        invariants = tuple((d, 0, 1) for d in rest) + moved
        return Twist(name, perm, word, sign, reduce, modulus, invariants)

    ident = tuple(range(1, n + 1))
    plain = twist("cox_conjugation", ident, (), 1, gcd, h)
    table = {1: Automorphism(ident, 1, 0, 0, plain)}
    if delta.series == "A" and n % 2 == 0:
        table["inf"] = Automorphism(ident[::-1], 2, 1, h // 2, plain)
    elif delta.series == "A" and n > 1:
        table[2] = Automorphism(ident[::-1], 2, 0, h // 2, plain)
    elif delta.series == "D":
        swap = ident[: n - 2] + (n, n - 1)
        table[2] = (Automorphism(swap, 2, 0, h // 2, plain) if n % 2 else Automorphism(
            swap, 2, 0, 0, twist("sigma_rho_power", swap, (), 1, mod, h, (n, 1, 2))))
    if delta == DynkinType("D", 4):
        rot = (3, 2, 4, 1)
        triality = twist("d4_triality", rot, (1, 4), -1, mod, 3, (4, 1, 3), (4, 2, 3))
        table[3] = Automorphism(rot, 3, 0, 0, triality)
    if delta == DynkinType("E", 6):
        table[2] = Automorphism((6, 5, 3, 4, 2, 1), 2, 0, h // 2, plain)
    return table


@lru_cache(maxsize=None)
def phi_map(delta, t):
    """The order-t vertex map of ZDelta used in the automorphism group,
    built from its row of the table; InvalidType unless (delta, t) is
    admissible."""
    row = automorphisms(delta).get(t)
    if row is None:
        raise InvalidType(f"({delta}, r, {t}) is not an admissible type")
    return vertex_map(delta, row.perm, row.order, row.k)


@lru_cache(maxsize=None)
def suspension_vertex_map(delta):
    """Vertex map of the shift functor: fixes roots, raises shift by 1.

    Its columns follow the Nakayama permutation, which is phi's at the t
    the table offsets by h // 2 (A, odd D and E6) and the identity
    otherwise, and S^2 = tau^-h.
    """
    perm = next((row.perm for row in automorphisms(delta).values() if row.offset),
                tuple(range(1, delta.rank + 1)))
    return vertex_map(delta, perm, 2, -delta.coxeter_number)


# -- labeling ----------------------------------------------------------


class Labeling:
    """(root, shift) labels for the vertices of ZDelta.

    Column q starts at (rs.slice_offsets[q-1], q) with the projective
    rs.projectives[q-1] at shift 0: the root system's slice.  One period
    of each column is materialized; any window follows from m-periodicity
    (roots repeat with period h, shifts gain 2 per period).
    """

    def __init__(self, rs):
        self.rs = rs
        self.h = rs.delta.coxeter_number
        self.slice_offsets = rs.slice_offsets
        self.projectives = rs.projectives
        self.coxinv = mat_inverse(rs.cox.matrix)
        self._permutations = {}  # (perm, offsets mod h) -> vertex_map_permutation
        self._generator_cycles = {}  # (t, r mod h) -> cycles of generator_map
        self._root_col, self._shift_col = zip(*map(self._walk_column, range(1, rs.rank + 1)))

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


# -- root maps and the invariance filter ------------------------------


def root_permutation(labeling, g):
    """The permutation of positive roots induced by the vertex map g.

    Vertex marks are root-determined, so when every vertex carrying a
    root maps to vertices carrying one common root, invariance of a
    vertex set reduces to closure of its root set under this map.
    Raises MixedRoots when g mixes roots (never for the maps built here).
    Each call walks the labeling afresh; the classification routes read
    the map through vertex_map_permutation, which walks once per vertex
    map mod tau^h and caches it as an index permutation of rs.positives.
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


def fixed_by_cycles(rs, cycles):
    """Descriptors of the interval elements whose root mask meets each
    cycle mask c in nothing or in all of c, as a new list in interval order.

    A finite set is mapped onto itself by a permutation exactly when it
    is a union of its cycles, so with the nontrivial cycle masks of a
    root map these are the elements whose root set it fixes.  Each cycle
    in turn filters the survivors of the one before; the descriptors are
    the interval table's own.  The result is a function of
    (rs, cycles) alone, and cycle_masks orders the cycles by least index,
    so it is kept on rs under the key cycles: every route whose root map
    has these cycles reads one filter result, and a route whose map has
    other cycles reads another.
    """
    kept = rs._fixed_cache.get(cycles)
    if kept is None:
        kept = _interval(rs).values()
        for c in cycles:
            ends = (0, c)
            kept = [d for d in kept if d.mask & c in ends]
        kept = rs._fixed_cache[cycles] = tuple(kept)
    return list(kept)


def vertex_map_permutation(labeling, g):
    """root_permutation(labeling, g) as (index permutation of
    labeling.rs.positives, its nontrivial cycle masks).

    root_at is h-periodic in m, so the walk reads the same roots for g
    and for g with any offset moved by a multiple of h (g.tau^-h).  It
    runs, and its map is checked to be a permutation (BrokenInvariant
    otherwise), once per vertex map mod tau^h; the result is kept on the
    labeling under (g.perm, offsets mod h).
    """
    h = labeling.h
    key = (g.perm, tuple(o % h for o in g.offset))
    cached = labeling._permutations.get(key)
    if cached is None:
        perm = index_permutation(labeling.rs, root_permutation(labeling, g))
        cached = labeling._permutations[key] = (perm, cycle_masks(perm))
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
    under which the classification matches the criterion's offset.
    """
    return _after_tau(phi_map(ct.delta, ct.t), ct.r)


def cluster_map(delta, power):
    """S^power.tau^-1, whose orbits build the cluster category (power 1)
    and its shift-twice variant (power 2); cluster_category_check, its
    caller, runs once per type and power."""
    return _after_tau(suspension_vertex_map(delta).power(power), 1)


def brute_force_classify(ct):
    """The interval elements whose vertex set the generator fixes.

    This is the oracle that every closed formula and interval-level
    criterion is checked against.  The root map is the generator's
    root_permutation off the labeling walk, as the index permutation
    vertex_map_permutation caches.  The generator is phi_map(delta, t)
    with every offset raised by r, so mod tau^h it depends on (t, r mod
    h) alone, and its cycle masks are kept on the labeling under that key.
    """
    labeling = build_label_walk(ct.delta)
    key = (ct.t, ct.r % labeling.h)
    cycles = labeling._generator_cycles.get(key)
    if cycles is None:
        cycles = vertex_map_permutation(labeling, generator_map(ct))[1]
        labeling._generator_cycles[key] = cycles
    return fixed_by_cycles(labeling.rs, cycles)


def phi_fixes_sigma_on_nc(rs):
    """Check that the arm swap acts on the D model as the sign flip.

    Distinct interval elements have distinct root sets, so the arm swap
    sends w to the expected element exactly when its root permutation
    sends the root set of w onto the expected one.
    """
    perm = root_permutation(build_label_walk(rs.delta), phi_map(rs.delta, 2))

    def holds(w):
        expected = ar_bijection_g(rs, sigma(ar_bijection_f(rs, w)))
        return frozenset(perm[a] for a in roots_below(rs, w)) == roots_below(rs, expected)

    return interval_report(f"arm swap acts as the sign flip on the D model ({rs.delta})", rs, holds)


@lru_cache(maxsize=None)
def cluster_category_check(delta, power=1):
    """Orbit construction by shift-then-translate admits no proper
    invariant vertex sets; returns the verification report.

    The report depends on the type and power alone, so it is made once
    per type and power and shared: it is frozen and its failures are a
    tuple.  Only callers that ask the same (delta, power) again gain,
    such as a sweep over many cells of one type; `verify` asks each once.
    """
    rs = build_root_system(delta)
    labeling = build_label_walk(delta)
    invariant = fixed_by_cycles(rs, vertex_map_permutation(labeling, cluster_map(delta, power))[1])
    # a descriptor's roots are positive roots, so its size tells the two
    # trivial sets from the rest
    trivial = (0, len(rs.positives))
    failures = tuple(d.nc for d in invariant if len(d.roots) not in trivial)
    return VerificationReport(
        f"orbit by S^{power}.tau^-1 has only the two trivial invariant sets ({delta})",
        len(invariant),
        failures,
    )
