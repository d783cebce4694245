"""The translation quiver ZDelta, its labeling and its automorphisms.

Vertices are pairs (m, q) with q a 1-based vertex of Delta.  Every
automorphism used here is a column permutation combined with per-column
m-offsets, so composition, powers and inverses stay exact and hashable.

The labeling walk attaches (positive root, shift) to each vertex.  The
translation tau is (m, q) -> (m - 1, q).  Walking in the +m direction
applies cox^-1 to roots and bumps the shift when the sign flips; over h
steps every column returns to its root with the shift increased by 2.
Consequently the shift-raising suspension map squares to m -> m + h,
the h-th power of the inverse translation.  That orientation of the
identity is pinned here once and asserted by the test suite.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from .linalg import mat_inverse, mat_vec
from .root_coxeter import (
    DynkinType,
    InvalidType,
    NotInInterval,
    arrows,
    build_root_system,
    enumerate_nc,
    roots_below,
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
    name: str = field(default="", compare=False)

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
        name = f"{self.name}.{other.name}" if self.name and other.name else ""
        return QuiverAutomorphism(self.n, tuple(perm), tuple(offset), name)

    def inverse(self):
        perm = [0] * self.n
        offset = [0] * self.n
        for q in range(1, self.n + 1):
            m1, q1 = self(0, q)
            perm[q1 - 1] = q
            offset[q1 - 1] = -m1
        return QuiverAutomorphism(self.n, tuple(perm), tuple(offset), f"({self.name})^-1")

    def power(self, k):
        out = identity_map(self.n)
        base = self if k >= 0 else self.inverse()
        for _ in range(abs(k)):
            out = base @ out
        return out


def identity_map(n):
    return QuiverAutomorphism(n, tuple(range(1, n + 1)), (0,) * n, "id")


def tau_power(n, k):
    """The k-th power of the translation: (m, q) -> (m - k, q)."""
    return QuiverAutomorphism(n, tuple(range(1, n + 1)), (-k,) * n, f"tau^{k}")


def zd_arrows(delta, m_range):
    """Arrows of ZDelta with source m-coordinate in m_range."""
    out = set()
    for m in m_range:
        for (x, y) in arrows(delta):
            out.add(((m, x), (m, y)))
            out.add(((m - 1, y), (m, x)))
    return out


def is_quiver_automorphism(delta, g, width=8):
    """Check arrow preservation on a finite strip (for tests)."""
    span = range(-width, width)
    reach = max(abs(o) for o in g.offset) + 2
    arr = zd_arrows(delta, range(-width - reach, width + reach))
    for m in span:
        for (x, y) in arrows(delta):
            if (g(m, x), g(m, y)) not in arr:
                return False
            if (g(m - 1, y), g(m, x)) not in arr:
                return False
    return True


def _solve_offsets(delta, perm, normalize):
    """Offsets making (perm, offset) an arrow-preserving map of ZDelta.

    Along each arrow x -> y the relative offset is forced by whether the
    image columns are joined by a quiver arrow or by a mesh arrow; the
    remaining global constant is pinned by the requested power identity.
    """
    n = delta.rank
    arr = set(arrows(delta))
    rel = {1: 0}
    frontier = [1]
    adjacency = {}
    for (x, y) in arr:
        adjacency.setdefault(x, []).append(y)
        adjacency.setdefault(y, []).append(x)
    while frontier:
        x = frontier.pop()
        for y in adjacency[x]:
            if y in rel:
                continue
            a, b = (x, y) if (x, y) in arr else (y, x)
            # constraint for the arrow a -> b
            pa, pb = perm[a - 1], perm[b - 1]
            if (pa, pb) in arr:
                delta_off = 0
            elif (pb, pa) in arr:
                delta_off = 1
            else:
                raise InvalidType("column map is not a graph automorphism")
            if y == b:
                rel[y] = rel[x] + delta_off
            else:
                rel[y] = rel[x] - delta_off
            frontier.append(y)
    off = [rel[q] for q in range(1, n + 1)]

    def orbit(q):
        out = [q]
        while perm[out[-1] - 1] != q:
            out.append(perm[out[-1] - 1])
        return out

    if normalize == "involution":
        num = -(off[0] + off[perm[0] - 1])
        _require(num % 2 == 0, "the involution normalization has an odd shift numerator")
        shift = num // 2
    elif normalize == "square_is_translation":
        # phi^2 = (m - 1, q), the A-even normalization
        num = -1 - (off[0] + off[perm[0] - 1])
        _require(num % 2 == 0, "the square_is_translation normalization has an odd shift numerator")
        shift = num // 2
    elif normalize == "order3":
        orb = orbit(1)
        _require(len(orb) == 3, f"an order-3 map has a first orbit of length {len(orb)}")
        num = -sum(off[q - 1] for q in orb)
        _require(num % 3 == 0, "the order3 normalization has a shift numerator prime to 3")
        shift = num // 3
    else:
        raise ValueError(normalize)
    out = tuple(o + shift for o in off)
    # the chosen normalization must hold for every orbit, not just the first
    for q in range(1, n + 1):
        orb = orbit(q)
        total = sum(out[t - 1] for t in orb)
        if normalize == "involution":
            ok = len(orb) <= 2 and total == 0
        elif normalize == "square_is_translation":
            ok = total == -1 and len(orb) == 2
        else:
            ok = total == 0
        _require(ok, f"the {normalize} normalization fails on the orbit of column {q}")
    return out


@lru_cache(maxsize=None)
def phi_map(delta, t):
    """The order-t vertex map of ZDelta used in the automorphism group.

    t = 1 is the identity; t = 2 the series reflection (central line for
    A odd, arm swap for D, the column flip for E6); t = 3 the D4
    rotation of the three outer arms; t = "inf" the A-even glide whose
    square is one step of the translation.
    """
    n = delta.rank
    if t == 1:
        return identity_map(n)
    if t == "inf":
        if delta.series != "A" or n % 2 != 0:
            raise InvalidType("infinite order only occurs for A with even rank")
        perm = tuple(n + 1 - q for q in range(1, n + 1))
        return QuiverAutomorphism(
            n, perm, _solve_offsets(delta, perm, "square_is_translation"), "phi"
        )
    if t == 3:
        if delta != DynkinType("D", 4):
            raise InvalidType("order 3 only occurs for D4")
        perm = (3, 2, 4, 1)
        return QuiverAutomorphism(n, perm, _solve_offsets(delta, perm, "order3"), "phi3")
    if t == 2:
        if delta.series == "A":
            if n % 2 == 0 or n < 3:
                raise InvalidType("order 2 for A needs odd rank >= 3")
            perm = tuple(n + 1 - q for q in range(1, n + 1))
        elif delta.series == "D":
            perm = tuple(range(1, n - 1)) + (n, n - 1)
        else:
            if n != 6:
                raise InvalidType("order 2 for E only occurs for E6")
            perm = (6, 5, 3, 4, 2, 1)
        return QuiverAutomorphism(n, perm, _solve_offsets(delta, perm, "involution"), "phi")
    raise InvalidType(f"no automorphism of order {t!r} for {delta}")


def suspension_vertex_map(delta):
    """Vertex map of the shift functor: fixes roots, raises shift by 1.

    Series with a symmetry use it composed with half a turn of the
    inverse translation; the self-dual series are a pure power.  Squares
    to tau_power(-h) in all cases.
    """
    n = delta.rank
    h = delta.coxeter_number
    series = delta.series
    if series == "A" and n == 1:
        s = tau_power(n, -1)
    elif series == "A" and n % 2 == 0:
        s = phi_map(delta, "inf").inverse() @ tau_power(n, -(h - 1) // 2)
    elif series == "A":
        s = phi_map(delta, 2) @ tau_power(n, -h // 2)
    elif series == "D" and n % 2 == 1:
        s = phi_map(delta, 2) @ tau_power(n, -h // 2)
    elif series == "D":
        s = tau_power(n, -h // 2)
    elif delta == DynkinType("E", 6):
        s = phi_map(delta, 2) @ tau_power(n, -h // 2)
    else:
        s = tau_power(n, -h // 2)
    return QuiverAutomorphism(n, s.perm, s.offset, "S")


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
        for row in self.projectives:
            _require(row in rs.positives, "projective seed is not a positive root")
        self._root_col = []
        self._shift_col = []
        for q in range(1, n + 1):
            roots, shifts = self._walk_column(q)
            self._root_col.append(roots)
            self._shift_col.append(shifts)

    def _slice_offsets(self):
        """Column offsets placing the projectives on a slice of ZDelta."""
        rs = self.rs
        n = rs.rank
        rel = {n: 0}
        adjacency = {}
        arr = set(rs.arrows)
        for (x, y) in arr:
            adjacency.setdefault(x, []).append(y)
            adjacency.setdefault(y, []).append(x)
        # along an arrow x -> y the radical inclusion P(y) -> P(x) is the
        # mesh arrow (c, y) -> (c + 1, x), so sources sit one step right
        frontier = [n]
        while frontier:
            x = frontier.pop()
            for y in adjacency.get(x, ()):
                if y in rel:
                    continue
                rel[y] = rel[x] + (1 if (y, x) in arr else -1)
                frontier.append(y)
        low = min(rel.values())
        return tuple(rel[q] - low for q in range(1, n + 1))

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


def thick_from_nc(rs, w):
    return ThickDescriptor(rs.delta, w, roots_below(rs, w))


def is_invariant_vertex_set(labeling, desc, g):
    """Does g map the marked vertex set onto itself?

    Marks are m-periodic with period h, so agreement on a strip of
    width 2h decides invariance globally.  This vertex-level scan is the
    reference that root_permutation's root-level filter is tested against.
    """
    h = labeling.h
    for m in range(2 * h):
        for q in range(1, labeling.rs.rank + 1):
            gm, gq = g(m, q)
            if desc.marked(labeling, m, q) != desc.marked(labeling, gm, gq):
                return False
    return True


def root_permutation(labeling, g):
    """The permutation of positive roots induced by the vertex map g.

    Vertex marks are root-determined, so when every vertex carrying a
    root maps to vertices carrying one common root, invariance of a
    vertex set reduces to closure of its root set under this map.
    Raises MixedRoots when g mixes roots (never for the maps built here).
    """
    out = {}
    h = labeling.h
    for m in range(h):
        for q in range(1, labeling.rs.rank + 1):
            src = labeling.root_at(m, q)
            img = labeling.root_at(*g(m, q))
            if out.setdefault(src, img) != img:
                raise MixedRoots(f"{g.name or 'vertex map'} sends {src} to {out[src]} and {img}")
    return out


def fixed_descriptors(rs, root_map):
    """Descriptors of the interval elements whose root set root_map maps
    onto itself, in interval order.

    root_map is a permutation of the positive roots.  Every
    classification route is this filter; the routes differ only in where
    the permutation comes from.
    """
    out = []
    for w in enumerate_nc(rs):
        roots = roots_below(rs, w)
        if all(root_map[a] in roots for a in roots):
            out.append(ThickDescriptor(rs.delta, w, roots))
    return out


def generator_map(ct):
    """Vertex map generating the identification group of the type.

    The translation power is taken in the walk direction (m -> m + r);
    for pure powers and the involutions this generates the same group
    either way, and for the infinite-order case it is the orientation
    under which the classification matches the closed parameter formula.
    """
    phi = phi_map(ct.delta, ct.t)
    g = phi @ tau_power(ct.delta.rank, -ct.r)
    return QuiverAutomorphism(g.n, g.perm, g.offset, f"phi.tau^{ct.r}")


def brute_force_classify(ct):
    """The interval elements whose vertex set the generator fixes.

    This is the oracle for every closed formula and interval-level
    criterion, and the only route for (D4, r, 3), which has none.
    """
    labeling = build_label_walk(ct.delta)
    return fixed_descriptors(labeling.rs, root_permutation(labeling, generator_map(ct)))


def nc_element_of_vertex_set(rs, labeling, marked_roots):
    """Recover the interval element whose descriptor has these roots."""
    table = getattr(rs, "_roots_to_nc", None)
    if table is None:
        table = {roots_below(rs, w): w for w in enumerate_nc(rs)}
        rs._roots_to_nc = table
    key = frozenset(marked_roots)
    if key not in table:
        raise NotInInterval("vertex set is not a thick-subcategory vertex set")
    return table[key]


def apply_map_to_descriptor(rs, labeling, desc, g):
    """Image of a descriptor's vertex set under g, as a descriptor."""
    image_roots = set()
    for m in range(labeling.h):
        for q in range(1, rs.rank + 1):
            if desc.marked(labeling, m, q):
                gm, gq = g(m, q)
                image_roots.add(labeling.root_at(gm, gq))
    w = nc_element_of_vertex_set(rs, labeling, image_roots)
    return thick_from_nc(rs, w)


def phi_fixes_sigma_on_nc(rs):
    """Check that the arm swap acts on the D model as the sign flip."""
    from .ncp_models import VerificationReport, ar_bijection_f, ar_bijection_g, sigma

    labeling = build_label_walk(rs.delta)
    phi = phi_map(rs.delta, 2)
    failures = []
    elements = enumerate_nc(rs)
    for w in elements:
        desc = thick_from_nc(rs, w)
        image = apply_map_to_descriptor(rs, labeling, desc, phi)
        expected = ar_bijection_g(rs, sigma(ar_bijection_f(rs, w)))
        if image.nc != expected:
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
    g = suspension_vertex_map(delta).power(power) @ tau_power(delta.rank, -1)
    invariant = fixed_descriptors(rs, root_permutation(labeling, g))
    failures = tuple(
        d.nc for d in invariant if d.roots not in (frozenset(), frozenset(rs.positives))
    )
    return VerificationReport(
        f"orbit by S^{power}.tau^-1 has only the two trivial invariant sets ({delta})",
        len(invariant),
        failures,
    )
