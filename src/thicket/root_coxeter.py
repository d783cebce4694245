"""Root systems, reflection groups and the noncrossing partition interval.

Group elements are exact integer matrices acting on the root lattice in
the simple-root basis.  The interval below the Coxeter element and the
root set of each of its elements come from one search down the lattice
of perpendicular categories, so the full group is never materialized
and nothing is ranked.  The elements of [id, cox] are the thick
subcategories of D^b(kQ), which are the wide subcategories of mod kQ
(Bruening 2007; Ingalls-Thomas 2009), and the root set of an element
holds the dimension vectors of its indecomposables.  In a directed
category Hom(X, M) = 0 = Ext^1(X, M) exactly when the Euler form
<dim X, dim M> vanishes, so for a root a of w the root set of w s_a is
that of w cut by the right perpendicular mask of a (Igusa-Schiffler
2010).  Root sets are bitmasks over rs.positives, with a frozenset view
for callers.  A row of w s_a = w - (w a)(B a)^T depends only on that row
of w and on a, so one build computes each (row, root) pair once and the
search multiplies no matrices; the positive roots are walked up from the
simples one coordinate at a time.  The table is keyed by the elements it
hands out, and an element hashes its matrix when it is made, so looking
up a root set hashes no matrix.  Each entry is the element's
ThickDescriptor, which the classification routes hand out as they are.
A root map is an index permutation of rs.positives, split into cycle
masks; cox's is computed once per root system.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from operator import mul

from .linalg import identity, mat_inverse, mat_mul, mat_vec, scaled_inverse, sub_outer


class InvalidInput(ValueError):
    """Invalid mathematical input (exit 2); every such error subclasses it."""


class InvalidType(InvalidInput):
    pass


class NotARoot(InvalidInput):
    pass


class NotInInterval(InvalidInput):
    pass


class WrongSeries(InvalidInput):
    pass


class BrokenInvariant(RuntimeError):
    """An internal invariant failed: a fault of the program, not of its input."""


def _require(ok, message):
    if not ok:
        raise BrokenInvariant(message)


_E_DEGREES = {
    6: (2, 5, 6, 8, 9, 12),
    7: (2, 6, 8, 10, 12, 14, 18),
    8: (2, 8, 12, 14, 18, 20, 24, 30),
}


@dataclass(frozen=True)
class DynkinType:
    series: str
    rank: int

    def __post_init__(self):
        if self.series not in ("A", "D", "E"):
            raise InvalidType(f"unknown series {self.series!r}")
        if type(self.rank) is not int:
            raise InvalidType(f"rank must be an integer, got {self.rank!r}")
        if self.series == "A" and self.rank < 1:
            raise InvalidType("series A needs rank >= 1")
        if self.series == "D" and self.rank < 4:
            raise InvalidType("series D needs rank >= 4")
        if self.series == "E" and self.rank not in _E_DEGREES:
            raise InvalidType("series E needs rank in {6, 7, 8}")

    @cached_property
    def degrees(self):
        """The degrees of the basic invariants of W, ascending."""
        n = self.rank
        if self.series == "A":
            return tuple(range(2, n + 2))
        if self.series == "D":
            return tuple(sorted((*range(2, 2 * n - 1, 2), n)))
        return _E_DEGREES[n]

    @cached_property
    def coxeter_number(self):
        """h, the largest degree."""
        return self.degrees[-1]

    def __str__(self):
        return f"{self.series}{self.rank}"


def arrows(delta):
    """Arrows of the fixed orientation, 1-based vertex pairs (source, target).

    A_n is linear 1 -> 2 -> ... -> n.  D_n is linear with the fork at
    n-2 pointing to n-1 and n.  E types point the branch node 3 at 2, 4
    and 5, with 2 -> 1 and the long tail 5 -> 6 (-> 7 -> 8).
    """
    n = delta.rank
    if delta.series == "A":
        return tuple((i, i + 1) for i in range(1, n))
    if delta.series == "D":
        chain = tuple((i, i + 1) for i in range(1, n - 2))
        return chain + ((n - 2, n - 1), (n - 2, n))
    out = [(2, 1), (3, 2), (3, 4), (3, 5), (5, 6)]
    for v in range(7, n + 1):
        out.append((v - 1, v))
    return tuple(out)


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


@dataclass(frozen=True)
class GroupElement:
    matrix: tuple

    def __post_init__(self):
        # the interval table is keyed by elements, and an n x n tuple of
        # tuples is hashed afresh on every lookup; hash it once, here.  It
        # stays in the instance dict, not a slot: a slot saves one dict per
        # element but moves a gen-1 collection into every classify_sweep
        # timed phase (CHANGES.md, ROADMAP item 2)
        self.__dict__["_hash"] = hash(self.matrix)

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        return GroupElement(mat_mul(self.matrix, other.matrix))

    def inverse(self):
        return GroupElement(mat_inverse(self.matrix))

    def __call__(self, v):
        return mat_vec(self.matrix, v)


class RootSystem:
    """Positive roots, Euler/symmetric forms and simple reflections."""

    def __init__(self, delta):
        self.delta = delta
        n = delta.rank
        self.rank = n
        self.arrows = arrows(delta)
        euler = [[int(i == j) for j in range(n)] for i in range(n)]
        for (a, b) in self.arrows:
            euler[a - 1][b - 1] -= 1
        self.euler_form = tuple(tuple(row) for row in euler)
        self.sym_form = tuple(
            tuple(euler[i][j] + euler[j][i] for j in range(n)) for i in range(n)
        )
        self.simples = tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)
        )
        self.positives = self._close_roots()
        self._root_index = {a: i for i, a in enumerate(self.positives)}
        # row i is B a_i: (a_i, v) = row i . v for every positive root a_i
        self._root_forms = tuple(mat_vec(self.sym_form, v) for v in self.positives)
        self._simple_reflections = tuple(
            self._reflection_matrix(s) for s in self.simples
        )
        # the projectives, the rows of E^-1, sit on one slice of ZDelta:
        # along an arrow x -> y the radical inclusion P(y) -> P(x) is the
        # mesh arrow (c, y) -> (c + 1, x), so sources sit one step right
        off = _tree_offsets(delta, lambda a, b: -1)
        self.slice_offsets = tuple(o - min(off) for o in off)
        _require(all(off[a - 1] == off[b - 1] + 1 for a, b in self.arrows),
                 f"an arrow of {delta} does not point one step down the slice")
        self.projectives = mat_inverse(self.euler_form)
        _require(all(p in self._root_index for p in self.projectives),
                 f"a projective of {delta} is not a positive root")
        # the simple reflections taken sources first, an exceptional order,
        # multiply to the Coxeter transformation -E^-1 E^T of the Euler
        # form: it sends each projective to minus the matching injective
        order = sorted(range(n), key=off.__getitem__, reverse=True)
        self.cox = GroupElement(reduce(mat_mul, [self._simple_reflections[i] for i in order]))
        minus_euler_t = tuple(tuple(-x for x in col) for col in zip(*self.euler_form))
        _require(self.cox.matrix == mat_mul(self.projectives, minus_euler_t),
                 f"Coxeter element of {delta} is not -E^-1 E^T")
        self.identity = GroupElement(identity(n))
        # cox's action a -> ±cox a on the positive roots, as the index of
        # the image of each root of self.positives
        self.cox_permutation = index_permutation(
            self, {a: self.normalize_root(self.cox(a))[0] for a in self.positives}
        )
        self._interval_cache = None
        # filled by the classification routes: the filter's kept
        # descriptors per tuple of cycle masks, and root maps as (index
        # permutation, cycles)
        self._fixed_cache = {}
        self._permutation_cache = {}

    # -- construction ------------------------------------------------

    def pairing(self, v, w):
        """Symmetrized bilinear form (v, w)."""
        return sum(
            v[i] * self.sym_form[i][j] * w[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def _reflection_matrix(self, v):
        """s_v = 1 - v (B v)^T."""
        return sub_outer(identity(self.rank), v, mat_vec(self.sym_form, v))

    def _close_roots(self):
        """The positive roots, sorted, walked up from the simples.

        s_i v = v - (B v)_i a_i changes coordinate i alone, and it raises
        the height of v exactly when (B v)_i < 0.  Every positive root that
        is not simple is s_i v for such a step from a lower positive root,
        so the walk meets no negative root and multiplies no matrix.
        """
        roots = set(self.simples)
        frontier = self.simples
        while frontier:
            new = []
            for v in frontier:
                for i, row in enumerate(self.sym_form):
                    c = sum(map(mul, row, v))
                    if c < 0:
                        w = v[:i] + (v[i] - c,) + v[i + 1:]
                        if w not in roots:
                            roots.add(w)
                            new.append(w)
            frontier = new
        positives = sorted(roots)
        # |Phi+| is the sum of the exponents d - 1
        expected = sum(d - 1 for d in self.delta.degrees)
        _require(
            len(positives) == expected,
            f"{self.delta} has {len(positives)} positive roots, expected {expected}",
        )
        _require(
            all(self.pairing(v, v) == 2 for v in positives),
            f"a positive root of {self.delta} does not have norm 2",
        )
        return tuple(positives)

    # -- basic queries -----------------------------------------------

    def simple_reflection(self, i):
        """Reflection in the i-th simple root, 1-based."""
        return GroupElement(self._simple_reflections[i - 1])

    def normalize_root(self, v):
        """Return (positive root, sign) for a root vector v."""
        if all(x >= 0 for x in v):
            return v, 1
        return tuple(-x for x in v), -1


@lru_cache(maxsize=None)
def build_root_system(delta):
    return RootSystem(delta)


def reflection(rs, v):
    v = tuple(v)
    if v not in rs.positives:
        raise NotARoot(f"{v} is not a positive root of {rs.delta}")
    return GroupElement(rs._reflection_matrix(v))


def perp_masks(rs):
    """perp[i], the bitmask over rs.positives of the roots b with
    <a_i, b> = a_i^T E b = 0: the dimension vectors of the indecomposables
    in the right perpendicular category of the one of dimension a_i."""
    euler_t = tuple(zip(*rs.euler_form))
    return tuple(
        sum(1 << j for j, b in enumerate(rs.positives) if not sum(map(mul, row, b)))
        for row in (mat_vec(euler_t, a) for a in rs.positives)
    )


@dataclass(frozen=True, slots=True)
class ThickDescriptor:
    """The thick subcategory of the interval element nc: its root set and,
    as a bitmask over rs.positives, the same set (not compared)."""

    delta: DynkinType
    nc: GroupElement
    roots: frozenset
    mask: int = field(compare=False)

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
        from .derived_engine import build_label_walk

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


def _indices(mask):
    """The indices of the bits set in mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reflected_row(memo, row, a, form):
    """The row of w s_a = w - (w a)(B a)^T that a row of w gives, with
    form = B a, stored in memo; a row with row . a = 0 is its own image."""
    c = sum(map(mul, row, a))
    out = memo[row] = tuple([x - c * y for x, y in zip(row, form)]) if c else row
    return out


def _interval(rs):
    """[id, cox] as an insertion-ordered dict from each element, a
    GroupElement, to its ThickDescriptor, ordered by reflection length,
    then matrix; built once per root system by _build_interval.

    Every lookup by element calls this, so it stays apart from the build:
    the build's comprehension closes over its locals, and a function with
    closure cells makes them anew on every call, cache hits included.
    """
    if rs._interval_cache is None:
        rs._interval_cache = _build_interval(rs)
    return rs._interval_cache


def _build_interval(rs):
    """The table of _interval, built by one search.

    The elements of the interval are the thick subcategories of D^b(kQ),
    which are the wide subcategories of mod kQ (Bruening 2007;
    Ingalls-Thomas 2009), and the root set of w holds the dimension
    vectors of the indecomposables of its subcategory.  In a directed
    category Hom(X, M) = 0 = Ext^1(X, M) exactly when <dim X, dim M> = 0,
    so the right perpendicular category of the indecomposable of
    dimension a in the subcategory of w has the root set R(w) & perp[a]
    (perp_masks), and it is the subcategory of w s_a (Igusa-Schiffler
    2010).  So the search starts at (every root, cox) and runs down one
    layer per step: the children of (R, w) are R & perp[i] for each bit i
    of R.  A child not yet in its layer takes the matrix
    w s_a = w - (w a)(B a)^T from the first parent that reaches it; its
    mask is its key, as distinct elements have distinct root sets.  A row
    of w s_a depends only on that row of w and on a, and the same rows
    recur across the interval, so a memo per root, kept for this build
    alone, computes each (row, a) pair once (a row with row . a = 0 is
    its own image).  Every u <= cox is reached, down a reduced word of
    u^-1 cox, and after n steps the layer is the identity alone.  The
    layers are emitted in reverse, each sorted by matrix.  The table's
    keys are the elements enumerate_nc hands out, each of which hashed
    its matrix when it was made, so a lookup by one of them hashes nothing.
    """
    positives, forms, perp = rs.positives, rs._root_forms, perp_masks(rs)
    memos = [{} for _ in positives]  # memos[i]: a row of w -> that row of w s_(a_i)
    layers = [{(1 << len(positives)) - 1: rs.cox.matrix}]
    for _ in range(rs.rank):
        found = {}  # mask -> matrix
        for mask, w in layers[-1].items():
            for i in _indices(mask):
                child = mask & perp[i]
                if child not in found:
                    memo, a, form = memos[i], positives[i], forms[i]
                    found[child] = tuple(
                        [memo.get(row) or _reflected_row(memo, row, a, form) for row in w]
                    )
        layers.append(found)
    _require(layers[-1] == {0: rs.identity.matrix},
             f"the perpendicular search of {rs.delta} does not end at the identity")
    table = {}
    for layer in reversed(layers):
        for mask in sorted(layer, key=layer.__getitem__):
            w = GroupElement(layer[mask])
            roots = frozenset(positives[i] for i in _indices(mask))
            table[w] = ThickDescriptor(rs.delta, w, roots, mask)
    return table


def enumerate_nc(rs):
    """All w with id <= w <= cox, ordered by reflection length then matrix."""
    return tuple(_interval(rs))


def in_nc(rs, w):
    return w in _interval(rs)


def roots_below(rs, w):
    """Positive roots whose reflections lie below w in absolute order.

    This is the root-set model of the subcategory attached to w: the
    dimension vectors of its indecomposables.
    """
    desc = _interval(rs).get(w)
    if desc is None:
        raise NotInInterval(f"element is not in the interval below cox({rs.delta})")
    return desc.roots


# -- root maps as index permutations -----------------------------------


def index_permutation(rs, root_map):
    """The root map, a dict on rs.positives, as the tuple of the indices of
    its images in rs.positives; BrokenInvariant unless it is a permutation."""
    index = rs._root_index
    perm = tuple(index.get(root_map.get(a)) for a in rs.positives)
    _require(None not in perm and len(set(perm)) == len(perm),
             f"root map is not a permutation of the positive roots of {rs.delta}")
    return perm


def cycle_masks(perm):
    """The nontrivial cycles of an index permutation, each a bitmask with
    bit i set for each index i on the cycle, in order of their least index."""
    cycles, seen = [], 0
    for start in range(len(perm)):
        cycle, i = 0, start
        while not (seen | cycle) >> i & 1:
            cycle |= 1 << i
            i = perm[i]
        seen |= cycle
        if cycle & (cycle - 1):
            cycles.append(cycle)
    return tuple(cycles)


# -- permutation specializations --------------------------------------


@lru_cache(maxsize=None)
def _ambient_basis(delta):
    """(b, d b^-1, d), where the columns of b are the simple roots in
    ambient coordinates, in which the group acts by signed permutations.

    A_n: e_i - e_(i+1) in Z^(n+1), plus the all-ones column, which every
    element fixes.  D_n: e_i - e_(i+1) for i < n and e_(n-1) + e_n in
    Z^n (det b = 2).
    """
    n = delta.rank
    size = n + 1 if delta.series == "A" else n
    b = [[0] * size for _ in range(size)]
    for j in range(size - 1):
        b[j][j], b[j + 1][j] = 1, -1
    if delta.series == "A":
        for row in b:
            row[n] = 1
    else:
        b[n - 2][n - 1] = b[n - 1][n - 1] = 1
    b = tuple(map(tuple, b))
    return (b,) + scaled_inverse(b)


def _ambient_permutation(rs, w):
    """b w b^-1 read as a signed permutation, a dict on {±1, ..., ±len(b)}."""
    b, binv, d = _ambient_basis(rs.delta)
    m = w.matrix
    if len(b) > rs.rank:  # A_n: w fixes the all-ones column
        m = tuple(row + (0,) for row in m) + ((0,) * rs.rank + (1,),)
    perm = {}
    for j, col in enumerate(zip(*mat_mul(mat_mul(b, m), binv)), 1):
        nz = [(i, x) for i, x in enumerate(col, 1) if x]
        _require(
            len(nz) == 1 and abs(nz[0][1]) == d,
            "element does not act as a signed permutation",
        )
        i, x = nz[0]
        perm[j], perm[-j] = i * x // d, -i * x // d
    return perm


def _element_of_permutation(rs, perm):
    """The element b^-1 P b acting on ambient coordinates as the signed
    permutation perm (a dict; unlisted labels are fixed).

    Raises ValueError when b^-1 P b is not an integer matrix.
    """
    b, binv, d = _ambient_basis(rs.delta)
    p = [[0] * len(b) for _ in b]
    for j in range(1, len(b) + 1):
        img = perm.get(j, j)
        p[abs(img) - 1][j - 1] = 1 if img > 0 else -1
    m = mat_mul(mat_mul(binv, p), b)
    if any(x % d for row in m for x in row):
        raise ValueError("not an element of the group")
    return GroupElement(tuple(tuple(x // d for x in row[:rs.rank]) for row in m[:rs.rank]))


def type_a_as_permutation(rs, w):
    """Image of w in the symmetric group on [n+1], as a tuple of images.

    Read off b w b^-1 for the ambient basis change of A_n, so the simple
    reflection s_i maps to the transposition (i, i+1).
    """
    if rs.delta.series != "A":
        raise WrongSeries("permutation model needs series A")
    perm = _ambient_permutation(rs, w)
    out = tuple(perm[j] for j in range(1, rs.rank + 2))
    _require(min(out) > 0, "element does not act as a permutation")
    return out


def type_d_as_signed_permutation(rs, w):
    """Image of w as a signed permutation, a dict on {±1, ..., ±n}.

    Read off b w b^-1 for the ambient basis change of D_n, so s_i maps
    to ((i, i+1)) for i < n and s_n to ((-(n-1), n)).
    """
    if rs.delta.series != "D":
        raise WrongSeries("signed permutation model needs series D")
    return _ambient_permutation(rs, w)


def permutation_cycles(perm):
    """Disjoint cycles (length > 1) of a permutation given as a dict or tuple."""
    if isinstance(perm, tuple):
        mapping = {i + 1: perm[i] for i in range(len(perm))}
    else:
        mapping = dict(perm)
    seen = set()
    cycles = []
    for start in sorted(mapping, key=lambda x: (abs(x), x < 0)):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        cur = mapping[start]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = mapping[cur]
        if len(cyc) > 1:
            cycles.append(tuple(cyc))
    return tuple(cycles)


def group_element_to_json(rs, w):
    doc = {
        "series": rs.delta.series,
        "rank": rs.rank,
        "matrix": [list(row) for row in w.matrix],
    }
    if rs.delta.series == "A":
        doc["cycles"] = [list(c) for c in permutation_cycles(type_a_as_permutation(rs, w))]
    elif rs.delta.series == "D":
        doc["cycles"] = [list(c) for c in permutation_cycles(type_d_as_signed_permutation(rs, w))]
    return doc
