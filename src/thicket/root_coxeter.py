"""Root systems, reflection groups and the noncrossing partition interval.

Group elements are exact integer matrices acting on the root lattice in
the simple-root basis.  The interval below the Coxeter element and the
root set of each of its elements come from one breadth-first search, so
the full group is never materialized: the children of w are the products
w t for the reflections t below x = w^-1 cox, and the root set of an
element is the set of reflections that reach it from the layer below.
The search ranks nothing.  By Carter's lemma l(x) = dim Mov(x), and by
Brady-Watt (2002) s_a <= x iff a is orthogonal to Fix(x) = ker(x - 1),
so one integer kernel of x - 1 per element of the lower half gives all
its children at once; x is itself in the interval, so past the middle
layer its root set is already in the table.  Root sets are bitmasks over
rs.positives, with a frozenset view for callers, and reflections act by
rank-one updates, so the search multiplies no matrices.  A root map is
an index permutation of rs.positives, split into cycle masks; cox's is
computed once per root system.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .linalg import (
    identity,
    kernel,
    mat_inverse,
    mat_mul,
    mat_sub,
    mat_vec,
    scaled_inverse,
    sub_outer,
)


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


@dataclass(frozen=True)
class GroupElement:
    matrix: tuple

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
        self.cox = GroupElement(
            _product([self._simple_reflections[i - 1] for i in self._exceptional_order()])
        )
        # the product over an exceptional ordering of the simples is the
        # Coxeter transformation of the Euler form: it sends the dimension
        # vector of each projective to minus that of the matching injective
        euler_inv = mat_inverse(self.euler_form)
        expected = tuple(
            tuple(-x for x in row)
            for row in mat_mul(euler_inv, tuple(zip(*self.euler_form)))
        )
        _require(self.cox.matrix == expected, f"Coxeter element of {delta} is not -E^-1 E^T")
        self.identity = GroupElement(identity(n))
        # cox's action a -> ±cox a on the positive roots, as the index of
        # the image of each root of self.positives
        self.cox_permutation = index_permutation(
            self, {a: self.normalize_root(self.cox(a))[0] for a in self.positives}
        )
        self._interval_cache = None
        # filled by the classification routes: (mask, descriptor) per
        # interval element, and root maps as (index permutation, cycles)
        self._descriptor_cache = None
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
        n = self.rank
        refls = [self._reflection_matrix(s) for s in self.simples]
        roots = set(self.simples)
        frontier = set(self.simples)
        while frontier:
            new = set()
            for v in frontier:
                for m in refls:
                    w = mat_vec(m, v)
                    if w not in roots and tuple(-x for x in w) not in roots:
                        new.add(w)
            roots |= new
            frontier = new
        positives = sorted(v for v in roots if all(x >= 0 for x in v))
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

    def _exceptional_order(self):
        """Topological order of the quiver; makes the simples exceptional."""
        n = self.rank
        outgoing = {i: [] for i in range(1, n + 1)}
        indeg = {i: 0 for i in range(1, n + 1)}
        for (a, b) in self.arrows:
            outgoing[a].append(b)
            indeg[b] += 1
        ready = sorted(i for i in indeg if indeg[i] == 0)
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for w in outgoing[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
            ready.sort()
        _require(len(order) == n, f"the quiver of {self.delta} has an oriented cycle")
        return order

    # -- basic queries -----------------------------------------------

    def simple_reflection(self, i):
        """Reflection in the i-th simple root, 1-based."""
        return GroupElement(self._simple_reflections[i - 1])

    def normalize_root(self, v):
        """Return (positive root, sign) for a root vector v."""
        if all(x >= 0 for x in v):
            return v, 1
        return tuple(-x for x in v), -1


def _product(mats):
    out = mats[0]
    for m in mats[1:]:
        out = mat_mul(out, m)
    return out


@lru_cache(maxsize=None)
def build_root_system(delta):
    return RootSystem(delta)


def reflection(rs, v):
    v = tuple(v)
    if v not in rs.positives:
        raise NotARoot(f"{v} is not a positive root of {rs.delta}")
    return GroupElement(rs._reflection_matrix(v))


def _reflections_below(rs, x):
    """Bitmask over rs.positives of the roots a with s_a <= x.

    For an orthogonal x, Mov(x) = im(x - 1) = Fix(x)^perp and l(x) =
    dim Mov(x) (Carter's lemma), so s_a <= x iff a is orthogonal to
    ker(x - 1) (Brady-Watt 2002): one mask per kernel vector, ANDed.
    """
    below = (1 << len(rs.positives)) - 1
    for k in kernel(mat_sub(x, rs.identity.matrix)):
        below &= sum(1 << i for i, d in enumerate(mat_vec(rs._root_forms, k)) if d == 0)
    return below


def _interval(rs):
    """[id, cox] as an insertion-ordered dict from each element's matrix to
    its entry (GroupElement, mask, root set), ordered by reflection length,
    then matrix; built once per root system.

    The mask has bit i set when rs.positives[i] is in the root set.  Each
    w is carried with x = w^-1 cox.  As l(wt) <= l(w) + 1 and l(wt) +
    l(t x) >= n, wt is one layer up exactly when l(t x) = l(x) - 1, that
    is when t <= x.  So one integer kernel of x - 1 (_reflections_below)
    gives every child and no candidate is rejected.  Each s_a <= v
    reaches v from the layer below, as v = (v s_a) s_a, and ORs its bit
    into the mask of v, so a finished layer holds the mask of every
    reflection below each of its elements.  x is in the interval, with
    l(x) = n - l(w), so from the middle layer on its mask is read from
    the table instead of a kernel.  With s_a = 1 - a (B a)^T the
    products are rank-one updates: w s_a = w - (w a)(B a)^T for every
    edge, and s_a x = x - a ((B a)^T x) once per new child.
    """
    if rs._interval_cache is not None:
        return rs._interval_cache
    positives, forms = rs.positives, rs._root_forms
    table = {rs.identity.matrix: (rs.identity, 0, frozenset())}
    layer = [(rs.identity.matrix, rs.cox.matrix)]
    for _ in range(rs.rank):
        found = {}  # wt -> [t x, mask of the roots reaching wt]
        for w, x in layer:
            known = table.get(x)
            below = known[1] if known else _reflections_below(rs, x)
            while below:
                i = (below & -below).bit_length() - 1
                below &= below - 1
                a, b = positives[i], forms[i]
                wt = sub_outer(w, mat_vec(w, a), b)
                entry = found.get(wt)
                if entry is None:
                    tx = sub_outer(x, a, mat_vec(tuple(zip(*x)), b))
                    found[wt] = [tx, 1 << i]
                else:
                    entry[1] |= 1 << i
        layer = sorted((wt, tx) for wt, (tx, _) in found.items())
        for wt, _ in layer:
            mask = found[wt][1]
            roots = frozenset(v for i, v in enumerate(positives) if mask >> i & 1)
            table[wt] = (GroupElement(wt), mask, roots)
    rs._interval_cache = table
    return table


def enumerate_nc(rs):
    """All w with id <= w <= cox, ordered by reflection length then matrix."""
    return tuple(w for w, _, _ in _interval(rs).values())


def in_nc(rs, w):
    return w.matrix in _interval(rs)


def roots_below(rs, w):
    """Positive roots whose reflections lie below w in absolute order.

    This is the root-set model of the subcategory attached to w: the
    dimension vectors of its indecomposables.
    """
    entry = _interval(rs).get(w.matrix)
    if entry is None:
        raise NotInInterval(f"element is not in the interval below cox({rs.delta})")
    return entry[2]


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
