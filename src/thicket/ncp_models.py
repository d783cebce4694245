"""Circular noncrossing partition models and their bijections.

An A-model partition of [n] is its label tuple, entry i - 1 the least
member of i's block, so a rotation is a slice and one relabelling; its
blocks are derived on demand.  Relabelling replaces each entry by the
position of its first occurrence, found by an index scan: O(n * blocks)
per partition, but all in C, which beats one dict per partition at the
sizes thicket enumerates (n <= 12; n <= 40 in the property tests).  The
B and D models on [±n] are canonical tuples of tuples with mirror-stable
blocks; the D model additionally forbids a zero block that is a single
pair {i, -i}.
"""

from dataclasses import dataclass, field
from functools import cache
from operator import eq

from .root_coxeter import (
    InvalidInput,
    NotInInterval,
    WrongSeries,
    enumerate_nc,
    in_nc,
    permutation_cycles,
    type_a_as_permutation,
    type_d_as_signed_permutation,
    _element_of_permutation,
    _require,
)


class Crossing(InvalidInput):
    pass


class NotInvariant(InvalidInput):
    pass


class BadDivisor(InvalidInput):
    pass


class NotAPartition(InvalidInput):
    """Blocks that do not form a partition of the model's label set."""


@dataclass(frozen=True, slots=True, init=False)
class SetPartitionA:
    """A partition of [n], held as its label tuple: lab[i - 1] is the
    least member of i's block."""

    lab: tuple

    def __init__(self, n, blocks):
        seen = [x for b in blocks for x in b]
        if sorted(seen) != list(range(1, n + 1)):
            raise NotAPartition(f"blocks do not partition [{n}]")
        if not all(blocks):
            raise NotAPartition("a block is empty")
        owner = {x: k for k, b in enumerate(blocks) for x in b}
        object.__setattr__(self, "lab", _relabel([owner[x] for x in range(1, n + 1)]))

    n = property(lambda self: len(self.lab))

    @property
    def blocks(self):
        """The blocks, each ascending, sorted by their least member."""
        groups = {}
        for i, m in enumerate(self.lab, 1):
            groups.setdefault(m, []).append(i)
        return tuple(map(tuple, groups.values()))

    def to_json(self):
        return {"model": "A", "n": self.n, "blocks": [list(b) for b in self.blocks]}


def _from_labels(lab):
    """The partition with label tuple lab, which must be canonical: every
    entry is the position of its first occurrence."""
    _require(_relabel(lab) == lab, "labels are not canonical")
    p = object.__new__(SetPartitionA)
    object.__setattr__(p, "lab", lab)
    return p


def _relabel(seq):
    """Canonical labels of the partition of positions by equal entries:
    each entry becomes the 1-based position of its first occurrence, by
    one index scan per entry, O(n * blocks).  None pads position 0, so no
    entry may be None."""
    return tuple(map(((None,) + tuple(seq)).index, seq))


def _rotated(lab, k):
    """Labels of the partition turned k steps: point x goes to x + k."""
    k %= len(lab) or 1
    return _relabel(lab[-k:] + lab[:-k]) if k else lab


def _fixed_by_turn(lab, k):
    """Does the turn by k, 0 < k < n, fix lab?  The turned labels are made
    lazily, so a turn that moves the partition stops at the first label
    that differs."""
    seq = lab[-k:] + lab[:-k]
    return all(map(eq, map(((None,) + seq).index, seq), lab))


def is_noncrossing_a(p):
    """One pass with a stack of the blocks that are open: a block may only
    continue while no block opened after it is still open."""
    lab = p.lab
    last = {m: i for i, m in enumerate(lab, 1)}
    open_blocks = []
    for i, m in enumerate(lab, 1):
        if m != i:
            if open_blocks[-1] != m:
                return False
            if last[m] == i:
                open_blocks.pop()
        elif last[m] != i:
            open_blocks.append(m)
    return True


def _nc_labels(n):
    """Label tuples of NC(n), ordered by where point 1's block continues
    (nowhere first, then ever later points b) and then recursively by the
    points between 1 and b before the points from b on.  Only the
    canonical sub-results are memoized, and only until this returns."""

    memo = {}

    def tuples(lo, hi):
        # noncrossing labels of the points lo..hi-1, each block labelled by its least point
        if (lo, hi) not in memo:
            head = (lo,)
            joined = {hi: [()]}  # b: labels of b..hi-1 with b's block labelled lo
            for b in range(hi - 1, lo - 1, -1):
                out = [head + t for t in tuples(b + 1, hi)]
                for c in range(b + 1, hi):
                    tails = joined.pop(c) if b == lo else joined[c]  # b == lo reads them last
                    out += [hm + t for hm in [head + m for m in tuples(b + 1, c)] for t in tails]
                joined[b] = out
            memo[lo, hi] = joined[lo]
        return memo[lo, hi]

    try:
        return tuples(1, n + 1)
    finally:
        memo.clear()


def enumerate_nc_a(n):
    return [_from_labels(lab) for lab in _nc_labels(n)]


def rotate_a(p, k):
    return _from_labels(_rotated(p.lab, k))


@cache
def _primes(n):
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]


def rotation_period_a(p):
    """Least d > 0 with rotate_a(p, d) == p.  The turns that fix p are its
    multiples, so n is divided by each prime q while the quotient fixes p."""
    lab, d = p.lab, p.n or 1
    for q in _primes(d):
        while d % q == 0 and _fixed_by_turn(lab, d // q):
            d //= q
    return d


# -- Brady bijection ---------------------------------------------------


def brady_f(rs, w):
    if rs.delta.series != "A":
        raise WrongSeries("Brady bijection needs series A")
    if not in_nc(rs, w):
        raise NotInInterval("element outside the interval")
    cycles = permutation_cycles(type_a_as_permutation(rs, w))
    least = {x: min(c) for c in cycles for x in c}
    return _from_labels(tuple(least.get(i, i) for i in range(1, rs.rank + 2)))


def brady_g(rs, p):
    if rs.delta.series != "A":
        raise WrongSeries("Brady bijection needs series A")
    if p.n != rs.rank + 1:
        raise NotAPartition("partition size must be rank + 1")
    if not is_noncrossing_a(p):
        raise Crossing("partition is crossing")
    perm = {}
    for b in p.blocks:
        perm.update(_cycle_to_mapping(b))
    return _element_of_permutation(rs, perm)


# -- Kreweras-style complement ----------------------------------------


def _predecessors(p):
    """pi^-1 on range(n), pi the permutation whose cycles are the blocks
    read ascending: pred[i] is the point before i in its block."""
    if not is_noncrossing_a(p):
        raise Crossing("complement needs a noncrossing partition")
    last = {m: i for i, m in enumerate(p.lab)}
    pred = []
    for i, m in enumerate(p.lab):
        pred.append(last[m])
        last[m] = i
    return pred


def _cycle_labels(f):
    """The partition into the cycles of f, a permutation of range(n)."""
    lab = [0] * len(f)
    for i in range(len(f)):
        j = i
        while not lab[j]:
            lab[j] = i + 1
            j = f[j]
    return _from_labels(tuple(lab))


def kreweras_alpha(p):
    """K(pi) = pi^-1 c, c = (1 2 ... n): the coarsest partition of primed
    points i' between i and i + 1 that keeps the union noncrossing."""
    pred = _predecessors(p)
    return _cycle_labels(pred[1:] + pred[:1])


def kreweras_alpha_inverse(p):
    """Inverse complement c K^-1, i -> pi^-1(i) + 1: the unique q with
    kreweras_alpha(q) == p."""
    n, pred = p.n, _predecessors(p)
    return _cycle_labels([(j + 1) % n for j in pred])


# -- rotation-invariant fibers -----------------------------------------


def project_f(p, s):
    h = p.n
    if type(s) is not int or s < 1 or h % s != 0 or h // s <= 1:
        raise BadDivisor(f"{s} is not a proper divisor of {h}")
    if not _fixed_by_turn(p.lab, s):
        raise NotInvariant("partition is not invariant under the rotation")
    return _projected(p.lab, s)


def _projected(lab, s):
    """project_f on invariant labels: the blocks through r, r + s, ... turn
    into one another, and the least of their labels is their least residue."""
    return _from_labels(tuple(map(min, *(lab[j:j + s] for j in range(0, len(lab), s)))))


def _lift_with_big_block(p, big, x):
    """The unique invariant preimage of p whose lift of the block labelled
    `big` is one block: the points of that congruence class cut the circle
    into arcs, and inside each arc points group by their residue's block."""
    s, arcs = p.n, p.lab.count(big) * x
    arc, classes = 0, []  # big points: class 0; others: (arc, residue's block) as one int
    for m in p.lab * x:
        arc += m == big
        classes.append(0 if m == big else arc % arcs * (s + 1) + m)
    return _from_labels(_relabel(classes))


def construct_fiber(w, x):
    """All rotation-invariant partitions of [x*n] projecting onto w.

    One partition per block of w (that block blown up to a single big
    block) plus one per block of the complement of w; exactly n+1 in
    total.
    """
    if type(x) is not int or x <= 1:
        raise BadDivisor("fiber construction needs x > 1")
    s = w.n
    out = [_lift_with_big_block(w, m, x) for m in dict.fromkeys(w.lab)]
    aw = kreweras_alpha(w)
    for m in dict.fromkeys(aw.lab):
        out.append(kreweras_alpha_inverse(_lift_with_big_block(aw, m, x)))
    _require(len(set(out)) == s + 1, "a fiber does not have n + 1 distinct members")
    for v in out:
        _require(is_noncrossing_a(v), "a fiber member is crossing")
        _require(_fixed_by_turn(v.lab, s), "a fiber member is not rotation invariant")
        _require(_projected(v.lab, s) == w, "a fiber member projects elsewhere")
    return out


# -- B and D models ----------------------------------------------------


@dataclass(frozen=True)
class BPartition:
    """A mirror-stable partition of [±n]; at most one block is its own mirror."""

    n: int
    blocks: tuple
    zero_block: tuple = field(init=False, compare=False, repr=False)
    model = "B"

    def __post_init__(self):
        if not all(self.blocks):
            raise NotAPartition("a block is empty")
        object.__setattr__(self, "blocks", tuple(sorted(tuple(sorted(b)) for b in self.blocks)))
        seen = [x for b in self.blocks for x in b]
        universe = [x for i in range(1, self.n + 1) for x in (i, -i)]
        if sorted(seen) != sorted(universe):
            raise NotAPartition(f"blocks do not partition [±{self.n}]")
        block_set = set(self.blocks)
        zero = []
        for b in self.blocks:
            neg = tuple(sorted(-x for x in b))
            if neg not in block_set:
                raise NotAPartition("mirror of a block is missing")
            if neg == b:
                zero.append(b)
        if len(zero) > 1:
            raise NotAPartition("more than one zero block")
        object.__setattr__(self, "zero_block", zero[0] if zero else None)

    def to_json(self):
        blocks = [{"elements": list(b), "zero_block": b == self.zero_block} for b in self.blocks]
        return {"model": self.model, "n": self.n, "blocks": blocks}


class DPartition(BPartition):
    """A B partition with n >= 4 whose zero block is not a single pair."""

    model = "D"

    def __post_init__(self):
        if self.n < 4:
            raise NotAPartition("D model needs n >= 4")
        super().__post_init__()
        if self.zero_block is not None and len(self.zero_block) == 2:
            raise NotAPartition("zero block must not be a single pair")


def enumerate_nc_b(n):
    """Noncrossing mirror-stable partitions of the 2n circle, in fiber order.

    Negation acts as the half-turn, so these are the half-turn invariant
    elements of the 2n-point A model, positions n+1..2n relabelled
    -1..-n.  By the fiber lemma (Reiner 1997) those are exactly the
    fibers construct_fiber(w, 2) over w in NC(n): binom(2n, n) of them,
    found without enumerating NC(2n).
    """
    return [
        BPartition(n, tuple(tuple(x if x <= n else n - x for x in b) for b in v.blocks))
        for w in enumerate_nc_a(n)
        for v in construct_fiber(w, 2)
    ]


# -- Athanasiadis-Reiner bijection -------------------------------------


def _signed_cycles(perm):
    """Cycles of a signed permutation, grouped as paired or balanced."""
    paired, balanced, used = [], [], set()
    for c in permutation_cycles(perm):
        key, neg = frozenset(c), frozenset(-x for x in c)
        if key not in used:
            (balanced if neg == key else paired).append(c)
            used |= {key, neg}
    return paired, balanced


def ar_bijection_f(rs, w):
    if rs.delta.series != "D":
        raise WrongSeries("this bijection needs series D")
    if not in_nc(rs, w):
        raise NotInInterval("element outside the interval")
    n = rs.rank
    perm = type_d_as_signed_permutation(rs, w)
    paired, balanced = _signed_cycles(perm)
    blocks = [tuple(sorted(sign * x for x in c)) for c in paired for sign in (1, -1)]
    if balanced:
        zero = sorted({x for c in balanced for x in c})
        blocks.append(tuple(zero))
    moved = {x for b in blocks for x in b}
    for i in range(1, n + 1):
        if i not in moved:
            blocks.append((i,))
            blocks.append((-i,))
    return DPartition(n, tuple(blocks))


def _cycle_to_mapping(cycle):
    return {cycle[i]: cycle[(i + 1) % len(cycle)] for i in range(len(cycle))}


def _boundary_position(n, x):
    """Index of a boundary label in the clockwise order 1..n-1, -1..-(n-1)."""
    return x - 1 if x > 0 else (n - 1) + (-x) - 1


def _paired_cycle(n, block):
    """The cycle a nonzero block contributes, read off the circle.

    Boundary members are visited clockwise; for a block owning the
    centroid the visiting order is broken at the arc facing the mirror
    block and the centroid label comes last.
    """
    boundary = sorted((x for x in block if abs(x) != n), key=lambda x: _boundary_position(n, x))
    centroid = [x for x in block if abs(x) == n]
    if not centroid:
        return tuple(boundary)
    size = 2 * n - 2
    positions = [_boundary_position(n, x) for x in boundary]
    mirror = {(p + n - 1) % size for p in positions}
    start = 0
    if len(boundary) > 1:
        gaps = []
        for i, p in enumerate(positions):
            q = positions[(i + 1) % len(positions)]
            width = (q - p) % size
            inside = {(p + d) % size for d in range(1, width)}
            gaps.append((i, inside))
        breaks = [i for i, inside in gaps if mirror <= inside]
        if len(breaks) != 1:
            raise NotInInterval("mirror block does not sit in a unique arc")
        start = (breaks[0] + 1) % len(boundary)
    ordered = boundary[start:] + boundary[:start]
    return tuple(ordered) + (centroid[0],)


def ar_bijection_g(rs, p):
    if rs.delta.series != "D":
        raise WrongSeries("this bijection needs series D")
    n = rs.rank
    if p.n != n:
        raise NotAPartition("partition size must match the rank")
    perm = {}
    zero = p.zero_block
    done = set()
    for b in p.blocks:
        if b == zero or b in done:
            continue
        done.add(b)
        done.add(tuple(sorted(-x for x in b)))
        if len(b) == 1:
            continue
        cyc = _paired_cycle(n, b)
        perm.update(_cycle_to_mapping(cyc))
        perm.update(_cycle_to_mapping(tuple(-x for x in cyc)))
    if zero is not None:
        if n not in zero:
            raise NotInInterval("zero block must contain the centroid labels")
        perm.update(_cycle_to_mapping((n, -n)))
        rest = tuple(
            sorted(
                (x for x in zero if abs(x) != n),
                key=lambda x: _boundary_position(n, x),
            )
        )
        if rest:
            perm.update(_cycle_to_mapping(rest))
    g = _element_of_permutation(rs, perm)
    if not in_nc(rs, g):
        raise NotInInterval("partition is not noncrossing for the D model")
    return g


# -- the rotation and the sign flip ------------------------------------


def rho(p):
    """Rotate boundary labels one step clockwise; the centroid is fixed."""
    n = p.n
    order = list(range(1, n)) + list(range(-1, -n, -1))
    nxt = {order[i]: order[(i + 1) % len(order)] for i in range(len(order))}
    nxt[n] = n
    nxt[-n] = -n
    return DPartition(n, tuple(tuple(nxt[x] for x in b) for b in p.blocks))


def sigma(p):
    """Flip the sign label: swap n and -n inside non-zero blocks only."""
    n = p.n
    zero = p.zero_block
    blocks = []
    for b in p.blocks:
        if b != zero and (n in b or -n in b):
            blocks.append(tuple(-x if abs(x) == n else x for x in b))
        else:
            blocks.append(b)
    return DPartition(n, tuple(blocks))


@dataclass(frozen=True)
class VerificationReport:
    name: str
    total: int
    failures: tuple

    @property
    def passed(self):
        return not self.failures

    def summary(self):
        status = "ok" if self.passed else f"FAILED ({len(self.failures)})"
        return f"{self.name}: {self.total} cases, {status}"


def interval_report(name, rs, holds):
    """The report of holds(w) for every w in [id, cox]: its failures are
    the elements where holds is false, in interval order."""
    elements = enumerate_nc(rs)
    return VerificationReport(name, len(elements), tuple(w for w in elements if not holds(w)))


def coxeter_conjugation_is_sigma_rho(rs):
    """Check f(cox w cox^-1) == sigma(rho(f(w))) over the whole interval."""
    cox, coxinv = rs.cox, rs.cox.inverse()
    return interval_report(
        f"cox conjugation acts as sigma.rho on the D model ({rs.delta})",
        rs,
        lambda w: ar_bijection_f(rs, cox * w * coxinv) == sigma(rho(ar_bijection_f(rs, w))),
    )
