"""Circular noncrossing partition models and their bijections.

Partitions are canonical tuples of tuples: every block is sorted
ascending and blocks are sorted by their minimum.  The A model lives on
[n], the B and D models on [±n] with mirror-stable blocks; the D model
additionally forbids a zero block that is a single pair {i, -i}.
"""

from bisect import bisect_right
from dataclasses import dataclass, field

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


def _canonical(blocks):
    if not all(blocks):
        raise NotAPartition("a block is empty")
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


@dataclass(frozen=True)
class SetPartitionA:
    n: int
    blocks: tuple

    def __post_init__(self):
        seen = [x for b in self.blocks for x in b]
        if sorted(seen) != list(range(1, self.n + 1)):
            raise NotAPartition(f"blocks do not partition [{self.n}]")
        object.__setattr__(self, "blocks", _canonical(self.blocks))

    def to_json(self):
        return {"model": "A", "n": self.n, "blocks": [list(b) for b in self.blocks]}


def _chords(block, n):
    """Chords joining cyclically consecutive members of a block."""
    if len(block) < 2:
        return []
    b = sorted(block)
    out = [(b[i], b[i + 1]) for i in range(len(b) - 1)]
    if len(b) > 2:
        out.append((b[0], b[-1]))
    return out


def _interleave(a, b, c, d):
    """Do the chords {a,b} and {c,d} cross on the circle 1..n?"""
    lo, hi = min(a, b), max(a, b)
    inside_c = lo < c < hi
    inside_d = lo < d < hi
    return inside_c != inside_d


def is_noncrossing_a(p):
    chords = [(_chords(b, p.n), i) for i, b in enumerate(p.blocks)]
    flat = [(c, i) for cs, i in chords for c in cs]
    for x, (c1, i1) in enumerate(flat):
        for c2, i2 in flat[x + 1:]:
            if i1 != i2 and _interleave(c1[0], c1[1], c2[0], c2[1]):
                return False
    return True


def _nc_blocks(points):
    """Noncrossing partitions of an ascending tuple, as block tuples."""
    if not points:
        yield ()
        return
    a = points[0]
    for sub in _nc_blocks(points[1:]):
        yield ((a,),) + sub
    for i in range(1, len(points)):
        b = points[i]
        for mid in _nc_blocks(points[1:i]):
            for tail in _nc_blocks(points[i:]):
                merged = tuple(
                    ((a,) + blk) if blk[0] == b else blk for blk in tail
                )
                yield mid + merged


def enumerate_nc_a(n):
    return [SetPartitionA(n, blocks) for blocks in _nc_blocks(tuple(range(1, n + 1)))]


def rotate_a(p, k):
    n = p.n
    return SetPartitionA(
        n, tuple(tuple(((x + k - 1) % n) + 1 for x in b) for b in p.blocks)
    )


def rotation_period_a(p):
    """Least d > 0 with rotate_a(p, d) == p; always a divisor of n."""
    for d in sorted(d for d in range(1, p.n + 1) if p.n % d == 0):
        if rotate_a(p, d) == p:
            return d
    raise AssertionError("unreachable")


# -- Brady bijection ---------------------------------------------------


def brady_f(rs, w):
    if rs.delta.series != "A":
        raise WrongSeries("Brady bijection needs series A")
    if not in_nc(rs, w):
        raise NotInInterval("element outside the interval")
    perm = type_a_as_permutation(rs, w)
    n1 = rs.rank + 1
    cycles = permutation_cycles(perm)
    in_cycle = set(x for c in cycles for x in c)
    blocks = [tuple(sorted(c)) for c in cycles]
    blocks += [(i,) for i in range(1, n1 + 1) if i not in in_cycle]
    return SetPartitionA(n1, tuple(blocks))


def brady_g(rs, p):
    if rs.delta.series != "A":
        raise WrongSeries("Brady bijection needs series A")
    if p.n != rs.rank + 1:
        raise ValueError("partition size must be rank + 1")
    if not is_noncrossing_a(p):
        raise Crossing("partition is crossing")
    perm = {}
    for b in p.blocks:
        perm.update(_cycle_to_mapping(b))
    return _element_of_permutation(rs, perm)


# -- Kreweras-style complement ----------------------------------------


def _region(sorted_positions, x):
    """Arc index of circle position x relative to a block's positions."""
    if len(sorted_positions) < 2:
        return 0
    i = bisect_right(sorted_positions, x) - 1
    return i % len(sorted_positions)


def _face_groups(block_positions, queries):
    """Group query positions by the face of the chord diagram they lie in."""
    sigs = {}
    for label, pos in queries:
        sig = tuple(_region(bp, pos) for bp in block_positions)
        sigs.setdefault(sig, []).append(label)
    return tuple(tuple(sorted(g)) for g in sigs.values())


def kreweras_alpha(p):
    """Coarsest partition on interlaced primed points keeping the union
    noncrossing; primed i' sits between i and i+1."""
    if not is_noncrossing_a(p):
        raise Crossing("complement needs a noncrossing partition")
    blocks = [sorted(2 * x - 1 for x in b) for b in p.blocks if len(b) > 1]
    queries = [(i, 2 * i) for i in range(1, p.n + 1)]
    return SetPartitionA(p.n, _face_groups(blocks, queries))


def kreweras_alpha_inverse(p):
    """Inverse complement: the unique q with kreweras_alpha(q) == p."""
    if not is_noncrossing_a(p):
        raise Crossing("complement needs a noncrossing partition")
    blocks = [sorted(2 * x for x in b) for b in p.blocks if len(b) > 1]
    queries = [(i, 2 * i - 1) for i in range(1, p.n + 1)]
    return SetPartitionA(p.n, _face_groups(blocks, queries))


# -- rotation-invariant fibers -----------------------------------------


def project_f(p, s):
    h = p.n
    if h % s != 0 or h // s <= 1:
        raise BadDivisor(f"{s} is not a proper divisor of {h}")
    if rotate_a(p, s) != p:
        raise NotInvariant("partition is not invariant under the rotation")
    image = {tuple(sorted({((x - 1) % s) + 1 for x in b})) for b in p.blocks}
    covered = [x for b in image for x in b]
    if sorted(covered) != list(range(1, s + 1)):
        raise NotInvariant("image blocks do not partition the quotient")
    return SetPartitionA(s, tuple(image))


def _lift_with_big_block(p, big, x):
    """The unique invariant preimage of p whose lift of `big` is one block.

    The big block is the full congruence class of `big`; its chords cut
    the circle into arcs, and inside each arc the points are grouped by
    the block their residue belongs to.
    """
    s = p.n
    h = s * x
    bigset = sorted(e + j * s for e in big for j in range(x))
    blocks = [tuple(bigset)]
    owner = {e: blk for blk in p.blocks for e in blk}
    for i, b in enumerate(bigset):
        nxt = bigset[(i + 1) % len(bigset)]
        groups = {}
        pt = b % h + 1
        while pt != nxt:
            res = (pt - 1) % s + 1
            groups.setdefault(owner[res], []).append(pt)
            pt = pt % h + 1
        blocks.extend(tuple(g) for g in groups.values())
    return SetPartitionA(h, tuple(blocks))


def construct_fiber(w, x):
    """All rotation-invariant partitions of [x*n] projecting onto w.

    One partition per block of w (that block blown up to a single big
    block) plus one per block of the complement of w; exactly n+1 in
    total.
    """
    if x <= 1:
        raise BadDivisor("fiber construction needs x > 1")
    s = w.n
    out = [_lift_with_big_block(w, b, x) for b in w.blocks]
    aw = kreweras_alpha(w)
    for b in aw.blocks:
        out.append(kreweras_alpha_inverse(_lift_with_big_block(aw, b, x)))
    _require(len(set(out)) == s + 1, "a fiber does not have n + 1 distinct members")
    for v in out:
        _require(is_noncrossing_a(v), "a fiber member is crossing")
        _require(rotate_a(v, s) == v, "a fiber member is not rotation invariant")
        _require(project_f(v, s) == w, "a fiber member projects elsewhere")
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
        object.__setattr__(self, "blocks", _canonical(self.blocks))
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
        return {
            "model": self.model,
            "n": self.n,
            "blocks": [
                {"elements": list(b), "zero_block": b == self.zero_block}
                for b in self.blocks
            ],
        }


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
    cycles = permutation_cycles(perm)
    paired = []
    balanced = []
    used = set()
    for c in cycles:
        key = frozenset(c)
        if key in used:
            continue
        neg = frozenset(-x for x in c)
        if neg == key:
            balanced.append(c)
            used.add(key)
        else:
            paired.append(c)
            used.add(key)
            used.add(neg)
    return paired, balanced


def ar_bijection_f(rs, w):
    if rs.delta.series != "D":
        raise WrongSeries("this bijection needs series D")
    if not in_nc(rs, w):
        raise NotInInterval("element outside the interval")
    n = rs.rank
    perm = type_d_as_signed_permutation(rs, w)
    paired, balanced = _signed_cycles(perm)
    blocks = []
    for c in paired:
        blocks.append(tuple(sorted(c)))
        blocks.append(tuple(sorted(-x for x in c)))
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
            raise ValueError("mirror block does not sit in a unique arc")
        start = (breaks[0] + 1) % len(boundary)
    ordered = boundary[start:] + boundary[:start]
    return tuple(ordered) + (centroid[0],)


def ar_bijection_g(rs, p):
    if rs.delta.series != "D":
        raise WrongSeries("this bijection needs series D")
    n = rs.rank
    if p.n != n:
        raise ValueError("partition size must match the rank")
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
            raise ValueError("zero block must contain the centroid labels")
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


def coxeter_conjugation_is_sigma_rho(rs):
    """Check f(cox w cox^-1) == sigma(rho(f(w))) over the whole interval."""
    cox = rs.cox
    coxinv = cox.inverse()
    failures = []
    elements = enumerate_nc(rs)
    for w in elements:
        lhs = ar_bijection_f(rs, cox * w * coxinv)
        rhs = sigma(rho(ar_bijection_f(rs, w)))
        if lhs != rhs:
            failures.append(w)
    return VerificationReport(
        f"cox conjugation acts as sigma.rho on the D model ({rs.delta})",
        len(elements),
        tuple(failures),
    )
