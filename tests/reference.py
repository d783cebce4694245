"""The definitions the tests compare the product against.

Each is the plain, slow form of something thicket computes another way:
the rank and matrix powers by elimination and multiplication, the
absolute order by length additivity, invariance by scanning a root set
or a strip of vertices, the invariance filter on root sets with no memo,
the noncrossing D test by the group side, the interval [id, cox] by
integer kernels, the A-model partitions as sorted block tuples:
enumeration, rotation, the chord-crossing test and the face-group
Kreweras complement, the relabelling of a label sequence by a dict of
first occurrences, and the positive roots by closing the simples under
reflection matrices.  Nothing in src/ calls them.
"""

from bisect import bisect_right

from thicket.classifier import criterion_permutation
from thicket.derived_engine import ThickDescriptor, fixed_by_cycles
from thicket.linalg import identity, kernel, mat_inverse, mat_mul, mat_vec, sub_outer
from thicket.ncp_models import SetPartitionA, ar_bijection_g, is_noncrossing_a, rho, sigma
from thicket.ncp_models import _boundary_position
from thicket.root_coxeter import GroupElement, NotInInterval, arrows, cycle_masks
from thicket.root_coxeter import enumerate_nc, index_permutation, roots_below


def mat_sub(a, b):
    return tuple(
        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_pow(a, k):
    """a^k for an integer matrix (k < 0 needs a invertible over Z)."""
    n = len(a)
    if k < 0:
        return mat_pow(mat_inverse(a), -k)
    result = identity(n)
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def mat_order(m, cap=10000):
    """Multiplicative order of an integer matrix of finite order."""
    n = len(m)
    e = identity(n)
    p = m
    for k in range(1, cap + 1):
        if p == e:
            return k
        p = mat_mul(p, m)
    raise ValueError("order exceeds cap")


def rank(m):
    """Rank over the rationals by Bareiss fraction-free elimination."""
    if not m:
        return 0
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0])
    r = 0
    prev = 1
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == rows:
            break
    return r


def absolute_length(rs, w):
    """Reflection length of w: the rank of w - id."""
    return rank(mat_sub(w.matrix, identity(rs.rank)))


def leq_absolute(rs, u, w):
    """u <= w in absolute order, by the length-additivity criterion."""
    lu = absolute_length(rs, u)
    lw = absolute_length(rs, w)
    if lu > lw:
        return False
    uw = GroupElement(mat_mul(mat_inverse(u.matrix), w.matrix))
    return lu + absolute_length(rs, uw) == lw


def reflections_below(rs, x):
    """Bitmask over rs.positives of the roots a with s_a <= x.

    For an orthogonal x, Mov(x) = im(x - 1) = Fix(x)^perp and l(x) =
    dim Mov(x) (Carter's lemma), so s_a <= x iff a is orthogonal to
    ker(x - 1) (Brady-Watt 2002): one mask per kernel vector, ANDed.
    """
    below = (1 << len(rs.positives)) - 1
    for k in kernel(mat_sub(x, rs.identity.matrix)):
        below &= sum(1 << i for i, d in enumerate(mat_vec(rs._root_forms, k)) if d == 0)
    return below


def matrix_closure(rs):
    """The positive roots, sorted: the closure of the simples under the
    simple reflection matrices 1 - a (B a)^T, in both signs, with the
    negative ones dropped at the end."""
    n = rs.rank
    refls = [sub_outer(identity(n), s, mat_vec(rs.sym_form, s)) for s in rs.simples]
    roots = set(rs.simples)
    frontier = set(rs.simples)
    while frontier:
        new = set()
        for v in frontier:
            for m in refls:
                w = mat_vec(m, v)
                if w not in roots and tuple(-x for x in w) not in roots:
                    new.add(w)
        roots |= new
        frontier = new
    return tuple(sorted(v for v in roots if all(x >= 0 for x in v)))


def kernel_interval(rs):
    """[id, cox] as a list of (matrix, root mask), ordered by reflection
    length, then matrix, built up from the identity by integer kernels.

    Each w is carried with x = w^-1 cox.  As l(wt) <= l(w) + 1 and l(wt)
    + l(t x) >= n, wt is one layer up exactly when t <= x, so the kernel
    of x - 1 (reflections_below) gives every child.  Each s_a <= v
    reaches v from the layer below, as v = (v s_a) s_a, and ORs its bit
    into the mask of v.  x is in the interval, with l(x) = n - l(w), so
    from the middle layer on its mask is read from the masks found so far.
    """
    positives, forms = rs.positives, rs._root_forms
    out = [(rs.identity.matrix, 0)]
    masks = {rs.identity.matrix: 0}
    layer = [(rs.identity.matrix, rs.cox.matrix)]
    for _ in range(rs.rank):
        found = {}  # wt -> [t x, mask of the roots reaching wt]
        for w, x in layer:
            below = masks.get(x)
            if below is None:
                below = reflections_below(rs, x)
            for i in range(len(positives)):
                if not below >> i & 1:
                    continue
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
            masks[wt] = found[wt][1]
            out.append((wt, masks[wt]))
    return out


def criterion_root_map(rs, crit):
    """The permutation alpha -> ±L alpha of the positive roots whose
    fixed root sets are the interval elements the criterion keeps, as a
    dict: a view of the cached index permutation criterion_permutation."""
    perm, _ = criterion_permutation(rs, crit)
    return {a: rs.positives[j] for a, j in zip(rs.positives, perm)}


def is_invariant_nc(rs, w, crit):
    """Is the root set of w closed under the criterion's root map?"""
    roots = roots_below(rs, w)
    root_map = criterion_root_map(rs, crit)
    return all(root_map[a] in roots for a in roots)


def zd_arrows(delta, m_range):
    """Arrows of ZDelta with source m-coordinate in m_range."""
    out = set()
    for m in m_range:
        for (x, y) in arrows(delta):
            out.add(((m, x), (m, y)))
            out.add(((m - 1, y), (m, x)))
    return out


def is_quiver_automorphism(delta, g, width=8):
    """Check arrow preservation on a finite strip."""
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


def thick_from_nc(rs, w):
    """A fresh descriptor of the interval element w."""
    roots = roots_below(rs, w)
    mask = sum(1 << i for i, a in enumerate(rs.positives) if a in roots)
    return ThickDescriptor(rs.delta, w, roots, mask)


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


def fixed_descriptors(rs, root_map):
    """Descriptors of the interval elements whose root set root_map, a
    permutation of the positive roots as a dict, maps onto itself, in
    interval order; anything else raises BrokenInvariant.  The product
    routes hand their cached cycle masks to fixed_by_cycles directly."""
    return fixed_by_cycles(rs, cycle_masks(index_permutation(rs, root_map)))


def uncached_fixed(rs, cycles):
    """fixed_by_cycles without its memo, its masks or its descriptors: the
    (element, root set) pairs of the interval, in order, whose root set
    holds all or none of each cycle's roots, worked out afresh per call."""
    on_cycle = [{a for i, a in enumerate(rs.positives) if c >> i & 1} for c in cycles]
    out = []
    for w in enumerate_nc(rs):
        roots = roots_below(rs, w)
        if all(cycle <= roots or not cycle & roots for cycle in on_cycle):
            out.append((w, roots))
    return out


def is_in_nc_d(rs, p):
    """Authoritative noncrossing test for the D model, via the group side."""
    try:
        ar_bijection_g(rs, p)
        return True
    except (NotInInterval, ValueError):
        return False


def d_chord_sanity(p):
    """Necessary condition: boundary chords must not interleave.

    Forget the centroid labels ±n and test the blocks on the (2n-2)-gon
    labelled 1..n-1, -1..-(n-1) like an A-model diagram.
    """
    n = p.n
    blocks = (tuple(_boundary_position(n, x) + 1 for x in b if abs(x) != n) for b in p.blocks)
    return is_noncrossing_a(SetPartitionA(2 * n - 2, tuple(b for b in blocks if b)))


def sigma_rho_power(p, s):
    """Apply (sigma^(s+1) rho^s); sigma and rho commute."""
    out = p
    for _ in range(s % (2 * p.n - 2)):
        out = rho(out)
    if (s + 1) % 2 == 1:
        out = sigma(out)
    return out


# -- the A model on block tuples ----------------------------------------


def relabel_by_dict(seq):
    """Each entry replaced by the 1-based position of its first occurrence,
    read from a dict built right to left, so the first occurrence wins."""
    first = dict(zip(reversed(seq), range(len(seq), 0, -1)))
    return tuple(map(first.__getitem__, seq))


def canonical_blocks(blocks):
    """Blocks sorted ascending, each ascending: the form of SetPartitionA.blocks."""
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def _nc_raw(points):
    """Noncrossing partitions of an ascending tuple as unsorted block tuples."""
    if not points:
        yield ()
        return
    a = points[0]
    for sub in _nc_raw(points[1:]):
        yield ((a,),) + sub
    for i in range(1, len(points)):
        b = points[i]
        for mid in _nc_raw(points[1:i]):
            for tail in _nc_raw(points[i:]):
                merged = tuple(((a,) + blk) if blk[0] == b else blk for blk in tail)
                yield mid + merged


def nc_blocks(n):
    """NC(n) as canonical block tuples, in the order of enumerate_nc_a."""
    return [canonical_blocks(b) for b in _nc_raw(tuple(range(1, n + 1)))]


def rotate_blocks(n, blocks, k):
    """The blocks turned k steps on the circle 1..n."""
    return canonical_blocks(tuple(((x + k - 1) % n) + 1 for x in b) for b in blocks)


def rotation_period_blocks(n, blocks):
    return next(d for d in range(1, n + 1) if n % d == 0 and rotate_blocks(n, blocks, d) == blocks)


def _chords(block):
    """Chords joining cyclically consecutive members of a block."""
    b = sorted(block)
    out = list(zip(b, b[1:]))
    if len(b) > 2:
        out.append((b[0], b[-1]))
    return out


def _interleave(a, b, c, d):
    """Do the chords {a,b} and {c,d} cross on the circle?"""
    lo, hi = min(a, b), max(a, b)
    return (lo < c < hi) != (lo < d < hi)


def is_noncrossing_blocks(blocks):
    """No two chords of different blocks interleave."""
    flat = [(c, i) for i, b in enumerate(blocks) for c in _chords(b)]
    return not any(
        i1 != i2 and _interleave(*c1, *c2)
        for x, (c1, i1) in enumerate(flat)
        for c2, i2 in flat[x + 1:]
    )


def _face_groups(block_positions, queries):
    """Group query positions by the face of the chord diagram they lie in:
    a face is the tuple of arcs, one per block, that contain it."""
    def region(positions, x):
        return (bisect_right(positions, x) - 1) % len(positions) if len(positions) > 1 else 0

    faces = {}
    for label, pos in queries:
        faces.setdefault(tuple(region(bp, pos) for bp in block_positions), []).append(label)
    return canonical_blocks(faces.values())


def kreweras_blocks(n, blocks):
    """The coarsest partition of primed points i' between i and i + 1
    that keeps the union with blocks noncrossing."""
    positions = [sorted(2 * x - 1 for x in b) for b in blocks if len(b) > 1]
    return _face_groups(positions, [(i, 2 * i) for i in range(1, n + 1)])


def kreweras_inverse_blocks(n, blocks):
    """The unique q with kreweras_blocks(n, q) == blocks."""
    positions = [sorted(2 * x for x in b) for b in blocks if len(b) > 1]
    return _face_groups(positions, [(i, 2 * i - 1) for i in range(1, n + 1)])
