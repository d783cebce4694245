"""The definitions the tests compare the product against.

Each is the plain, slow form of something thicket computes another way:
the rank and matrix powers by elimination and multiplication, the
absolute order by length additivity, invariance by scanning a root set
or a strip of vertices, the noncrossing D test by the group side.
Nothing in src/ calls them.
"""

from thicket.classifier import criterion_permutation
from thicket.derived_engine import ThickDescriptor, fixed_by_cycles
from thicket.linalg import identity, mat_inverse, mat_mul, mat_sub
from thicket.ncp_models import SetPartitionA, ar_bijection_g, is_noncrossing_a, rho, sigma
from thicket.ncp_models import _boundary_position
from thicket.root_coxeter import GroupElement, NotInInterval, arrows, cycle_masks
from thicket.root_coxeter import index_permutation, roots_below


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


def fixed_descriptors(rs, root_map):
    """Descriptors of the interval elements whose root set root_map, a
    permutation of the positive roots as a dict, maps onto itself, in
    interval order; anything else raises BrokenInvariant.  The product
    routes hand their cached cycle masks to fixed_by_cycles directly."""
    return fixed_by_cycles(rs, cycle_masks(index_permutation(rs, root_map)))


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
