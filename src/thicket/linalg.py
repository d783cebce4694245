"""Exact integer linear algebra on tuple-of-tuples matrices.

Matrices are immutable tuples of tuples of ints and act on column
vectors (tuples of ints).  Every elimination is fraction-free, so
results are exact.
"""

from math import gcd, lcm
from operator import mul


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)


def sub_outer(a, u, v):
    """a - u v^T, the rank-one update; rows where u is 0 are a's own."""
    return tuple(
        row if not c else tuple(x - c * y for x, y in zip(row, v))
        for row, c in zip(a, u)
    )


def mat_sub(a, b):
    return tuple(
        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def kernel(m):
    """Basis of the null space of m over the rationals, as primitive
    integer vectors: one per free column, with a positive entry there.

    Gauss-Jordan elimination over the integers: each pivot row is subtracted
    from the others by cross-multiplication and every row is divided by
    the gcd of its entries, so no fraction appears and entries stay small.
    """
    a = [list(row) for row in m]
    cols = len(a[0])
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r]
        for i, row in enumerate(a):
            f = row[c]
            if i != r and f:
                row = [p[c] * x - f * y for x, y in zip(row, p)]
                g = gcd(*row) or 1
                a[i] = [x // g for x in row]
        pivots.append(c)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        scale = lcm(*(a[r][c] for r, c in enumerate(pivots) if a[r][free]))
        v = [0] * cols
        v[free] = scale
        for r, c in enumerate(pivots):
            v[c] = -a[r][free] * scale // a[r][c]
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return tuple(basis)


def scaled_inverse(m):
    """(d m^-1, d) for the least d > 0 making d m^-1 an integer matrix.

    Read off the kernel of [m | -I]: m is invertible exactly when the
    basis vector of each free column n + j is (d_j m^-1 e_j, d_j e_j)
    with d_j > 0, and d is the lcm of the d_j.
    """
    n = len(m)
    basis = kernel(tuple(tuple(row) + tuple(-int(i == j) for j in range(n))
                         for i, row in enumerate(m)))
    scales = [v[n + j] for j, v in enumerate(basis)]
    if any(s <= 0 or v[n:] != tuple(s * (i == j) for i in range(n))
           for j, (v, s) in enumerate(zip(basis, scales))):
        raise ValueError("matrix is singular")
    d = lcm(*scales)
    return tuple(
        tuple(basis[j][i] * (d // scales[j]) for j in range(n)) for i in range(n)
    ), d


def mat_inverse(m):
    """Exact inverse of an integer matrix that is invertible over Z."""
    inv, d = scaled_inverse(m)
    if d != 1:
        raise ValueError("matrix is not invertible over the integers")
    return inv

