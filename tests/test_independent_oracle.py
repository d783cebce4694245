"""An independent oracle for the D-series counts of the overview table.

A thick subcategory of the orbit category of type (D_n, r, t) is an
element w of the interval [id, c] of W(D_n) fixed by the automorphism
Phi = tau^r phi.  On the Weyl group tau acts as the Coxeter element c,
the shift as -1 (central, so it acts trivially by conjugation), and phi
as the diagram symmetry of order t.  The count in the table is
therefore the number of w in NC(c) with g w = w g, g = c^r P_phi.

This module recomputes those numbers from first principles and shares
no code with the engine: W(D_n) is the group of even signed
permutations of {±1, ..., ±n}, reflection length is n minus the number
of paired cycles (the codimension of the fixed space), and NC(c) is
the set of w with l_T(w) + l_T(w^-1 c) = n.  The arm swap is the sign
change of n.  The D4 triality is a permutation of the simple roots, so
it is checked on matrices in the simple-root basis.  Only the type
constructor and the two functions under test come from thicket: the
closed formula count_thick_formula, and enumerate_thick, whose root sets
at the triality cells are compared with the oracle's.

Two published results pin the same numbers where they apply:
Bessis-Reiner's cyclic sieving for noncrossing partitions (where Phi
acts as a power of c) and the Athanasiadis-Reiner type-D model (where
Phi acts as the arm swap, whose fixed elements are the type-B
partitions of [±(n-1)]).
"""

from functools import cache
from itertools import permutations, product
from math import comb, gcd, prod

from thicket import CategoryType, DynkinType, count_thick_formula, enumerate_thick

RANKS = (4, 5, 6)


# -- W(D_n) as even signed permutations ---------------------------------
# w is the tuple (w(1), ..., w(n)); w(-i) = -w(i).


def _image(w, i):
    return w[i - 1] if i > 0 else -w[-i - 1]


def _compose(u, v):
    """u after v."""
    return tuple(_image(u, x) for x in v)


def _inverse(w):
    out = [0] * len(w)
    for i, x in enumerate(w, 1):
        out[abs(x) - 1] = i if x > 0 else -i
    return tuple(out)


def _power(w, k):
    out = tuple(range(1, len(w) + 1))
    for _ in range(k):
        out = _compose(w, out)
    return out


def _reflection_length(w):
    """n minus the number of paired cycles (a cycle not containing both i and -i)."""
    n = len(w)
    seen = set()
    paired = 0
    for start in range(1, n + 1):
        if start in seen:
            continue
        orbit = []
        x = start
        while x not in orbit:
            orbit.append(x)
            x = _image(w, x)
        seen.update(orbit)
        if -start not in orbit:
            paired += 1
            seen.update(-x for x in orbit)
    return n - paired


def _simple_reflection(n, i):
    """s_i for alpha_i = e_i - e_{i+1} (i < n) and alpha_n = e_{n-1} + e_n."""
    w = list(range(1, n + 1))
    if i < n:
        w[i - 1], w[i] = i + 1, i
    else:
        w[n - 2], w[n - 1] = -n, -(n - 1)
    return tuple(w)


def _coxeter_element(n):
    """s_{n-2} s_1 ... s_{n-3} s_{n-1} s_n: the fork first, so every
    diagram symmetry (arm swap; triality for n = 4) fixes c."""
    c = tuple(range(1, n + 1))
    for i in [n - 2] + [j for j in range(1, n + 1) if j != n - 2]:
        c = _compose(c, _simple_reflection(n, i))
    return c


def _group(n):
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            if prod(signs) == 1:
                yield tuple(s * x for s, x in zip(signs, perm))


@cache
def _interval(n):
    c = _coxeter_element(n)
    return [
        w for w in _group(n)
        if _reflection_length(w) + _reflection_length(_compose(_inverse(w), c)) == n
    ]


def _arm_swap(n):
    return tuple(range(1, n)) + (-n,)


def _reflections(n):
    """{positive root e_i -+ e_j: its reflection}, roots as vectors."""
    out = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for sign in (-1, 1):
                root = [0] * n
                root[i - 1], root[j - 1] = 1, sign
                w = list(range(1, n + 1))
                w[i - 1], w[j - 1] = -sign * j, -sign * i
                out[tuple(root)] = tuple(w)
    return out


# -- the simple-root basis, for the triality ----------------------------


def _root_coordinates(v):
    """Simple-root coordinates of a vector of the D_n root lattice."""
    partial = [sum(v[: i + 1]) for i in range(len(v))]
    return partial[:-2] + [(partial[-2] - v[-1]) // 2, partial[-1] // 2]


def _simple_root(n, j):
    v = [0] * n
    if j < n:
        v[j - 1], v[j] = 1, -1
    else:
        v[n - 2], v[n - 1] = 1, 1
    return v


def _matrix(w):
    """Matrix of w in the simple-root basis (columns: w(alpha_j))."""
    n = len(w)
    cols = []
    for j in range(1, n + 1):
        image = [0] * n
        for i, x in enumerate(_simple_root(n, j)):
            image[abs(w[i]) - 1] += x if w[i] > 0 else -x
        cols.append(_root_coordinates(image))
    return tuple(tuple(col[i] for col in cols) for i in range(n))


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


# alpha_1 -> alpha_3 -> alpha_4 -> alpha_1, the fork alpha_2 fixed
_TRIALITY = ((0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0))


# -- the counts ---------------------------------------------------------


def _fixed(n, r, t):
    """The elements of NC(c) of W(D_n) commuting with c^r P_phi."""
    c = _coxeter_element(n)
    nc = _interval(n)
    if t == 3:
        g = _mat_mul(_matrix(_power(c, r)), _TRIALITY)
        return [w for w in nc if _mat_mul(g, _matrix(w)) == _mat_mul(_matrix(w), g)]
    g = _power(c, r)
    if t == 2:
        g = _compose(g, _arm_swap(n))
    return [w for w in nc if _compose(g, w) == _compose(w, g)]


def oracle_count(n, r, t):
    return len(_fixed(n, r, t))


def _cells():
    for n in RANKS:
        h = 2 * n - 2
        for t in (1, 2, 3) if n == 4 else (1, 2):
            for r in range(1, 2 * h + 1):
                yield n, r, t


def test_model_sizes_and_symmetries():
    for n in RANKS:
        c = _coxeter_element(n)
        h = 2 * n - 2
        assert _reflection_length(c) == n
        assert _power(c, h) == tuple(range(1, n + 1))
        assert all(_power(c, k) != _power(c, 0) for k in range(1, h))
        assert _compose(_arm_swap(n), c) == _compose(c, _arm_swap(n))
        assert len(_interval(n)) == comb(2 * n, n) - comb(2 * n - 2, n - 1)
    m = _matrix(_coxeter_element(4))
    assert _mat_mul(_TRIALITY, m) == _mat_mul(m, _TRIALITY)


def test_bessis_reiner_where_phi_is_a_power_of_c():
    """Cat(D_n; zeta^k) = prod over degrees d divisible by the order of
    c^k of (h + d) / d, where Phi acts as conjugation by c^k: k = r for
    t = 1, and k = r + h/2 for odd n and t = 2 (there c^(h/2) is minus
    the arm swap)."""
    for n, r, t in _cells():
        h = 2 * n - 2
        if t == 3 or (t == 2 and n % 2 == 0):
            continue
        k = r if t == 1 else r + h // 2
        order = h // gcd(h, k)
        degrees = [d for d in list(range(2, h + 1, 2)) + [n] if d % order == 0]
        sieved = prod(h + d for d in degrees) // prod(degrees)
        assert oracle_count(n, r, t) == sieved, (n, r, t)


def test_athanasiadis_reiner_where_phi_is_the_arm_swap():
    """For even n, c^(h/2) = -1, so Phi acts as the arm swap when r is
    a multiple of n - 1; the fixed elements are the type-B noncrossing
    partitions of [±(n-1)], binomial(2n-2, n-1) of them."""
    for n in RANKS:
        if n % 2 == 0:
            for r in (n - 1, 2 * n - 2):
                assert oracle_count(n, r, 2) == comb(2 * n - 2, n - 1)


def test_d4_rotation_witnesses():
    """At (D4, 1, 3) the proper fixed elements are three rank-two wide
    subcategories; their positive roots, in the simple-root basis."""
    proper = []
    for w in _fixed(4, 1, 3):
        length = _reflection_length(w)
        if 0 < length < 4:
            proper.append({
                tuple(_root_coordinates(root))
                for root, t in _reflections(4).items()
                if 1 + _reflection_length(_compose(_inverse(t), w)) == length
            })
    assert sorted(map(sorted, proper)) == [
        [(0, 0, 0, 1), (1, 1, 0, 0), (1, 1, 0, 1)],  # a4, a1+a2, a1+a2+a4
        [(0, 0, 1, 0), (0, 1, 0, 1), (0, 1, 1, 1)],  # a3, a2+a4, a2+a3+a4
        [(0, 1, 1, 0), (1, 0, 0, 0), (1, 1, 1, 0)],  # a1, a2+a3, a1+a2+a3
    ]


def _proper_root_sets(n, elements):
    """For each element of length 0 < l < n, the positive roots of the
    reflections t below it (l(t) + l(t^-1 w) = l(w)), in the simple-root
    basis; sorted."""
    out = []
    for w in elements:
        length = _reflection_length(w)
        if 0 < length < n:
            out.append(sorted(
                tuple(_root_coordinates(root))
                for root, t in _reflections(n).items()
                if 1 + _reflection_length(_compose(_inverse(t), w)) == length
            ))
    return sorted(out)


def test_triality_enumeration_matches_the_oracle():
    """enumerate_thick at every (D4, r, 3), r <= 2h, against the oracle.

    thicket orders its Coxeter element by the quiver, c' = s1 s2 s3 s4 =
    s1 c s1, and its triality criterion is conjugation by L = P_3 s1 s4
    c'^-r.  As s1 L s1 = P_3 c^-r, the oracle's g at -r, thicket's fixed
    elements are s1 w s1 for the oracle's fixed w at -r: the same count,
    and the root sets moved by s1.  So the witness sets above are
    thicket's at r = 5, moved by s1.
    """
    n, h = 4, 6
    s1 = _simple_reflection(n, 1)
    for r in range(1, 2 * h + 1):
        thick = enumerate_thick(CategoryType(DynkinType("D", n), r, 3))
        fixed = _fixed(n, -r % h, 3)
        assert len(thick) == oracle_count(n, r, 3) == len(fixed), r
        moved = [_compose(s1, _compose(w, s1)) for w in fixed]
        got = sorted(sorted(d.roots) for d in thick if 0 < len(d.roots) < n * (n - 1))
        assert got == _proper_root_sets(n, moved), r


def test_closed_formula_matches_the_oracle():
    wrong = []
    for n, r, t in _cells():
        formula = count_thick_formula(CategoryType(DynkinType("D", n), r, t))
        expected = oracle_count(n, r, t)
        if formula != expected:
            wrong.append(f"(D{n}, {r}, {t}): formula {formula}, oracle {expected}")
    assert not wrong, "closed formula differs from the oracle at " + "; ".join(wrong)
