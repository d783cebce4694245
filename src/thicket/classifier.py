"""Category types, their invariance criteria and the count each criterion
gives, read off the degrees of W."""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, prod

from .derived_engine import InvalidType, brute_force_classify, fixed_by_cycles
from .linalg import mat_mul, mat_vec
from .root_coxeter import (
    DynkinType,
    InvalidInput,
    build_root_system,
    cycle_masks,
    index_permutation,
)


class NoClosedForm(ValueError):
    """No longer raised: every admissible type has a closed count.  It
    stays because perfbench/workloads.py imports it, and goes with the
    perfbench edit that drops that import."""


class NotAsashibaType(InvalidInput):
    pass


TORSION_ORDERS = (1, 2, 3, "inf")


def normalize_torsion(t):
    """t as exactly 1, 2, 3 or "inf"; anything else, a bool or 2.0
    included, raises InvalidType."""
    if type(t) is int and t in (1, 2, 3):
        return t
    if isinstance(t, str):
        if t in ("1", "2", "3"):
            return int(t)
        if t.lower() in ("inf", "infinity", "oo"):
            return "inf"
    if t == float("inf"):
        return "inf"
    raise InvalidType(f"torsion order must be one of {TORSION_ORDERS}, got {t!r}")


@dataclass(frozen=True)
class CategoryType:
    delta: DynkinType
    r: int
    t: object

    def __post_init__(self):
        object.__setattr__(self, "t", normalize_torsion(self.t))
        if type(self.r) is not int or self.r < 1:
            raise InvalidType(f"r must be a positive integer, got {self.r!r}")
        d, t = self.delta, self.t
        if (d.series, d.rank, t) not in admissible_types_for_rank(d.rank):
            raise InvalidType(f"({d}, r, {t}) is not an admissible type")

    def to_json(self):
        return {
            "series": self.delta.series,
            "rank": self.delta.rank,
            "r": self.r,
            "t": self.t,
        }

    def __str__(self):
        return f"({self.delta}, {self.r}, {self.t})"


@dataclass(frozen=True)
class InvarianceCriterion:
    mode: str
    s: int


def reduce_criterion(ct):
    """The cell's criterion: conjugation by cox^s with s = gcd(h, r) for
    t = 1 and s = gcd(h, h // 2 + r) for t = 2 and inf (h is odd for inf,
    so h // 2 = (h - 1)/2); s = r mod h for even D with t = 2 and r mod 3
    for the triality, whose twists _twist holds."""
    d, r, t = ct.delta, ct.r, ct.t
    h = d.coxeter_number
    if t == 2 and d.series == "D" and d.rank % 2 == 0:
        return InvarianceCriterion("sigma_rho_power", r % h)
    if t == 3:
        return InvarianceCriterion("d4_triality", r % 3)
    return InvarianceCriterion("cox_conjugation", gcd(h, r if t == 1 else h // 2 + r))


@lru_cache(maxsize=None)
def _twist(mode, n):
    """The twist T of the criterion mode in rank n, which commutes with cox:
    (simple-root permutation, reflection word that T applies first, sign
    of the cox power, T's eigenvalues exp(2 pi i a/b) on the basic
    invariants it moves as (degree, a, b)).

    The criterion is conjugation by L = T cox^(sign s).  The permutation
    p sends e_q to e_p[q]; the word (i, j) is s_i s_j.
    """
    ident = tuple(range(1, n + 1))
    if mode == "cox_conjugation":
        return ident, (), 1, ()
    if mode == "sigma_rho_power":
        return ident[: n - 2] + (n, n - 1), (), 1, ((n, 1, 2),)
    if mode == "d4_triality":
        return (3, 2, 4, 1), (1, 4), -1, ((4, 1, 3), (4, 2, 3))
    raise InvalidType(f"unknown criterion mode {mode!r}")


def _twist_permutation(rs, mode):
    """T's root map alpha -> ±T alpha as an index permutation of
    rs.positives, built once per root system and mode."""
    cached = rs._permutation_cache.get(mode)
    if cached is None:
        perm, word, _, _ = _twist(mode, rs.rank)
        t = tuple(tuple(int(p == i + 1) for p in perm) for i in range(rs.rank))
        for i in word:
            t = mat_mul(t, rs.simple_reflection(i).matrix)
        images = {a: rs.normalize_root(mat_vec(t, a))[0] for a in rs.positives}
        cached = rs._permutation_cache[mode] = index_permutation(rs, images)
    return cached


def criterion_permutation(rs, crit):
    """The criterion's root map alpha -> ±L alpha as (index permutation of
    rs.positives, its nontrivial cycle masks), built once per root system
    and criterion.

    Conjugation by L sends the root set of w to that of L w L^-1, and L =
    T cox^(sign s) with T and the sign from _twist.  cox_conjugation has
    T = 1.  sigma_rho_power has T = P, the swap of the simple roots n-1
    and n: cox conjugation acts on the D model as sigma.rho
    (coxeter_conjugation_is_sigma_rho) and the arm swap as sigma
    (phi_fixes_sigma_on_nc), so sigma^(s+1) rho^s is conjugation by
    P cox^s.  d4_triality has T = P_3 s_1 s_4 and the power -s: the
    rotation phi_map(D4, 3) permutes the simple roots as P_3, and s_1 s_4
    is the reflection-functor word at the two arms whose arrows it
    reverses, so the generator phi.tau^-r acts on roots as T cox^-r (and
    cox^3 = -1).  cox^h = 1, so the power is taken mod h by composing
    index permutations, then T's permutation; only T is built as a
    matrix, once per root system and mode.
    """
    cached = rs._permutation_cache.get(crit)
    if cached is None:
        sign = _twist(crit.mode, rs.rank)[2]
        cox = rs.cox_permutation
        perm = tuple(range(len(cox)))
        for _ in range(sign * crit.s % rs.delta.coxeter_number):
            perm = tuple(cox[i] for i in perm)
        if crit.mode != "cox_conjugation":
            twist = _twist_permutation(rs, crit.mode)
            perm = tuple(twist[i] for i in perm)
        cached = rs._permutation_cache[crit] = (perm, cycle_masks(perm))
    return cached


def enumerate_thick(ct):
    """Thick subcategories of the type, as descriptors at the interval level:
    the interval elements whose root set the criterion's root map fixes,
    in interval order, at every admissible cell."""
    rs = build_root_system(ct.delta)
    return fixed_by_cycles(rs, criterion_permutation(rs, reduce_criterion(ct))[1])


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def catalan_d(n):
    """|NC(D_n)|.  Nothing in src/ calls it; it stays because
    perfbench/workloads.py imports it, and goes with that import."""
    return comb(2 * n, n) - comb(2 * n - 2, n - 1)


@lru_cache(maxsize=None)
def _eigenvalues(mode, delta):
    """T's eigenvalue exp(2 pi i a/b) on every basic invariant of W, as
    (degree, a, b), with a/b = 0 on those _twist does not list; built once
    per mode and type, so that counting a cell allocates almost nothing."""
    moved = _twist(mode, delta.rank)[3]
    rest = list(delta.degrees)
    for d, _, _ in moved:
        rest.remove(d)
    return tuple((d, 0, 1) for d in rest) + moved


def count_thick_formula(ct):
    """Exact count from the criterion and the degrees of W alone.

    Conjugation by L = T cox^k, k = sign s (_twist), fixes prod over the
    basic invariants fixed by L of (h + d) / d interval elements, d the
    degree.  L multiplies the invariant of degree d by zeta^(k d) times
    T's eigenvalue exp(2 pi i a/b) on it (a/b = 0 unless _twist lists
    it), zeta = exp(2 pi i/h), so the invariant is fixed when k d/h + a/b
    is an integer.  With T = 1 this is Bessis-Reiner's cyclic sieving of
    NC(W) (2011); the twisted product has the shape of Springer's regular
    elements in a coset W psi (1974), and is checked here against
    enumeration, not cited.

    These values correct two printed in the overview table.  The
    half-turn D cells (s = n-1 for odd n, s in {0, n-1} for even n with
    the arm swap) have binomial(2n-2, n-1) thick subcategories, not
    Cat(D_{n-1}), and (D_4, r, 3) with 3 not dividing r has five, not
    two.  Both enumeration routes and the Weyl-group oracle of
    tests/test_independent_oracle.py give these values; README's
    erratum lists the witnesses.
    """
    crit = reduce_criterion(ct)
    h, k = ct.delta.coxeter_number, _twist(crit.mode, ct.delta.rank)[2] * crit.s
    invariants = _eigenvalues(crit.mode, ct.delta)
    fixed = [d for d, a, b in invariants if (k * d * b + a * h) % (h * b) == 0]
    return prod(h + d for d in fixed) // prod(fixed)


def count_thick(ct, proper=False):
    """The closed count, less the two trivial ones when proper."""
    total = count_thick_formula(ct)
    return total - 2 if proper else total


def algebra_type_to_category_type(delta, frequency, t):
    """Stable-category type of a self-injective algebra type (delta, f, t).

    (delta, t) must be admissible with finite t, and the denominator of f
    must divide n for (A_n, 1), 3 for (D_n, 1) with 3 | n, and 1 otherwise.
    The translation exponent f * (h - 1) must be a positive integer.
    """
    t = normalize_torsion(t)
    f = Fraction(frequency)
    if f <= 0:
        raise NotAsashibaType("frequency must be positive")
    d = delta
    n = d.rank
    if (d.series, t) == ("A", 1):
        divisible = n
    elif (d.series, t) == ("D", 1) and n % 3 == 0:
        divisible = 3
    else:
        divisible = 1
    admissible = t != "inf" and (d.series, n, t) in admissible_types_for_rank(n)
    if not admissible or divisible % f.denominator:
        raise NotAsashibaType(f"({d}, {f}, {t}) is not an algebra type")
    r = f * (d.coxeter_number - 1)
    if r.denominator != 1 or r < 1:
        raise NotAsashibaType(f"frequency {f} gives non-integral exponent {r}")
    return CategoryType(d, int(r), t)


def classification_report(ct):
    """The one cross-check of a cell: the criterion's descriptors against
    brute force's, compared by root set, and the count formula against
    the enumeration.

    "witnesses" holds one descriptor, tagged "kept_by", for every root
    set that only one side keeps.
    """
    crit = reduce_criterion(ct)
    sides = {"enumerated": enumerate_thick(ct), "brute_force": brute_force_classify(ct)}
    roots = {side: {d.roots for d in descs} for side, descs in sides.items()}
    witnesses = [
        {"kept_by": side, **d.to_json()}
        for side, other in (("enumerated", "brute_force"), ("brute_force", "enumerated"))
        for d in sides[side]
        if d.roots not in roots[other]
    ]
    formula = count_thick_formula(ct)
    return {
        "type": ct.to_json(),
        "criterion": crit.mode,
        "s": crit.s,
        "count_enumerated": len(sides["enumerated"]),
        "count_brute_force": len(sides["brute_force"]),
        "count_formula": formula,
        "witnesses": witnesses,
        "agree": not witnesses and formula == len(sides["enumerated"]),
    }


# -- the overview table -------------------------------------------------

_A_COUNT = "C_s if s = n+1; binomial(2s, s) otherwise"

OVERVIEW_ROWS = (
    {
        "type": "(A_n, r, 1)",
        "classifying": "w in the interval with w = cox^s w cox^-s, s = gcd(n+1, r)",
        "alternative": "circular partitions of [n+1] invariant under rotation by s*2pi/(n+1), s = gcd(n+1, r)",
        "count": _A_COUNT,
    },
    {
        "type": "(A_n, r, 2), n >= 3 odd",
        "classifying": "w in the interval with w = cox^s w cox^-s, s = gcd(n+1, (n+1)/2 + r)",
        "alternative": "circular partitions of [n+1] invariant under rotation by s*2pi/(n+1), s = gcd(n+1, (n+1)/2 + r)",
        "count": _A_COUNT,
    },
    {
        "type": "(A_n, r, inf), n even",
        "classifying": "w in the interval with w = cox^s w cox^-s, s = gcd(n+1, n/2 + r)",
        "alternative": "circular partitions of [n+1] invariant under rotation by s*2pi/(n+1), s = gcd(n+1, n/2 + r)",
        "count": _A_COUNT,
    },
    {
        "type": "(D_n, r, 1)",
        "classifying": "w in the interval with w = cox^s w cox^-s, s = gcd(2n-2, r)",
        "alternative": "signed partitions invariant under (sigma rho)^s, s = gcd(2n-2, r)",
        "count": "Cat(D_n) if s = 2n-2 or s = n-1 odd; binomial(2n-2, n-1) if s = n-1 even; binomial(2p, p) otherwise, p = gcd(n-1, s)",
    },
    {
        "type": "(D_n, r, 2), n odd",
        "classifying": "w in the interval with w = cox^s w cox^-s, s = gcd(2n-2, (2n-2)/2 + r)",
        "alternative": "signed partitions invariant under (sigma rho)^s, s = gcd(2n-2, (2n-2)/2 + r)",
        "count": "Cat(D_n) if s = 2n-2; binomial(2n-2, n-1) if s = n-1; binomial(2p, p) otherwise, p = gcd(n-1, s)",
    },
    {
        "type": "(D_n, r, 2), n even",
        "classifying": "",
        "alternative": "signed partitions invariant under sigma^(s+1) rho^s, s = r mod (2n-2)",
        "count": "binomial(2n-2, n-1) if s = 0 or s = n-1; binomial(2p, p) otherwise, p = gcd(n-1, s)",
    },
    {
        "type": "(D_4, r, 3)",
        "classifying": "",
        "alternative": "s = r mod 3; s = 0: six distinguished proper thick subcategories; s = 1, 2: three rank-two wide proper ones",
        "count": "8 if s = 0; 5 otherwise",
    },
    {
        "type": "(E_n, r, 1), n = 6, 7, 8",
        "classifying": "w in the interval with w = cox^s w cox^-s, s = gcd(h_{E_n}, r)",
        "alternative": "",
        "count": "",
    },
    {
        "type": "(E_6, r, 2)",
        "classifying": "w in the interval with w = cox^s w cox^-s, s = gcd(12, r + 6)",
        "alternative": "",
        "count": "",
    },
)


def overview_table():
    return OVERVIEW_ROWS


def overview_markdown():
    header = "| type | classifying elements | alternative description | number |"
    sep = "| --- | --- | --- | --- |"
    lines = [header, sep]
    for row in OVERVIEW_ROWS:
        lines.append(
            f"| {row['type']} | {row['classifying']} | {row['alternative']} | {row['count']} |"
        )
    return "\n".join(lines) + "\n"


def admissible_types_for_rank(n):
    out = [("A", n, 1)]
    if n % 2 == 1 and n >= 3:
        out.append(("A", n, 2))
    if n % 2 == 0:
        out.append(("A", n, "inf"))
    if n >= 4:
        out.append(("D", n, 1))
        out.append(("D", n, 2))
    if n == 4:
        out.append(("D", 4, 3))
    if n in (6, 7, 8):
        out.append(("E", n, 1))
    if n == 6:
        out.append(("E", 6, 2))
    return out
