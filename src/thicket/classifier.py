"""Category types, their invariance criteria and the count each criterion
gives, read off the degrees of W.  A criterion is a twist from
derived_engine's table of admissible (Delta, t) and a cox power s; the
root map is built from the twist's matrix and rs.cox_permutation, the
count from its eigenvalues."""

from dataclasses import dataclass
from functools import cached_property
from math import comb, prod

from .derived_engine import (
    InvalidType,
    Twist,
    automorphisms,
    brute_force_classify,
    fixed_by_cycles,
    phi_map,
)
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
        if not isinstance(self.delta, DynkinType):
            raise InvalidType(f"delta must be a DynkinType, got {self.delta!r}")
        object.__setattr__(self, "t", normalize_torsion(self.t))
        if type(self.r) is not int or self.r < 1:
            raise InvalidType(f"r must be a positive integer, got {self.r!r}")
        phi_map(self.delta, self.t)  # InvalidType unless (delta, t) is admissible

    @cached_property
    def criterion(self):
        """The cell's criterion, worked out once per type from its row of
        the table: its twist, and s = twist.reduce(offset + r, modulus)."""
        row = automorphisms(self.delta)[self.t]
        twist = row.twist
        return InvarianceCriterion(twist, twist.reduce(row.offset + self.r, twist.modulus))

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
    """Conjugation by L = T cox^(sign s), with T and the sign from twist."""

    twist: Twist
    s: int

    @property
    def mode(self):
        return self.twist.name


def reduce_criterion(ct):
    """The cell's criterion, ct.criterion, computed once per CategoryType."""
    return ct.criterion


def _twist_permutation(rs, twist):
    """T's root map alpha -> ±T alpha as an index permutation of
    rs.positives, built once per root system and twist."""
    cached = rs._permutation_cache.get(twist)
    if cached is None:
        t = tuple(tuple(int(p == i + 1) for p in twist.perm) for i in range(rs.rank))
        for i in twist.word:
            t = mat_mul(t, rs.simple_reflection(i).matrix)
        images = {a: rs.normalize_root(mat_vec(t, a))[0] for a in rs.positives}
        cached = rs._permutation_cache[twist] = index_permutation(rs, images)
    return cached


def criterion_permutation(rs, crit):
    """The criterion's root map alpha -> ±L alpha as (index permutation of
    rs.positives, its nontrivial cycle masks), built once per root system
    and criterion.

    Conjugation by L sends the root set of w to that of L w L^-1, and L =
    T cox^(sign s) with T and the sign from crit.twist (the table in
    derived_engine.automorphisms says why).  cox^h = 1, so the power is
    taken mod h by composing T's index permutation with cox's; only T is
    built as a matrix, once per root system and twist.
    """
    cached = rs._permutation_cache.get(crit)
    if cached is None:
        perm = _twist_permutation(rs, crit.twist)
        for _ in range(crit.twist.sign * crit.s % rs.delta.coxeter_number):
            perm = tuple(perm[i] for i in rs.cox_permutation)
        cached = rs._permutation_cache[crit] = (perm, cycle_masks(perm))
    return cached


def enumerate_thick(ct):
    """Thick subcategories of the type, as descriptors at the interval level:
    the interval elements whose root set the criterion's root map fixes,
    in interval order, at every admissible cell."""
    rs = build_root_system(ct.delta)
    return fixed_by_cycles(rs, criterion_permutation(rs, ct.criterion)[1])


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def catalan_d(n):
    """|NC(D_n)|, the size of the interval of D_n."""
    return comb(2 * n, n) - comb(2 * n - 2, n - 1)


def count_thick_formula(ct):
    """Exact count from the criterion and the degrees of W alone.

    Conjugation by L = T cox^k, k = sign s, fixes prod over the basic
    invariants fixed by L of (h + d) / d interval elements, d the degree.
    L multiplies the invariant of degree d by zeta^(k d) times T's
    eigenvalue exp(2 pi i a/b) on it (the twist's invariants), zeta =
    exp(2 pi i/h), so the invariant is fixed when k d/h + a/b is an
    integer.  With T = 1 this is Bessis-Reiner's cyclic sieving of
    NC(W) (2011); the twisted product has the shape of Springer's regular
    elements in a coset W psi (1974), and is checked here against
    enumeration, not cited.

    These values correct two printed in the overview table; README's
    erratum lists the cells, their witnesses and the evidence.
    """
    crit = ct.criterion
    h, k = ct.delta.coxeter_number, crit.twist.sign * crit.s
    fixed = [d for d, a, b in crit.twist.invariants if (k * d * b + a * h) % (h * b) == 0]
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
    from fractions import Fraction  # imported here: its only user, and costly

    if not isinstance(delta, DynkinType):
        raise InvalidType(f"delta must be a DynkinType, got {delta!r}")
    t = normalize_torsion(t)
    if isinstance(frequency, bool):
        raise NotAsashibaType(f"frequency must be a number, got {frequency!r}")
    try:
        f = Fraction(frequency)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise NotAsashibaType(f"frequency must be a number, got {frequency!r}") from None
    if f <= 0:
        raise NotAsashibaType("frequency must be positive")
    n = delta.rank
    divisible = {("A", 1): n, ("D", 1): 3 if n % 3 == 0 else 1}.get((delta.series, t), 1)
    if t == "inf" or t not in automorphisms(delta) or divisible % f.denominator:
        raise NotAsashibaType(f"({delta}, {f}, {t}) is not an algebra type")
    r = f * (delta.coxeter_number - 1)
    if r.denominator != 1 or r < 1:
        raise NotAsashibaType(f"frequency {f} gives non-integral exponent {r}")
    return CategoryType(delta, int(r), t)


def classification_report(ct):
    """The one cross-check of a cell: the criterion's descriptors against
    brute force's, compared by root set, and the count formula against
    the enumeration.

    "witnesses" holds one descriptor, tagged "kept_by", for every root
    set that only one side keeps.
    """
    crit = ct.criterion
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
    """(series, n, t) for the Dynkin types of rank n, series A, D, E in
    turn, and each admissible t in the order of their table."""
    out = []
    for series in "ADE":
        try:
            delta = DynkinType(series, n)
        except InvalidType:
            continue
        out += [(series, n, t) for t in automorphisms(delta)]
    return out
