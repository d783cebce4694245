"""Cross-checks tying the group, partition and quiver views together."""

from math import gcd

import pytest

from reference import is_in_nc_d, is_invariant_nc, sigma_rho_power
from thicket.classifier import (
    CategoryType,
    admissible_types_for_rank,
    count_thick_formula,
    enumerate_thick,
    reduce_criterion,
)
from thicket.ncp_models import (
    DPartition,
    ar_bijection_f,
    brady_f,
    rho,
    rotate_a,
    sigma,
)
from thicket.root_coxeter import (
    DynkinType,
    build_root_system,
    enumerate_nc,
)


def _all_set_partitions(items):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _all_set_partitions(rest):
        yield ((first,),) + sub
        for i, b in enumerate(sub):
            yield sub[:i] + ((first,) + b,) + sub[i + 1:]


def _all_d_partitions(n):
    universe = tuple(range(1, n + 1)) + tuple(range(-1, -n - 1, -1))
    for blocks in _all_set_partitions(universe):
        try:
            yield DPartition(n, blocks)
        except ValueError:
            continue


def test_d_model_image_is_exactly_the_group_test():
    # every mirror partition of [±4] either lies in the support image or
    # fails the group-side membership test; the image has the full count
    n = 4
    rs = build_root_system(DynkinType("D", n))
    image = {ar_bijection_f(rs, w).blocks for w in enumerate_nc(rs)}
    assert len(image) == 50
    seen = 0
    for p in _all_d_partitions(n):
        seen += 1
        assert (p.blocks in image) == is_in_nc_d(rs, p)
    assert seen > len(image)


def test_brady_image_is_exactly_the_noncrossing_partitions():
    from thicket.ncp_models import enumerate_nc_a

    for n in (2, 3, 4):
        rs = build_root_system(DynkinType("A", n))
        image = {brady_f(rs, w).blocks for w in enumerate_nc(rs)}
        assert image == {p.blocks for p in enumerate_nc_a(n + 1)}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_conjugation_criterion_matches_rotation_criterion_type_a(n):
    d = DynkinType("A", n)
    rs = build_root_system(d)
    h = d.coxeter_number
    for s in range(1, h + 1):
        crit = reduce_criterion(CategoryType(d, s, 1))
        assert crit.s == gcd(h, s)
        for w in enumerate_nc(rs):
            group_side = is_invariant_nc(rs, w, crit)
            p = brady_f(rs, w)
            partition_side = rotate_a(p, crit.s) == p
            assert group_side == partition_side


@pytest.mark.parametrize("n", [4, 5])
def test_conjugation_criterion_matches_sigma_rho_power_type_d(n):
    d = DynkinType("D", n)
    rs = build_root_system(d)
    h = d.coxeter_number
    for s in range(1, h + 1):
        crit = reduce_criterion(CategoryType(d, s, 1))
        for w in enumerate_nc(rs):
            group_side = is_invariant_nc(rs, w, crit)
            p = ar_bijection_f(rs, w)
            q = p
            for _ in range(crit.s):
                q = sigma(rho(q))
            assert group_side == (q == p)


@pytest.mark.parametrize("n", [4, 6])
def test_even_d_criterion_is_the_partition_statement(n):
    # the paper's even-D, order-2 criterion: f(w) is fixed by sigma^(s+1) rho^s
    d = DynkinType("D", n)
    rs = build_root_system(d)
    parts = [(w, ar_bijection_f(rs, w)) for w in enumerate_nc(rs)]
    for s in range(d.coxeter_number):
        # s = r mod h, so r = s + h gives every s, 0 included
        crit = CategoryType(d, s + d.coxeter_number, 2).criterion
        assert (crit.mode, crit.s) == ("sigma_rho_power", s)
        for w, p in parts:
            assert is_invariant_nc(rs, w, crit) == (sigma_rho_power(p, s) == p), (s, p)


def test_sigma_power_parity_bookkeeping():
    # (sigma rho)^s = rho^s for even s and sigma rho^s for odd s
    rs = build_root_system(DynkinType("D", 4))
    parts = [ar_bijection_f(rs, w) for w in enumerate_nc(rs)]
    for p in parts:
        for s in range(0, 7):
            iterated = p
            for _ in range(s):
                iterated = sigma(rho(iterated))
            expected = p
            for _ in range(s):
                expected = rho(expected)
            if s % 2 == 1:
                expected = sigma(expected)
            assert iterated == expected


def test_sigma_rho_power_matches_definition():
    rs = build_root_system(DynkinType("D", 5))
    parts = [ar_bijection_f(rs, w) for w in enumerate_nc(rs)]
    for p in parts[:40]:
        for s in range(0, 9):
            expected = p
            for _ in range(s):
                expected = rho(expected)
            if (s + 1) % 2 == 1:
                expected = sigma(expected)
            assert sigma_rho_power(p, s) == expected


def test_formula_matches_enumeration_across_the_a_grid():
    for n in range(1, 6):
        for series, rank, t in admissible_types_for_rank(n):
            if series != "A":
                continue
            d = DynkinType(series, rank)
            for r in range(1, 2 * d.coxeter_number + 1):
                ct = CategoryType(d, r, t)
                assert count_thick_formula(ct) == len(enumerate_thick(ct)), str(ct)
