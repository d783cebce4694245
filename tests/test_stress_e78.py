"""Stress tests for the two largest exceptional types.

Both run by default.  The E7 test checks every cell (E7, r, 1) with
1 <= r <= 36, in about 0.2 s on a 2-core VM; the E8 test checks every
cell (E8, r, 1) with 1 <= r <= 60 and pins the digest of the E8 interval
table, in about 3 s there, a third of it the cold interval.  The two
classification routes are checked against each other by root set, and
their counts against the degree product of count_thick_formula.
"""

import hashlib
import json

from thicket.classifier import CategoryType, count_thick_formula, enumerate_thick
from thicket.derived_engine import brute_force_classify, build_label_walk
from thicket.root_coxeter import DynkinType, build_root_system, enumerate_nc, roots_below

# sha256 of the interval table of E8 in the format of INTERVAL_DIGESTS in
# test_root_coxeter.py: each element's matrix and its sorted root set, in order
E8_INTERVAL_DIGEST = "4514c10c56c527145efd48561982b78ff8571d737410541a5b058592d18d972c"


def degree_count(h, degrees):
    num = 1
    den = 1
    for d in degrees:
        num *= h + d
        den *= d
    assert num % den == 0
    return num // den


def test_e7_interval_and_classification():
    d = DynkinType("E", 7)
    rs = build_root_system(d)
    elements = enumerate_nc(rs)
    assert len(elements) == degree_count(18, (2, 6, 8, 10, 12, 14, 18)) == 4160
    assert len({roots_below(rs, w) for w in elements}) == 4160
    assert roots_below(rs, rs.cox) == frozenset(rs.positives)
    lab = build_label_walk(d)
    for shift in (0, 1):
        assert sorted(lab.layer_roots(shift)) == sorted(rs.positives)
    for r in range(1, 2 * 18 + 1):
        ct = CategoryType(d, r, 1)
        enum = enumerate_thick(ct)
        brute = brute_force_classify(ct)
        roots = {x.roots for x in enum}
        assert roots == {x.roots for x in brute}, str(ct)
        assert count_thick_formula(ct) == len(roots) == len(enum) == len(brute), str(ct)


def test_e8_interval_and_classification():
    d = DynkinType("E", 8)
    rs = build_root_system(d)
    elements = enumerate_nc(rs)
    assert len(elements) == degree_count(30, (2, 8, 12, 14, 18, 20, 24, 30)) == 25080
    doc = [
        [[list(row) for row in w.matrix], sorted(list(v) for v in roots_below(rs, w))]
        for w in elements
    ]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == E8_INTERVAL_DIGEST
    for r in range(1, 61):
        ct = CategoryType(d, r, 1)
        enum = {x.nc.matrix for x in enumerate_thick(ct)}
        brute = {x.nc.matrix for x in brute_force_classify(ct)}
        assert enum == brute, str(ct)
        assert count_thick_formula(ct) == len(enum), str(ct)
