"""The one-pass commutator rows against the basis products they sum.

`_commutator_rows(a, v)` forms every N [v, e_i] from one walk over the index
rows of v's support.  Here each row is checked against the two basis
products it replaces, `_vec_mul_basis(v, i) - _basis_mul_vec(i, v)`, on
catalog tables and their dense presentations, unital or not, over Q and
GF(101): the same i, in the same order, with the same nonzero entries.
"""

import random

import pytest

from censtab.algebras import _commutator_rows, center
from censtab.catalog import build
from censtab.linalg import _int_entries
from censtab.scalars import RATIONALS as Q, prime_field
from censtab.stability import random_element
from oracle import dense_basis

CASES = [
    ("matrix_full", {"n": 3}),
    ("upper_triangular", {"n": 3}),
    ("scalar_plus_strict_upper", {"n": 4}),
    ("strict_upper", {"n": 4}),
    ("truncated_poly", {"k": 5}),
    ("matrix_over_commutative", {"n": 2, "k": 2}),
    ("r11_radical", {"n": 2, "k": 3}),
]


def _two_pass_rows(a, v):
    """The nonzero entries of N [v, e_i], in increasing i, for each i where a
    product meets v."""
    out = []
    for i in range(a.dim):
        left, right = a._vec_mul_basis(v, i), a._basis_mul_vec(i, v)
        if left or right:
            w = dict(left or ())
            for k, y in (right or {}).items():
                w[k] = w.get(k, 0) - y
            out.append({k: x for k, x in w.items() if x})
    return out


def _elements(a, rng):
    """Basis vectors, central elements (their products meet the index but
    cancel in every commutator), sums of two such vectors and random
    elements, as int entry dicts."""
    coords = [a.basis_element(i).coords for i in range(a.dim)]
    coords += list(center(a).rows)
    for _ in range(4):
        i, j = rng.randrange(a.dim), rng.randrange(a.dim)
        coords.append(tuple(a.field.add(x, y) for x, y in zip(coords[i], coords[j])))
        coords.append(random_element(a, rng).coords)
    return [_int_entries(c) for c in coords]


@pytest.mark.parametrize("field", [Q, prime_field(101)], ids=str)
def test_one_pass_commutator_rows_match_the_basis_products(field):
    rng = random.Random(f"commutator-rows:{field}")
    seen = {"cancelled": 0, "nonzero": 0, "dense": 0}
    for name, params in CASES:
        a = build(name, field=field, **params).algebra
        for b in (a, dense_basis(a, rng)[0]):
            seen["dense"] += b is not a
            for v in _elements(b, rng):
                got = [{k: x for k, x in w.items() if x} for w in _commutator_rows(b, v)]
                assert got == _two_pass_rows(b, v), (name, v)
                seen["cancelled"] += sum(not w for w in got)
                seen["nonzero"] += sum(bool(w) for w in got)
    assert all(seen.values()), seen
