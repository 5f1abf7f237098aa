"""Independent checks of the decision steps that run on reducer int rows:
the witness lifts, the quotient centers and the kernels.

Each result is checked against what it must satisfy, with products summed
by `oracle.dense_product` over the exact table, not against another copy of
the computation.  The inputs are catalog entries and dense presentations
(`oracle.dense_basis`), whose reducer rows over Q have pivot entries other than 1.
"""

import random
from fractions import Fraction

import pytest

from censtab import stability
from censtab.algebras import _quotient_center, center, ideal_generated, quotient
from censtab.catalog import build, standard_entries
from censtab.linalg import _make_reducer, kernel_of_rows, span, subspace_intersect
from censtab.radical import radical
from censtab.scalars import RATIONALS as Q, prime_field

from oracle import DENSE_CASES, dense_basis, dense_commutator

FIELDS = pytest.mark.parametrize("field", [Q, prime_field(101)], ids=["Q", "GF101"])


def _algebras(field):
    """Catalog entries up to dimension 16 and dense presentations of the
    DENSE_CASES."""
    rng = random.Random(f"int-rows:{field.p}")
    out = [e.algebra for e in standard_entries(field) if e.algebra.dim <= 16]
    out += [dense_basis(build(name, field=field, **params).algebra, rng)[0]
            for name, params in DENSE_CASES]
    return out


def _unit(field, n, i):
    return tuple(field.one if k == i else field.zero for k in range(n))


def _central_modulo(a, v, ideal):
    """Whether [v, e_i] lies in the ideal for every basis vector e_i."""
    return all(ideal.contains(dense_commutator(a, v, _unit(a.field, a.dim, i))) for i in range(a.dim))


def _has_scaled_pivot(s):
    """Whether some reducer row of s has a pivot entry other than 1."""
    return any(row[p] != 1 for p, row in s.reducer.rows.items())


def _lift(field, free, row, n):
    v = [field.zero] * n
    for c, x in zip(free, row):
        v[c] = x
    return tuple(v)


@FIELDS
def test_each_lift_is_central_modulo_its_ideal_and_outside_the_center_plus_it(field):
    routes, scaled = set(), False
    for idx, a in enumerate(_algebras(field)):
        z, r = center(a), radical(a)
        j = ideal_generated(a, [a.element(row) for row in subspace_intersect(z, r).rows])
        if j == r:
            continue
        lifts = list(stability._central_lifts(a, z, r, j))
        assert lifts, idx
        for where, v in lifts:
            ideal = j if where == "A/J" else r
            assert _central_modulo(a, v, ideal), (idx, where)
            assert not span(field, list(z.rows) + list(ideal.rows), a.dim).contains(v), (idx, where)
            if where == "A/J":
                assert r.contains(v), idx  # a lift of an element of R/J
            routes.add(where)
        scaled = scaled or _has_scaled_pivot(r) or _has_scaled_pivot(j)
    assert routes == {"A/J", "A/rad"}
    assert scaled == (field.p is None)


@FIELDS
def test_the_quotient_center_in_a_is_the_center_of_the_built_quotient(field):
    rng = random.Random(f"quotient-center:{field.p}")
    scaled = False
    for idx, a in enumerate(_algebras(field)):
        z, r = center(a), radical(a)
        ideals = [span(field, [], a.dim), r]
        ideals.append(ideal_generated(a, [a.element(row) for row in subspace_intersect(z, r).rows]))
        for _ in range(2):
            x = tuple(field.coerce(rng.randint(-2, 2)) for _ in range(a.dim))
            ideals.append(ideal_generated(a, [a.element(x)]))
        for ideal in ideals:
            qc = _quotient_center(a, ideal)
            assert qc == center(quotient(a, ideal).target), idx
            free = [c for c in range(a.dim) if c not in ideal.pivots]
            for row in qc.rows:
                assert _central_modulo(a, _lift(field, free, row, a.dim), ideal), idx
            scaled = scaled or _has_scaled_pivot(ideal)
    assert scaled == (field.p is None)


def _dot(field, u, v):
    out = field.zero
    for x, y in zip(u, v):
        out = field.add(out, field.mul(field.coerce(x), y))
    return out


@FIELDS
def test_every_row_annihilates_the_kernel_of_rows_of_full_dimension(field):
    rng = random.Random(f"kernel:{field.p}")
    cases = []
    for a in _algebras(field):
        x = tuple(field.coerce(rng.randint(-2, 2)) for _ in range(a.dim))
        # the commutator rows of a random x, and random int rows beside them
        cases.append([dense_commutator(a, x, _unit(field, a.dim, i)) for i in range(a.dim)])
    for _ in range(20):
        ncols = rng.randint(1, 9)
        cases.append([tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if field.p is None
                            else rng.randint(-4, 4) for _ in range(ncols))
                      for _ in range(rng.randint(0, ncols + 1))])
    scaled = False
    for idx, rows in enumerate(cases):
        ncols = len(rows[0]) if rows else 3
        k = kernel_of_rows(field, rows, ncols)
        assert k.dim == ncols - span(field, rows, ncols).dim, idx
        assert all(_dot(field, row, w) == field.zero for row in rows for w in k.rows), idx
        red = _make_reducer(field, ncols)
        for row in rows:
            red.insert(row)
        scaled = scaled or any(row[p] != 1 for p, row in red.rows.items())
    assert scaled == (field.p is None)
