"""The generating set of basis vectors against the whole basis.

`center`, the ideal closure and `ideal_witness` multiply only by the e_g,
g in `_generators(a)`.  Each is compared here with a reference that
multiplies by every basis vector, on the same inputs: catalog algebras,
unital or not, their dense presentations and quotients by random ideals,
over Q and GF(101).  The references use the dense product over the exact
table, not the int index the engine reads.
"""

import random

import pytest

from censtab.algebras import (
    _generators,
    center,
    ideal_generated,
    ideal_witness,
    quotient,
)
from censtab.catalog import build
from censtab.linalg import kernel_of_rows, span
from censtab.scalars import RATIONALS as Q, prime_field
from censtab.stability import random_element
from oracle import CASES, count_products, dense_basis, dense_commutator, dense_ideal, dense_product

FIELDS = pytest.mark.parametrize("field", [Q, prime_field(101)], ids=str)


def _center_ref(a):
    """The kernel of z -> ([z, e_j])_j over every basis vector e_j."""
    basis = [a.basis_element(i).coords for i in range(a.dim)]
    comms = [[dense_commutator(a, e_i, e_j) for e_i in basis] for e_j in basis]
    rows = [[c[k] for c in row] for row in comms for k in range(a.dim)]
    return kernel_of_rows(a.field, rows, a.dim)


def _witness_ref(a, s):
    """The first (vec_idx, basis_idx, side) over all basis vectors with a
    product escaping s, or None."""
    for vi, v in enumerate(s.rows):
        for i in range(a.dim):
            e = a.basis_element(i).coords
            if not s.contains(dense_product(a, e, v)):
                return (vi, i, "left")
            if not s.contains(dense_product(a, v, e)):
                return (vi, i, "right")
    return None


def _word_span(a, gens):
    """The span of the words in the e_g: the subalgebra they generate."""
    letters = [a.basis_element(g).coords for g in gens]
    s = span(a.field, letters, a.dim)
    frontier = letters
    while frontier:
        new = [dense_product(a, x, w) for x in letters for w in frontier]
        new = [w for w in new if not s.contains(w)]
        s = span(a.field, list(s.rows) + new, a.dim)
        frontier = new
    return s


def _algebras(field):
    """Each catalog case, its dense presentation and a quotient by the
    ideal of a random element, when that is proper and nonzero."""
    rng = random.Random(f"generators:{field}")
    for name, params in CASES:
        a = build(name, field=field, **params).algebra
        yield name, a
        yield f"{name} dense", dense_basis(a, rng)[0]
        ideal = ideal_generated(a, [random_element(a, rng)])
        if 0 < ideal.dim < a.dim:
            yield f"{name} quotient", quotient(a, ideal).target


def _subspaces(a, rng):
    """Random spans of one to three elements (mostly not ideals), ideals,
    and ideals with one basis row dropped."""
    for _ in range(3):
        yield span(a.field, [random_element(a, rng).coords for _ in range(rng.randint(1, 3))], a.dim)
        ideal = ideal_generated(a, [random_element(a, rng)])
        yield ideal
        if ideal.dim > 1:
            rows = list(ideal.rows)
            del rows[rng.randrange(len(rows))]
            yield span(a.field, rows, a.dim)
    sparse = [a.basis_element(rng.randrange(a.dim)).coords for _ in range(2)]
    yield span(a.field, sparse, a.dim)


@FIELDS
def test_generators_center_closure_and_ideal_check_match_the_whole_basis(field):
    rng = random.Random(f"check:{field}")
    seen = {"ideal": 0, "not": 0}
    for name, a in _algebras(field):
        gens = _generators(a)
        assert list(gens) == sorted(set(gens)), name
        assert _word_span(a, gens).dim == a.dim, name
        assert center(a) == _center_ref(a), name
        for _ in range(3):
            xs = [random_element(a, rng) for _ in range(rng.randint(1, 2))]
            assert ideal_generated(a, xs) == dense_ideal(a, [x.coords for x in xs]), name
        xs = [a.basis_element(rng.randrange(a.dim))]
        assert ideal_generated(a, xs) == dense_ideal(a, [x.coords for x in xs]), name
        for s in _subspaces(a, rng):
            want = _witness_ref(a, s)
            assert ideal_witness(a, s) == want, name
            seen["ideal" if want is None else "not"] += 1
    assert min(seen.values()) >= 20, seen


def test_generators_are_few_on_the_catalog():
    # the order fewest-products-first puts factors before their products
    for name, params, size in (
        ("truncated_poly", {"k": 12}, 2),
        ("upper_triangular", {"n": 6}, 11),
        ("strict_upper", {"n": 7}, 6),
    ):
        assert len(_generators(build(name, **params).algebra)) == size, name


def test_the_closure_ends_once_its_span_is_full(monkeypatch):
    # a random element of M_3 generates all of it: the work list is left at
    # the full span with rows still on it (90 products when walked out)
    a = build("matrix_full", n=3).algebra
    x = random_element(a, random.Random(1))
    counts = count_products(monkeypatch, {"products": 0})
    assert ideal_generated(a, [x]).dim == a.dim
    assert counts == {"products": 38}
