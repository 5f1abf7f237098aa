"""The central part of a Stable element witness, and the order of [x, A].

`element_centrally_stable` writes a Stable x as z + u, with z central and u
in I', the span of the commutator-ideal closure it stopped once x was in
Z + I'.  Its z is the one element of Z cap (x + I') that is zero at the pivot
columns of Z cap I'.  Each Stable report is checked here against that rule by
means the decision does not use: z commutes with every e_i by
`oracle.dense_product`, and x - z lies in Id([x, A]) closed by
`oracle.dense_ideal`.

The rows of [x, A] enter their span, and the closure that replays Id([x, A]),
sparsest first.  The reduced rows either gives are unique, so they are
checked equal under other orders, and the eliminations of both are pinned.
"""

import random
from fractions import Fraction

import pytest

from censtab import stability
from censtab.algebras import _commutator_rows, _ideal_closure, center
from censtab.catalog import build
from censtab.linalg import (
    _int_entries,
    _make_reducer,
    _PrimeReducer,
    _RationalReducer,
    span,
    subspace_intersect,
)
from censtab.scalars import RATIONALS as Q, prime_field
from censtab.stability import (
    NOT_STABLE,
    STABLE,
    element_centrally_stable,
    random_element,
    verify_certificate,
)
from oracle import count, dense_basis, dense_commutator, dense_ideal, dense_product

FIELDS = pytest.mark.parametrize("field", [Q, prime_field(101)], ids=str)

WITNESS_CASES = [
    ("matrix_full", {"n": 3}),
    ("matrix_full", {"n": 5}),
    ("upper_triangular", {"n": 3}),
    ("truncated_poly", {"k": 5}),
    ("scalar_plus_strict_upper", {"n": 4}),
    ("matrix_over_commutative", {"n": 2, "k": 2}),
    ("r11_radical", {"n": 2, "k": 3}),
]
DENSE_MAX_DIM = 9  # larger tables are left in their catalog basis

ORDER_CASES = [
    ("matrix_full", {"n": 3}),
    ("upper_triangular", {"n": 4}),
    ("strict_upper", {"n": 4}),
    ("matrix_over_commutative", {"n": 2, "k": 2}),
    ("r11_radical", {"n": 2, "k": 3}),
]


def _dense_element(a, rng):
    """An element with every coordinate nonzero."""
    f = a.field
    return a.element(tuple(f.coerce(rng.choice((-1, 1)) * rng.randint(1, 9)) for _ in range(a.dim)))


def _algebras(field, rng):
    for name, params in WITNESS_CASES:
        a = build(name, field=field, **params).algebra
        yield name, a
        if a.dim <= DENSE_MAX_DIM:
            yield f"dense {name}", dense_basis(a, rng)[0]


@FIELDS
def test_a_stable_witness_carries_the_central_part_zero_at_the_pivots_of_z_cap_the_ideal(field):
    f = field
    rng = random.Random(f"z-rule:{field}")
    reports = meets = 0
    for label, a in _algebras(field, rng):
        n = a.dim
        xs = [a.basis_element(i) for i in range(n)]
        xs += [random_element(a, rng) for _ in range(4)] + [_dense_element(a, rng) for _ in range(2)]
        for x in xs:
            rep = element_centrally_stable(x)
            if rep.verdict != STABLE:
                continue
            cert = rep.certificate
            z = cert.central_part
            assert tuple(f.add(zi, ui) for zi, ui in zip(z, cert.ideal_part)) == x.coords
            units = [a.basis_element(i).coords for i in range(n)]
            assert all(dense_product(a, z, e) == dense_product(a, e, z) for e in units), label
            ideal = dense_ideal(a, [dense_commutator(a, x.coords, e) for e in units])
            assert ideal.contains(tuple(f.sub(xi, zi) for xi, zi in zip(x.coords, z))), label
            partial = rep.bases.get("commutator_ideal_partial", ())
            meet = subspace_intersect(span(f, rep.bases["center"], n), span(f, partial, n))
            assert all(not z[p] for p in meet.pivots), (label, x.coords)
            meets += meet.dim > 0
            reports += 1
    assert reports > 50
    assert meets > 0  # some z was chosen among several


def _rows_of(red):
    return [sorted(row.items()) for row in red.pivot_rows()]


@FIELDS
def test_the_commutator_span_and_its_ideal_do_not_depend_on_the_row_order(field):
    rng = random.Random(f"row-order:{field}")
    reordered = 0
    for name, params in ORDER_CASES:
        a = build(name, field=field, **params).algebra
        for b in (a, dense_basis(a, rng)[0]):
            xs = [b.basis_element(i) for i in range(b.dim)] + [random_element(b, rng) for _ in range(3)]
            for x in xs:
                rows = list(_commutator_rows(b, _int_entries(x.coords)))
                orders = [rows, sorted(rows, key=len), rng.sample(rows, len(rows))]
                reordered += orders[1] != rows
                spans, ideals = [], []
                for order in orders:
                    red = _make_reducer(field, b.dim)
                    for row in order:
                        red.insert(row)
                    spans.append(_rows_of(red))
                    ideals.append(_rows_of(_ideal_closure(b, order, left_only=True)))
                assert spans[1:] == spans[:-1] and ideals[1:] == ideals[:-1], name
                assert _rows_of(stability._commutator_ideal(b, x.coords).reducer) == ideals[0]
    assert reordered > 0


def _count_eliminations(monkeypatch):
    """Count the eliminations of every reducer from here on, and the row
    entries they read."""
    return count(monkeypatch, {"calls": 0, "entries": 0}, [_RationalReducer, _PrimeReducer], "_eliminate",
                 calls=1, entries=lambda self, v, c, r, p: len(r))


def _query_element(a, rng):
    """Coordinates n/d, n in -3..3 and d in 1..3, as the benchmark's random
    element queries draw them: about one in seven is zero."""
    return a.element(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(a.dim)))


def test_the_commutator_span_of_a_dense_element_is_built_with_pinned_eliminations(monkeypatch):
    a = build("matrix_full", n=5).algebra
    center(a)  # memoized: only the decision's own reducers are counted
    x = _query_element(a, random.Random("dense-span"))
    counts = _count_eliminations(monkeypatch)
    marks = {}
    span, closure = stability.commutator_space, stability._ideal_closure

    def first_span(*args):  # the span is built from here ...
        marks["start"] = dict(counts)
        return span(*args)

    def then_closure(*args, **kwargs):  # ... to here
        marks["end"] = dict(counts)
        return closure(*args, **kwargs)

    monkeypatch.setattr(stability, "commutator_space", first_span)
    monkeypatch.setattr(stability, "_ideal_closure", then_closure)
    element_centrally_stable(x)
    assert {k: marks["end"][k] - marks["start"][k] for k in counts} == {"calls": 241, "entries": 1961}


def test_a_not_stable_replay_closes_its_ideal_with_pinned_eliminations(monkeypatch):
    a = build("r11_radical", n=2, k=6).algebra
    rng = random.Random("dense-replay")
    while (rep := element_centrally_stable(x := _query_element(a, rng))).verdict != NOT_STABLE:
        pass
    counts = _count_eliminations(monkeypatch)  # center(a) is memoized by the decision
    assert verify_certificate(a, rep), x.coords
    assert counts == {"calls": 134, "entries": 233}
