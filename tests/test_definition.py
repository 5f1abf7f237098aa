"""Verdicts checked against the paper's definition, over every quotient.

A is centrally stable when every quotient map carries its center onto the
center of the image: for every ideal I, each x whose class x + I is central
in A/I, that is [x, e_j] in I for every j, lies in Z(A) + I.  An element a
is centrally stable when, for every ideal I, a + I central implies
a in Z(A) + I.  Subspaces here are plain sets of GF(p) tuples and every
ideal is enumerated, so no elimination code of the engine takes part; only
the structure constants are read from the algebra.
"""

from functools import lru_cache
from itertools import product

import pytest

from censtab.catalog import build
from censtab.scalars import prime_field
from censtab.stability import STABLE, algebra_centrally_stable, element_centrally_stable


def _mul(a, x, y):
    p, out = a.field.p, [0] * a.dim
    for (i, j), pairs in a.table.items():
        c = x[i] * y[j] % p
        if c:
            for k, ck in pairs:
                out[k] = (out[k] + c * ck) % p
    return tuple(out)


def _extend(space, v, p):
    """The span of the subspace `space` (a set of tuples) and the vector v."""
    if v in space:
        return space
    if len(space) * p == p ** len(v):  # a hyperplane and a vector off it
        return _whole(len(v), p)
    out, layer = set(space), space
    for _ in range(1, p):  # layer c is space + c v
        layer = [tuple([(s + t) % p for s, t in zip(u, v)]) for u in layer]
        out.update(layer)
    return frozenset(out)


@lru_cache(maxsize=None)
def _whole(n, p):
    return frozenset(product(range(p), repeat=n))


def _grow(a, ideal, basis, x):
    """I + Id(x) for the ideal I = `ideal` spanned by `basis`: the span of
    the basis and x, closed under left and right products with e_0..e_n-1."""
    p, units = a.field.p, _units(a.dim)
    space, basis, work = _extend(ideal, x, p), basis + [x], [x]
    while work:
        v = work.pop()
        for e in units:
            for w in (_mul(a, e, v), _mul(a, v, e)):
                if w not in space:
                    space = _extend(space, w, p)
                    basis.append(w)
                    work.append(w)
    return space, basis


def _units(n):
    return [tuple(int(i == k) for i in range(n)) for k in range(n)]


def _complement_points(space, n, p):
    """One nonzero vector per line of a complement of `space`: the span of
    the standard units, taken greedily, that do not fall into it."""
    free = []
    for e in _units(n):
        if e not in space:
            free.append(e.index(1))
            space = _extend(space, e, p)
    for coeffs in product(range(p), repeat=len(free)):
        nonzero = [c for c in coeffs if c]
        if nonzero and nonzero[0] == 1:
            v = [0] * n
            for k, c in zip(free, coeffs):
                v[k] = c
            yield tuple(v)


def _ideals(a):
    """Every ideal of a, as {subspace: spanning list}, found by growing each
    ideal I to I + Id(x) for x over the lines of a complement of I."""
    zero = frozenset({(0,) * a.dim})
    found, todo = {zero: []}, [zero]
    while todo:
        ideal = todo.pop()
        for x in _complement_points(ideal, a.dim, a.field.p):
            space, basis = _grow(a, ideal, found[ideal], x)
            if space not in found:
                found[space] = basis
                todo.append(space)
    return found


def _unstable_elements(a):
    """The elements a + I central in some A/I but outside Z(A) + I, and the
    number of ideals."""
    p, units = a.field.p, _units(a.dim)
    comms = {}
    for x in _whole(a.dim, p):
        comms[x] = [tuple((s - t) % p for s, t in zip(_mul(a, x, e), _mul(a, e, x)))
                    for e in units]
    zero = (0,) * a.dim
    center = [x for x, cs in comms.items() if all(c == zero for c in cs)]
    ideals = _ideals(a)
    unstable = set()
    for ideal in ideals:
        z_plus_i = ideal
        for z in center:
            z_plus_i = _extend(z_plus_i, z, p)
        unstable.update(x for x, cs in comms.items()
                        if x not in z_plus_i and all(c in ideal for c in cs))
    return unstable, len(ideals)


# (name, params, p, number of ideals); p > dim, which the engine needs for
# the radical, with the last two at p = dim + 1
ROSTER = [
    ("upper_triangular", {"n": 2}, 5, 5),
    ("strict_upper", {"n": 3}, 7, 11),
    ("truncated_poly", {"k": 3}, 5, 4),
    ("truncated_poly", {"k": 4}, 7, 5),
    ("scalar_plus_strict_upper", {"n": 3}, 7, 12),
    ("truncated_poly", {"k": 4}, 5, 5),
    ("scalar_plus_strict_upper", {"n": 3}, 5, 10),
]


@pytest.mark.parametrize("name, params, p, n_ideals", ROSTER)
def test_verdicts_match_the_definition_over_every_quotient(name, params, p, n_ideals):
    a = build(name, field=prime_field(p), **params).algebra
    unstable, count = _unstable_elements(a)
    assert count == n_ideals
    assert algebra_centrally_stable(a).is_stable == (not unstable)
    if a.dim <= 3:
        for x in product(range(p), repeat=a.dim):
            verdict = element_centrally_stable(a.element(x)).verdict
            assert (verdict == STABLE) == (x not in unstable), x
