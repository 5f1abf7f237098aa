import random
from fractions import Fraction
from math import lcm

import pytest

from censtab.errors import DimensionMismatch
from censtab.linalg import (
    _RationalReducer,
    express_in_span,
    full_subspace,
    kernel_of_rows,
    solve_linear,
    span,
    subspace_intersect,
    subspace_sum,
    zero_subspace,
)
from censtab.scalars import RATIONALS, prime_field

Q = RATIONALS
F = Fraction


def test_span_examples():
    s = span(Q, [(1, 0, 0), (1, 1, 0)], 3)
    assert s.dim == 2
    assert s.rows == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))
    assert span(Q, [], 3).is_zero
    assert span(Q, [(2, 4)], 2).rows == ((F(1), F(2)),)


def test_span_canonical_under_permutation_and_rescaling():
    rng = random.Random(17)
    for field in (Q, prime_field(13)):
        for _ in range(40):
            n = rng.randint(1, 6)
            vecs = [
                [field.random_scalar(rng) for _ in range(n)]
                for _ in range(rng.randint(0, 5))
            ]
            s = span(field, vecs, n)
            shuffled = vecs[:]
            rng.shuffle(shuffled)
            scaled = []
            for v in shuffled:
                c = field.zero
                while field.is_zero(c):
                    c = field.random_scalar(rng)
                scaled.append([field.mul(c, x) for x in v])
            assert span(field, scaled, n) == s
            for v in vecs:
                assert s.contains(v)


def test_member_examples():
    s = span(Q, [(1, 2)], 2)
    assert s.coordinates((3, 6)) == (F(3),)
    assert s.coordinates((1, 0)) is None
    assert not s.contains((1, 0))
    z = zero_subspace(Q, 3)
    assert z.contains((0, 0, 0))
    assert z.coordinates((0, 0, 0)) == ()


def test_member_dimension_mismatch():
    s = span(Q, [(1, 2)], 2)
    with pytest.raises(DimensionMismatch):
        s.contains((1, 2, 3))
    with pytest.raises(DimensionMismatch):
        span(Q, [(1, 2, 3)], 2)


def test_sum_intersect_kernel_examples():
    xy = span(Q, [(1, 0, 0), (0, 1, 0)], 3)
    yz = span(Q, [(0, 1, 0), (0, 0, 1)], 3)
    y_axis = span(Q, [(0, 1, 0)], 3)
    assert subspace_intersect(xy, yz) == y_axis
    s = span(Q, [(1, 2, 0)], 3)
    assert subspace_sum(s, zero_subspace(Q, 3)) == s
    k = kernel_of_rows(Q, [[1, 1]], 2)
    assert k == span(Q, [(1, -1)], 2)


def test_dimension_formula_random_pairs():
    rng = random.Random(23)
    for field in (Q, prime_field(7)):
        for _ in range(60):
            n = rng.randint(1, 7)
            mk = lambda: span(
                field,
                [
                    [field.random_scalar(rng) for _ in range(n)]
                    for _ in range(rng.randint(0, n))
                ],
                n,
            )
            s, t = mk(), mk()
            total = subspace_sum(s, t)
            inter = subspace_intersect(s, t)
            assert total.dim + inter.dim == s.dim + t.dim
            for v in inter.rows:
                assert s.contains(v) and t.contains(v)
            for v in s.rows:
                assert total.contains(v)


def test_kernel_matches_definition():
    rng = random.Random(31)
    for field in (Q, prime_field(11)):
        for _ in range(40):
            rows = rng.randint(0, 5)
            cols = rng.randint(1, 6)
            m = [[field.random_scalar(rng) for _ in range(cols)] for _ in range(rows)]
            k = kernel_of_rows(field, m, cols)
            for v in k.rows:
                assert all(x == field.zero for x in m_mul(field, m, v))
            # rank-nullity
            assert k.dim == cols - span(field, m, cols).dim


def m_mul(f, m, v):
    out = []
    for row in m:
        acc = f.zero
        for x, y in zip(row, v):
            acc = f.add(acc, f.mul(x, y))
        out.append(acc)
    return out


def test_to_int_row_matches_fraction_scaling():
    def reference(v):
        # the old formula: scale every entry by the lcm of the denominators
        m = lcm(*[F(x).denominator for x in v])
        return [int(x * m) for x in v]

    rng = random.Random(53)
    big = (10**9 + 7, 10**9 + 9, 2**61 - 1)
    cases = [[], [0, 0, 0], [F(0), 0], [3, -4], [F(-1, 2), 5, F(2, 3)], [F(1, big[0]), F(-1, big[1])]]
    for _ in range(200):
        n = rng.randint(1, 6)
        dens = (1, 2, 3, 7, 12) + big
        cases.append([
            rng.choice([rng.randint(-9, 9), F(rng.randint(-10**6, 10**6), rng.choice(dens))])
            for _ in range(n)
        ])
    for v in cases:
        got = _RationalReducer._to_int_row(v)
        assert got == reference(v), v
        assert all(type(x) is int for x in got)


def test_pivot_zero_test_matches_intersection_with_first_coordinate_zero():
    # radical() rejects a kernel with pivot 0; that is exactly the kernel not
    # lying in span(e_1..e_n), the copy of A inside its unitization
    rng = random.Random(59)
    for field in (Q, prime_field(13)):
        for _ in range(80):
            n = rng.randint(1, 5)
            e = [[field.one if i == j else field.zero for j in range(n + 1)] for i in range(1, n + 1)]
            tail = span(field, e, n + 1)
            vecs = [
                [field.random_scalar(rng) if rng.random() < 0.7 else field.zero for _ in range(n + 1)]
                for _ in range(rng.randint(0, n + 1))
            ]
            if rng.random() < 0.4:
                for v in vecs:
                    v[0] = field.zero
            s = span(field, vecs, n + 1)
            escapes = subspace_intersect(s, tail).dim != s.dim
            assert (s.pivots[:1] == (0,)) == escapes


def test_full_subspace_and_ordering():
    full = full_subspace(Q, 4)
    assert full.dim == 4
    part = span(Q, [(1, 1, 0, 0)], 4)
    assert part <= full
    assert not full <= part


def test_express_in_span():
    rng = random.Random(41)
    for field in (Q, prime_field(13)):
        for _ in range(50):
            n = rng.randint(1, 6)
            gens = [
                [field.random_scalar(rng) for _ in range(n)]
                for _ in range(rng.randint(1, 4))
            ]
            coeffs = [field.random_scalar(rng) for _ in gens]
            target = [field.zero] * n
            for c, g in zip(coeffs, gens):
                for i in range(n):
                    target[i] = field.add(target[i], field.mul(c, g[i]))
            found = express_in_span(field, gens, target, n)
            assert found is not None
            rebuilt = [field.zero] * n
            for c, g in zip(found, gens):
                for i in range(n):
                    rebuilt[i] = field.add(rebuilt[i], field.mul(field.coerce(c), g[i]))
            assert rebuilt == target
    assert express_in_span(Q, [(1, 0)], (0, 1), 2) is None


def test_solve_linear():
    # x + y = 3, x - y = 1  ->  x = 2, y = 1
    sol = solve_linear(Q, [(1, 1), (1, -1)], (3, 1))
    assert sol == (F(2), F(1))
    assert solve_linear(Q, [(1, 1), (1, 1)], (0, 1)) is None
    sol = solve_linear(prime_field(7), [(2, 0), (0, 3)], (1, 1))
    assert sol == (4, 5)
    # underdetermined: a particular solution is returned
    sol = solve_linear(Q, [(1, 1, 0)], (5,))
    assert sol is not None
    assert sol[0] + sol[1] == F(5)
