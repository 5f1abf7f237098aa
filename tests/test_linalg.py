import random
from fractions import Fraction
from math import lcm

import pytest

from censtab.algebras import build_algebra, center, ideal_generated, quotient
from censtab.catalog import build
from censtab.errors import DimensionMismatch
from censtab.linalg import (
    _int_entries,
    _make_reducer,
    express_in_span,
    kernel_of_rows,
    span,
    subspace_intersect,
    subspace_sum,
)
from censtab.radical import _trace_form_rows, radical
from censtab.scalars import RATIONALS, prime_field
from oracle import full_space

Q = RATIONALS
F = Fraction


def test_span_examples():
    s = span(Q, [(1, 0, 0), (1, 1, 0)], 3)
    assert s.dim == 2
    assert s.rows == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))
    assert span(Q, [], 3).dim == 0
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
                while not c:
                    c = field.random_scalar(rng)
                scaled.append([field.mul(c, x) for x in v])
            assert span(field, scaled, n) == s
            for v in vecs:
                assert s.contains(v)


def test_member_examples():
    s = span(Q, [(1, 2)], 2)
    assert express_in_span(Q, s.rows, (3, 6), 2) == [F(3)]
    assert express_in_span(Q, s.rows, (1, 0), 2) is None
    assert not s.contains((1, 0))
    z = span(Q, [], 3)
    assert z.contains((0, 0, 0))
    assert express_in_span(Q, z.rows, (0, 0, 0), 3) == []


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
    assert subspace_sum(s, span(Q, [], 3)) == s
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
        # scale every entry by the lcm of the denominators
        m = lcm(*[F(x).denominator for x in v])
        return [int(x * m) for x in v]

    def dense(v):
        # the conversion reading every entry, zeros included
        m = lcm(*[x.denominator for x in v])
        return [x.numerator * (m // x.denominator) for x in v]

    rng = random.Random(53)
    big = (10**9 + 7, 10**9 + 9, 2**61 - 1)
    dens = (1, 2, 3, 7, 12) + big
    entries = (
        lambda: 0,
        lambda: F(0),
        lambda: rng.randint(-9, 9),
        lambda: F(rng.randint(-10**6, 10**6), rng.choice(dens)),
    )
    cases = [[], [0, 0, 0], [F(0)] * 5, [F(0), 0], [3, -4], [F(-1, 2), 5, F(2, 3)],
             [F(1, big[0]), F(-1, big[1])], [F(0), F(1, big[2]), 0, -7]]
    for _ in range(200):
        n = rng.randint(1, 6)
        cases.append([rng.choice(entries[2:])() for _ in range(n)])
    for _ in range(300):
        # mostly zero rows, like those the engine feeds the reducer
        n = rng.randint(1, 12)
        weights = [rng.random() for _ in entries]
        cases.append([rng.choices(entries, weights)[0]() for _ in range(n)])
    for v in cases:
        want = reference(v)
        assert want == dense(v), v
        got = _int_entries(v)  # the nonzero entries only, as a dict
        assert got == {i: x for i, x in enumerate(want) if x}, v
        assert all(type(x) is int for x in got.values())


def _all_fractions(rows):
    return all(type(x) is Fraction for r in rows for x in r)


def test_outputs_over_q_hold_fractions_only():
    # reducer inputs may carry int zeros; none may leak into what comes out
    roster = [
        build("upper_triangular", n=3),
        build("strict_upper", n=3),
        build("matrix_full", n=2),
        build("truncated_poly", k=3),
        build("ema"),
        build("scalar_plus_strict_upper", n=3),
    ]
    for entry in roster:
        a = entry.algebra
        rebuilt = build_algebra(Q, a.dim, a.table)
        assert rebuilt.unity is None or _all_fractions([rebuilt.unity])
        z, rad = center(a), radical(a)
        assert _all_fractions(z.rows) and _all_fractions(rad.rows)
        gram = kernel_of_rows(Q, _trace_form_rows(a), a.dim)
        assert _all_fractions(gram.rows)
        assert _all_fractions(subspace_intersect(z, rad).rows)
        assert _all_fractions(subspace_intersect(rad, full_space(Q, a.dim)).rows)
        assert _all_fractions(kernel_of_rows(Q, [[0] * a.dim], a.dim).rows)
        if rad.dim:
            coeffs = express_in_span(Q, rad.rows, rad.rows[-1], a.dim)
            assert _all_fractions([coeffs])


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


def _dense_residual(field, s, v):
    """v - sum_p v_p * row_p over the canonical rows of s, entry by entry."""
    out = [field.coerce(x) for x in v]
    for p, row in zip(s.pivots, s.rows):
        c = out[p]
        out = [field.sub(x, field.mul(c, y)) for x, y in zip(out, row)]
    return out


def _test_vectors(field, s, rng):
    """Dense, sparse and int vectors, and some that meet no pivot of s."""
    n = s.ambient_dim
    free = [c for c in range(n) if c not in s.pivots]
    vecs = [[field.zero] * n, [0] * n]
    for _ in range(6):
        vecs.append([field.random_scalar(rng) if rng.random() < 0.6 else field.zero for _ in range(n)])
        vecs.append([rng.randint(-3, 3) for _ in range(n)])
        vecs.append([field.random_scalar(rng) if c in free else field.zero for c in range(n)])
    return vecs


def _assert_canonical(field, got):
    if field.p is None:
        assert all(type(x) is Fraction for x in got)
    # vector_to_json writes "0" only for the shared zero object
    assert all(x is field.zero for x in got if not x)


@pytest.mark.parametrize("field", [Q, prime_field(101)], ids=str)
def test_reduce_matches_a_dense_residual(field):
    rng = random.Random(f"reduce:{field}")
    for trial in range(60):
        n = rng.randint(1, 7)
        if trial % 10 == 0:
            s = span(field, [], n)
        elif trial % 10 == 1:
            s = full_space(field, n)
        else:
            vecs = [
                [field.random_scalar(rng) if rng.random() < 0.5 else field.zero for _ in range(n)]
                for _ in range(rng.randint(1, n))
            ]
            s = span(field, vecs, n)
        for v in _test_vectors(field, s, rng):
            got = s.reduce(v)
            assert got == _dense_residual(field, s, v)
            _assert_canonical(field, got)


@pytest.mark.parametrize("field", [Q, prime_field(101)], ids=str)
def test_project_vec_matches_a_dense_residual(field):
    rng = random.Random(f"project:{field}")
    for name, params in (("upper_triangular", {"n": 3}), ("r11_radical", {"n": 2, "k": 3}),
                         ("matrix_full", {"n": 2})):
        a = build(name, field=field, **params).algebra
        ideals = [span(field, [], a.dim), full_space(field, a.dim)]
        for _ in range(4):
            gens = [a.element([field.random_scalar(rng) if rng.random() < 0.3 else field.zero
                               for _ in range(a.dim)])]
            ideals.append(ideal_generated(a, gens))
        for ideal in ideals:
            qm = quotient(a, ideal)
            _assert_canonical(field, [c for pairs in qm.target.table.values() for _, c in pairs])
            for v in _test_vectors(field, ideal, rng):
                got = qm.project_vec(v)
                want = _dense_residual(field, ideal, v)
                assert got == tuple(want[c] for c in qm.free_cols)
                _assert_canonical(field, got)


def test_a_wrapped_reducer_takes_no_inserts():
    red = _make_reducer(Q, 3)
    red.insert((1, 2, 0))
    s = span(Q, [(1, 2, 0)], 3)
    with pytest.raises(AttributeError):
        s.reducer.insert((0, 0, 1))
    assert s.reducer.rows == red.rows and s.reducer.pivots == (0,)
    assert s.rows == ((F(1), F(2), F(0)),) and s.contains((2, 4, 0))



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
            as_dict = {i: x for i, x in enumerate(target) if x}
            assert express_in_span(field, gens, as_dict, n) == found
    assert express_in_span(Q, [(1, 0)], (0, 1), 2) is None
    assert express_in_span(Q, [(1, 0)], {1: 1}, 2) is None
    with pytest.raises(DimensionMismatch):
        express_in_span(Q, [(1, 0)], (1,), 2)

