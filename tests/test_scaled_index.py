"""Algebras whose tables have denominators, and the center memo.

Catalog tables have integral constants, so their int index has scale 1.
Here each catalog algebra is presented in a rescaled, permuted basis
f_i = d_i e_perm(i), with d_i = +-a/b, which gives the table denominators.
Every output is compared with the catalog algebra mapped through that
change of basis, and every report with the one for the same table scaled
to integers (f_i -> N f_i), which is built with scale 1.
"""

import random
from dataclasses import fields
from fractions import Fraction

import pytest

import censtab.algebras as algebras_module
from censtab.algebras import (
    _cell_algebra,
    build_algebra,
    center,
    direct_product,
    ideal_generated,
    opposite,
    quotient,
    tensor_product,
    unitization,
)
from censtab.catalog import build
from censtab.errors import NotAssociative
from censtab.fileformat import algebra_from_json, algebra_to_json, report_to_json, verify_report_json
from censtab.linalg import span, subspace_intersect
from censtab.radical import radical
from censtab.scalars import RATIONALS as Q, prime_field
from censtab.stability import (
    algebra_centrally_stable,
    element_centrally_stable,
    random_element,
)
from oracle import (
    carried,
    count,
    dense_basis,
    dense_product,
    inverse,
    monomial,
    presented,
    reloaded,
    replays,
    table_cell_algebra,
    table_direct_product,
    table_opposite,
    table_quotient,
    table_tensor_product,
    table_unitization,
)

CASES = [
    ("matrix_full", {"n": 2}),
    ("upper_triangular", {"n": 3}),
    ("scalar_plus_strict_upper", {"n": 3}),
    ("strict_upper", {"n": 3}),
    ("truncated_poly", {"k": 4}),
    ("matrix_over_commutative", {"n": 2, "k": 2}),
    ("r11_radical", {"n": 2, "k": 3}),
    ("ema", {}),
    ("exg", {}),
]

# primes near 10^20, so that the lcm of a few denominators exceeds 2^64
BIG_PRIMES = (
    100000000000000000039,
    100000000000000000129,
    100000000000000000151,
    100000000000000000193,
    100000000000000000211,
)


def _small_scales(rng, n):
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]


def _big_scales(rng, n):
    return [Fraction(rng.randint(1, 9), rng.choice(BIG_PRIMES)) for _ in range(n)]


def _presentations(scales, seed):
    """Each case a, in the basis f_i = d_i e_perm(i) drawn from seed: (entry,
    a, b, p) with b the presented algebra and p its matrix."""
    rng = random.Random(seed)
    for name, params in CASES:
        entry = build(name, **params)
        a = entry.algebra
        perm = rng.sample(range(a.dim), a.dim)
        p = monomial(scales(rng, a.dim), perm)
        yield entry, a, presented(a, p), p


def _integral_reference(b):
    """b's table times its scale N, built with scale 1 (the basis N f_i)."""
    n = b._scale
    ref = build_algebra(Q, b.dim, {key: [(k, c * n) for k, c in pairs] for key, pairs in b.table.items()})
    assert ref._scale == 1
    return ref


def _fractions_only(vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


def _certificate_vectors(cert):
    """Every coordinate vector a certificate holds."""
    for f in fields(cert):
        val = getattr(cert, f.name)
        if f.name.endswith("_rows"):
            yield from val
        elif isinstance(val, tuple):
            yield val


def _sparse_dict(a, rng):
    """A few coordinates of a as a dict, some of them explicit int or Fraction zeros."""
    p = a.field.p
    v = {}
    for j in rng.sample(range(a.dim), rng.randint(0, min(a.dim, 5))):
        if rng.random() < 0.3:
            v[j] = rng.choice((0, Fraction(0)))
        elif p is None:
            x = rng.choice((rng.randint(1, 9), Fraction(rng.randint(1, 9), rng.randint(2, 9))))
            v[j] = x * rng.choice((-1, 1))
        else:
            v[j] = rng.randrange(1, p)
    return v


def _nonzero(items, p):
    items = ((k, x if p is None else x % p) for k, x in items)
    return {k: x for k, x in items if x}


def _check_basis_products(a, rng):
    """e_i v and v e_i from the index are N times the dense products with a
    basis vector, zeros dropped (mod p over GF(p)), and None exactly when
    that product is zero."""
    p = a.field.p
    for _ in range(6):
        v = _sparse_dict(a, rng)
        dense_v = [v.get(j, 0) for j in range(a.dim)]
        for i in range(a.dim):
            e = a.basis_element(i).coords
            for got, want in (
                (a._basis_mul_vec(i, v), dense_product(a, e, dense_v)),
                (a._vec_mul_basis(v, i), dense_product(a, dense_v, e)),
            ):
                want = _nonzero(enumerate(a._scale * x for x in want), p)
                assert (got is None) == (not want)
                assert _nonzero((got or {}).items(), p) == want


def _index_product(a, x, y):
    """x * y over Q from the int index: sum_i x_i e_i y, divided by N."""
    yd, acc = dict(enumerate(y)), {}
    for i, xi in enumerate(x):
        if xi:
            for k, c in (a._basis_mul_vec(i, yd) or {}).items():
                acc[k] = acc.get(k, 0) + xi * c
    return tuple(Fraction(acc.get(k, 0), a._scale) for k in range(a.dim))


@pytest.mark.parametrize("scales", [_small_scales, _big_scales])
def test_index_products_match_a_dense_product_over_the_table(scales):
    rng = random.Random(5)
    scaled = 0
    for _, a, b, p in _presentations(scales, 3):
        scaled += b._scale > 1
        for _ in range(4):
            x, y = random_element(b, rng).coords, random_element(b, rng).coords
            got = _index_product(b, x, y)
            assert got == dense_product(b, x, y)
            assert carried(Q, [got], p) == [_index_product(a, *carried(Q, [x, y], p))]
        _check_basis_products(b, rng)
    assert scaled >= len(CASES) - 1
    # e_i v and v e_i differ in these, so reading one index entry for the other fails
    gf = prime_field(101)
    for name, params in (("upper_triangular", {"n": 3}), ("matrix_over_commutative", {"n": 2, "k": 2})):
        _check_basis_products(build(name, field=gf, **params).algebra, rng)


def test_large_coprime_denominators_give_a_scale_above_two_to_the_64():
    for _, _, b, _ in _presentations(_big_scales, 7):
        assert b._scale > 2**64


@pytest.mark.parametrize("scales", [_small_scales, _big_scales])
def test_rescaled_outputs_match_the_catalog_algebra(scales):
    rng = random.Random(11)
    for entry, a, b, p in _presentations(scales, 13):
        inv = inverse(Q, p)  # carries e-coordinates to the f_i
        if a.unity is None:
            assert b.unity is None
        else:
            assert carried(Q, [b.unity], p) == [a.unity]
            assert _fractions_only([b.unity])
        z, rad = center(b), radical(b)
        assert span(Q, carried(Q, z.rows, p), a.dim) == center(a)
        assert span(Q, carried(Q, rad.rows, p), a.dim) == radical(a)
        assert (z.dim, rad.dim) == (entry.expected.center_dim, entry.expected.radical_dim)
        x = random_element(a, rng).coords
        ideal = ideal_generated(b, carried(Q, [x], inv))
        assert span(Q, carried(Q, ideal.rows, p), a.dim) == ideal_generated(a, [x])
        assert _fractions_only(z.rows + rad.rows + ideal.rows)
        assert algebra_centrally_stable(b).verdict == entry.expected.verdict
        for _ in range(3):
            x = random_element(a, rng).coords
            want = element_centrally_stable(a.element(x)).verdict
            assert element_centrally_stable(b.element(carried(Q, [x], inv)[0])).verdict == want


@pytest.mark.parametrize("scales", [_small_scales, _big_scales])
def test_rescaled_reports_match_the_integral_reference_and_replay(scales):
    rng = random.Random(17)
    for _, _, b, _ in _presentations(scales, 19):
        ref = _integral_reference(b)
        reload = algebra_from_json(algebra_to_json(b))
        reports = [(algebra_centrally_stable(b), algebra_centrally_stable(ref), "stable")]
        for _ in range(3):
            x = random_element(b, rng).coords
            reports.append(
                (element_centrally_stable(b.element(x)), element_centrally_stable(ref.element(x)), "element")
            )
        for got, want, command in reports:
            # ref's basis N f_i is a uniform rescaling, which leaves every
            # canonical row alone, and both read the same int index, so even
            # the element vectors of the certificates agree entry by entry
            assert (got.verdict, got.method, got.certificate) == (want.verdict, want.method, want.certificate)
            assert _fractions_only(_certificate_vectors(got.certificate))
            assert verify_report_json(reload, report_to_json(b, got, command=command))


def test_reports_with_literals_longer_than_the_table_ones_replay():
    # exg in a dense basis, then rescaled by 20-digit fractions: table
    # literals of about 130 characters give certificate literals of over
    # 2000, and the reader must take what the writer writes
    rng = random.Random(31)
    a, _ = dense_basis(build("exg").algebra, random.Random(5))
    d = [Fraction(rng.randrange(10**19, 10**20), rng.randrange(10**19, 10**20)) for _ in range(a.dim)]
    b = presented(a, monomial(d, range(a.dim)))
    reload = reloaded(b)
    reports = [algebra_centrally_stable(b)] + [element_centrally_stable(random_element(b, rng)) for _ in range(3)]
    vectors = [v for rep in reports for v in _certificate_vectors(rep.certificate)]
    assert max(len(b.field.format(x)) for v in vectors for x in v) > 2000
    for rep in reports:
        assert replays(b, rep, reload, command="x")


def test_rescaled_non_associative_table_reports_the_same_triple():
    rng = random.Random(23)
    seen = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        table = {}
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.5:
                    table[(i, j)] = [(rng.randrange(n), rng.randint(-2, 2))]
        try:
            build_algebra(Q, n, table)
            continue
        except NotAssociative as exc:
            want = exc.witness
        # a diagonal rescaling multiplies both sides of each triple by
        # d_i d_j d_k, so the same triples fail
        d = _small_scales(rng, n)
        scaled = {
            (i, j): [(k, d[i] * d[j] * Fraction(c) / d[k]) for k, c in pairs] for (i, j), pairs in table.items()
        }
        with pytest.raises(NotAssociative) as info:
            build_algebra(Q, n, scaled)
        assert info.value.witness == want
        seen += 1
    assert seen >= 20


def test_center_is_computed_once_per_algebra(monkeypatch):
    rng = random.Random(29)
    d = _small_scales(rng, 6)
    a = presented(build("upper_triangular", n=3).algebra, monomial(d, rng.sample(range(6), 6)))
    calls = count(monkeypatch, {"kernels": 0}, [algebras_module], "kernel_of_rows", kernels=1)
    queries = [a.basis_element(i) for i in range(4)] + [random_element(a, rng) for _ in range(4)]
    reports = [element_centrally_stable(x) for x in queries]
    assert calls == {"kernels": 1}
    assert center(a) is center(a)
    assert calls == {"kernels": 1}
    # an independent reload computes its own center, so replay on it never
    # reuses the one the decision read
    reload = algebra_from_json(algebra_to_json(a))
    for x, rep in zip(queries, reports):
        assert verify_report_json(reload, report_to_json(a, rep, command="element"))
    assert calls == {"kernels": 2}
    assert center(reload) is not center(a)
    assert center(reload) == center(a)


def _unity_failure_reference(a, u, indices):
    """The first i of indices with u e_i != e_i or e_i u != e_i, from exact
    products over the table."""
    for i in indices:
        e = a.basis_element(i).coords
        if not dense_product(a, u, e) == e == dense_product(a, e, u):
            return i
    return None


@pytest.mark.parametrize("scales", [_small_scales, _big_scales])
def test_unity_check_on_the_int_index_finds_the_same_first_failure(scales):
    rng = random.Random(37)
    seen = set()
    for _, _, b, _ in _presentations(scales, 41):
        candidates = [random_element(b, rng).coords, (Q.zero,) * b.dim]
        if b.unity is not None:
            u = list(b.unity)
            candidates.append(tuple(u))
            for _ in range(3):
                # the unity with one coordinate moved: fails at some basis vector
                k = rng.randrange(b.dim)
                candidates.append(tuple(x + (Fraction(1, 3) if i == k else 0) for i, x in enumerate(u)))
        for u in candidates:
            # the engine checks the generators e_g only, which is exact on an
            # associative table: it fails exactly when some basis vector does
            want = _unity_failure_reference(b, u, algebras_module._generators(b))
            assert algebras_module._unity_failure(b, u) == want
            assert (want is None) == (_unity_failure_reference(b, u, range(b.dim)) is None)
            seen.add(want is None)
    assert seen == {True, False}


def _same_algebra(got, ref):
    """The same N, rows with the same j order, shared tuples, table, labels
    and unity."""
    assert got._scale == ref._scale
    assert [list(row.items()) for row in got._rows] == [list(row.items()) for row in ref._rows]
    shared = {id(e) for row in got._rows for e in row.values()}
    assert len(shared) == len({e for row in got._rows for e in row.values()})
    assert got.table == ref.table
    assert got.labels == ref.labels and got.unity == ref.unity


@pytest.mark.parametrize("scales", [_small_scales, _big_scales])
def test_tensor_index_is_the_index_of_its_table(scales):
    # every construction, a map over the entries of its operands' indexes,
    # builds the algebra the table route of tests/oracle.py builds; for the
    # tensor product that is N = the lcm of the product denominators, not N_A N_B
    rng = random.Random(17)
    gf = prime_field(101)
    algebras = [b for _, _, b, _ in _presentations(scales, 19)]
    algebras += [dense_basis(build(name, field=gf, **params).algebra, rng)[0]
                 for name, params in (("upper_triangular", {"n": 2}), ("strict_upper", {"n": 3}),
                                      ("truncated_poly", {"k": 4}))]
    algebras.append(build("r11_radical", n=2, k=3, field=gf).algebra)
    pairs = [(a, b) for a, b in zip(algebras, algebras[1:]) if a.field == b.field]
    pairs += [(b, b) for b in algebras[:3]]
    pairs += [(algebras[-1], build("matrix_full", n=2, field=gf).algebra)]
    pairs += [(b, build("matrix_full", n=2).algebra) for b in rng.sample(algebras[:len(CASES)], 3)]
    seen = {"tensor_reduced": 0, "scales_differ": 0, "non_unital": 0, "quotients": 0}
    for a, b in pairs:
        _same_algebra(direct_product(a, b), table_direct_product(a, b))
        seen["scales_differ"] += a._scale != b._scale
        if a.dim * b.dim <= 120:
            t = tensor_product(a, b)
            _same_algebra(t, table_tensor_product(a, b))
            seen["tensor_reduced"] += t._scale < a._scale * b._scale
    for a in algebras:
        _same_algebra(opposite(a), table_opposite(a))
        _same_algebra(unitization(a), table_unitization(a))
        seen["non_unital"] += a.unity is None
        rad = radical(a)
        j = ideal_generated(a, [a.element(r) for r in subspace_intersect(center(a), rad).rows])
        for ideal in (rad, j):
            _same_algebra(quotient(a, ideal).target, table_quotient(a, ideal))
            seen["quotients"] += 0 < ideal.dim < a.dim
    for field in (Q, gf):
        for n in range(1, 5):
            for strict in (False, True):
                cells = [(p, q) for p in range(n) for q in range(p + strict, n)]
                _same_algebra(_cell_algebra(field, n, cells), table_cell_algebra(field, n, cells))
    assert min(seen.values()) >= 2, seen  # each kind of case is exercised
