import importlib
import random
from fractions import Fraction

import pytest

from censtab.algebras import (
    Algebra,
    _commutator_rows,
    _generators,
    _int_entries,
    build_algebra,
    center,
    commutator_space,
    direct_product,
    ideal_generated,
    is_commutative,
    matrix_algebra,
    matrix_units_algebra,
    nilpotency_index,
    opposite,
    quotient,
    tensor_product,
    unitization,
)
from censtab.catalog import build, standard_entries
from censtab.errors import (
    AlgebraMismatch,
    IndexOutOfRange,
    NotAnIdeal,
    NotAssociative,
)
from censtab.fileformat import algebra_from_json, field_to_json
from censtab.linalg import span, subspace_sum
from censtab.scalars import RATIONALS as Q, prime_field

from oracle import (
    alg_from_family,
    commutator_m,
    count,
    dense_basis,
    dense_commutator,
    dense_product,
    full_family,
    mat_mul,
    presentation,
    revalidate,
    scalar_plus_strict_family,
    strict_upper_family,
    truncated_poly,
    upper_family,
)

F = Fraction


def random_element(alg, rng):
    return alg.element([alg.field.random_scalar(rng) for _ in range(alg.dim)])


# -- construction and validation ---------------------------------------------


def test_build_matrix_units():
    m2 = alg_from_family(full_family(2))
    e11, e12, e21, e22 = (m2.basis_element(i).coords for i in range(4))
    assert dense_product(m2, e12, e21) == e11
    assert dense_product(m2, e21, e12) == e22
    assert m2.unity == (F(1), F(0), F(0), F(1))


def test_build_rejects_non_associative():
    # e1*e1 = e2, e1*e2 = e2, e2*anything = 0: (e1e1)e1 = 0 but e1(e1e1) = e2
    table = {(0, 0): ((1, 1),), (0, 1): ((1, 1),)}
    with pytest.raises(NotAssociative) as exc:
        build_algebra(Q, 2, table)
    assert exc.value.witness == (0, 0, 0)


def _dense_first_failing_triple(dim, table):
    """Reference: probe every basis triple in order, dense dict lookups."""
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                left, right = {}, {}
                for m, c in table.get((i, j), ()):
                    for q, d in table.get((m, k), ()):
                        left[q] = left.get(q, 0) + c * d
                for m, c in table.get((j, k), ()):
                    for q, d in table.get((i, m), ()):
                        right[q] = right.get(q, 0) + c * d
                if any(left.get(q, 0) != right.get(q, 0) for q in left.keys() | right.keys()):
                    return (i, j, k)
    return None


def test_sparse_associativity_check_matches_dense_reference():
    rng = random.Random(11)
    seen = set()
    for trial in range(300):
        dim = rng.randint(1, 4)
        table = {}
        for _ in range(rng.randint(0, 5)):
            i, j = rng.randrange(dim), rng.randrange(dim)
            table[(i, j)] = tuple(
                (k, F(rng.choice((-1, 1, 2)))) for k in sorted(rng.sample(range(dim), rng.randint(1, dim)))
            )
        expected = _dense_first_failing_triple(dim, table)
        seen.add(expected is None)
        if expected is None:
            revalidate(build_algebra(Q, dim, table))
        else:
            with pytest.raises(NotAssociative) as exc:
                build_algebra(Q, dim, table)
            assert exc.value.witness == expected, (trial, table)
    assert seen == {True, False}


def test_build_rejects_bad_indices():
    with pytest.raises(IndexOutOfRange):
        build_algebra(Q, 2, {(0, 5): ((0, 1),)})
    with pytest.raises(IndexOutOfRange):
        build_algebra(Q, 2, {(0, 0): ((3, 1),)})


def test_zero_dimensional_algebra():
    z = build_algebra(Q, 0, {})
    assert z.dim == 0
    assert z.unity is None
    assert center(z).dim == 0


def test_unity_detection():
    t3 = alg_from_family(upper_family(3))
    assert t3.unity is not None
    strict = alg_from_family(strict_upper_family(3))
    assert strict.unity is None
    # left-but-not-right unity: the row algebra span{e11, e12} in M_2
    table = {
        (0, 0): ((0, 1),),
        (0, 1): ((1, 1),),
    }
    row_alg = build_algebra(Q, 2, table)
    assert row_alg.unity is None
    # e_i e_j = e_j: every u with u_0 + u_1 = 1 is a left unity, but e_0 u = u
    # cannot be e_0 and e_1 at once; the opposite has right unities only
    table = {(i, j): ((j, 1),) for i in range(2) for j in range(2)}
    flipped = {(j, i): pairs for (i, j), pairs in table.items()}
    for field in (Q, prime_field(101)):
        assert build_algebra(field, 2, table).unity is None
        assert build_algebra(field, 2, flipped).unity is None


def _dense_two_sided_unity(a):
    """Solve u e_j = e_j and e_j u = e_j for all j by dense Gauss-Jordan."""
    f, n = a.field, a.dim
    if n == 0:
        return None
    c = [[[f.zero] * n for _ in range(n)] for _ in range(n)]
    for (i, j), pairs in a.table.items():
        for k, x in pairs:
            c[i][j][k] = x
    eqs = []
    for j in range(n):
        for k in range(n):
            rhs = f.one if j == k else f.zero
            eqs.append([c[i][j][k] for i in range(n)] + [rhs])
            eqs.append([c[j][i][k] for i in range(n)] + [rhs])
    row = 0
    pivots = []
    for col in range(n + 1):
        hit = next((r for r in range(row, len(eqs)) if eqs[r][col] != 0), None)
        if hit is None:
            continue
        if col == n:
            return None  # 0 = 1
        eqs[row], eqs[hit] = eqs[hit], eqs[row]
        inv = f.inv(eqs[row][col])
        eqs[row] = [f.mul(inv, x) for x in eqs[row]]
        for r in range(len(eqs)):
            if r != row and eqs[r][col] != 0:
                m = eqs[r][col]
                eqs[r] = [f.sub(x, f.mul(m, y)) for x, y in zip(eqs[r], eqs[row])]
        pivots.append(col)
        row += 1
    # a two-sided unity is unique, so a consistent system has no free column
    assert pivots == list(range(n))
    return tuple(eqs[r][n] for r in range(n))


def test_unity_matches_dense_two_sided_solve(monkeypatch):
    # the catalog tables pin every coordinate of the unity; their dense
    # presentations leave some to the residual solve
    algebras = importlib.import_module("censtab.algebras")
    solves = count(monkeypatch, {"solves": 0}, [algebras], "express_in_span", solves=1)
    rng = random.Random("unity-dense-two-sided")
    for field in (Q, prime_field(101)):
        for entry in standard_entries(field):
            a = entry.algebra
            rebuilt = build_algebra(field, a.dim, a.table)
            assert rebuilt.unity == _dense_two_sided_unity(a), entry.description
        assert solves == {"solves": 0}
        for entry in standard_entries(field):
            if entry.algebra.dim <= 9:
                b = dense_basis(entry.algebra, rng)[0]
                assert b.unity == _dense_two_sided_unity(b), entry.description
        assert solves["solves"] > 0
        solves["solves"] = 0


def test_unity_solve_uses_only_the_left_equations(monkeypatch):
    # the equations u e_g = e_g, g in the generating set, one per (g, k):
    # in M_4's catalog basis each has one unknown, so every coordinate is
    # pinned and nothing is solved; in a dense basis the coordinates left
    # over go to one express_in_span call over their columns, at most the
    # 16 unknowns, each flattened over (g, k) into 16 * 16 columns
    algebras = importlib.import_module("censtab.algebras")
    m4 = build("matrix_full", n=4).algebra
    counts = count(monkeypatch, {"solves": []}, [algebras], "express_in_span",
                   solves=lambda field, gens, target, width: [(len(gens), width)])
    rebuilt = build_algebra(Q, m4.dim, m4.table)
    assert rebuilt.unity == m4.unity
    assert len(_generators(m4)) == 7
    assert counts == {"solves": []}
    dense = dense_basis(m4, random.Random("unity-dense-m4"))[0]
    assert dense.unity == _dense_two_sided_unity(dense)
    assert len(counts["solves"]) <= 1
    assert all(gens <= 16 and width == 16 * 16 for gens, width in counts["solves"])


@pytest.mark.parametrize("field", [Q, prime_field(101)], ids=["Q", "GF101"])
def test_conflicting_unity_pins_leave_no_unity_and_solve_nothing(field, monkeypatch):
    # associative with A^2 = A; G = (0, 1), and u e_0 = e_0 pins u_0 = 1 at
    # (g, k) = (0, 0) while u e_1 = e_1 pins u_0 = 0 at (1, 2)
    doc = {"field": field_to_json(field), "dim": 3,
           "table": [[0, 0, [[0, "1"]]], [0, 1, [[2, "1"]]], [0, 2, [[2, "1"]]],
                     [1, 0, [[1, "1"]]], [2, 0, [[2, "1"]]]]}
    calls = count(monkeypatch, {"solves": 0}, [importlib.import_module("censtab.algebras")],
                  "express_in_span", solves=1)
    a = algebra_from_json(doc)
    assert _generators(a) == (0, 1)
    assert a.unity is None
    assert calls == {"solves": 0}


@pytest.mark.parametrize("field", [Q, prime_field(101)], ids=["Q", "GF101"])
def test_no_unity_solve_when_a_basis_vector_is_no_product(field, monkeypatch):
    # strict_upper: e12 is the target of no table entry, so it lies outside
    # A^2 != A and nothing is solved; a table that is only left-unital hits
    # every e_k, so it reaches the solve, whose solution e0 fails e1 e0 = e1
    n4 = build("strict_upper", n=4, field=field).algebra
    calls = count(monkeypatch, {"solves": 0}, [importlib.import_module("censtab.algebras")],
                  "express_in_span", solves=1)
    assert build_algebra(field, n4.dim, n4.table).unity is None
    assert calls == {"solves": 0}
    assert build_algebra(field, 2, {(0, 0): ((0, 1),), (0, 1): ((1, 1),)}).unity is None
    assert calls == {"solves": 1}


# -- products and commutators --------------------------------------------------


def test_multiply_matches_dense_oracle():
    rng = random.Random(2)
    for fam in (full_family(2), upper_family(3), scalar_plus_strict_family(3)):
        alg = alg_from_family(fam)
        for _ in range(25):
            x = random_element(alg, rng)
            y = random_element(alg, rng)
            expected = fam.mat_to_coords(
                mat_mul(fam.coords_to_mat(x.coords), fam.coords_to_mat(y.coords))
            )
            assert list(dense_product(alg, x.coords, y.coords)) == expected
            # N times x * y from the int index, as sum_i x_i e_i y and as sum_j x e_j y_j
            xd, yd = dict(enumerate(x.coords)), dict(enumerate(y.coords))
            left, right = {}, {}
            for i in range(alg.dim):
                for k, c in (alg._basis_mul_vec(i, yd) or {}).items():
                    left[k] = left.get(k, 0) + x.coords[i] * c
                for k, c in (alg._vec_mul_basis(xd, i) or {}).items():
                    right[k] = right.get(k, 0) + c * y.coords[i]
            want = {k: alg._scale * c for k, c in enumerate(dense_product(alg, x.coords, y.coords)) if c}
            assert {k: c for k, c in left.items() if c} == want == {k: c for k, c in right.items() if c}
            expected_c = fam.mat_to_coords(
                commutator_m(fam.coords_to_mat(x.coords), fam.coords_to_mat(y.coords))
            )
            assert list(dense_commutator(alg, x.coords, y.coords)) == expected_c
            assert not any(dense_commutator(alg, x.coords, x.coords))


def test_commutator_examples():
    m2 = alg_from_family(full_family(2))
    e11, e12 = m2.basis_element(0).coords, m2.basis_element(1).coords
    assert dense_commutator(m2, e11, e12) == e12
    t3 = alg_from_family(upper_family(3))
    # basis order: e11 e12 e13 e22 e23 e33
    e11_t = t3.basis_element(0).coords
    e23_t = t3.basis_element(4).coords
    assert not any(dense_commutator(t3, e11_t, e23_t))


def test_algebra_mismatch():
    a = alg_from_family(full_family(2))
    b = alg_from_family(full_family(2))
    with pytest.raises(AlgebraMismatch):
        ideal_generated(a, [b.basis_element(0)])


# -- center ---------------------------------------------------------------------


def test_center_matrix_full():
    m3 = alg_from_family(full_family(3))
    z = center(m3)
    assert z.dim == 1
    assert z.contains(m3.unity)


def test_center_scalar_plus_strict():
    for n in (3, 4):
        fam = scalar_plus_strict_family(n)
        alg = alg_from_family(fam)
        z = center(alg)
        assert z.dim == 2
        # spanned by the identity and the top-right cell e_1n
        z_expected = span(Q, [alg.unity, one_cell(fam, 0, n - 1)], alg.dim)
        assert z == z_expected


def one_cell(fam, p, q):
    from oracle import unit

    return fam.mat_to_coords(unit(fam.n, p, q))


def test_center_commutative_is_everything():
    c = truncated_poly(4)
    assert center(c).dim == 4


def test_center_elements_commute_with_random_products():
    rng = random.Random(9)
    t4 = alg_from_family(upper_family(4))
    z = center(t4)
    for row in z.rows:
        for _ in range(10):
            x = random_element(t4, rng)
            assert not any(dense_commutator(t4, row, x.coords))
        # and with every basis element, by the commutator rows of the int index
        assert not any(any(w.values()) for w in _commutator_rows(t4, _int_entries(row)))


# -- commutator space ------------------------------------------------------------


def test_commutator_space_central_element():
    m2 = alg_from_family(full_family(2))
    assert commutator_space(m2.one()).dim == 0


def test_commutator_space_derived_from_oracle():
    t3fam = upper_family(3)
    t3 = alg_from_family(t3fam)
    e11 = t3.basis_element(0)
    got = commutator_space(e11)
    # oracle: [e11, b] over the six dense basis matrices
    vecs = [
        t3fam.mat_to_coords(commutator_m(t3fam.basis[0], b)) for b in t3fam.basis
    ]
    assert got == span(Q, vecs, t3.dim)
    assert got == span(Q, [one_cell(t3fam, 0, 1), one_cell(t3fam, 0, 2)], 6)

    m2fam = full_family(2)
    m2 = alg_from_family(m2fam)
    e12 = m2.basis_element(1)
    got = commutator_space(e12)
    vecs = [
        m2fam.mat_to_coords(commutator_m(m2fam.basis[1], b)) for b in m2fam.basis
    ]
    assert got == span(Q, vecs, 4)
    assert got.dim == 2  # span{e11 - e22, e12}
    assert got.contains((1, 0, 0, -1))
    assert got.contains((0, 1, 0, 0))


# -- ideals ------------------------------------------------------------------------


def test_ideal_generated_simple_algebra():
    m2 = alg_from_family(full_family(2))
    ideal = ideal_generated(m2, [m2.basis_element(1)])
    assert ideal.dim == 4


def test_ideal_generated_strict_upper_corner():
    s3 = alg_from_family(strict_upper_family(3))
    # basis order: e12, e13, e23
    e13 = s3.basis_element(1)
    ideal = ideal_generated(s3, [e13])
    assert ideal == span(Q, [(0, 1, 0)], 3)


def test_ideal_generated_empty():
    m2 = alg_from_family(full_family(2))
    assert ideal_generated(m2, []).dim == 0


def test_ideal_monotone_idempotent():
    rng = random.Random(13)
    t3 = alg_from_family(upper_family(3))
    for _ in range(15):
        gens = [random_element(t3, rng) for _ in range(rng.randint(1, 2))]
        ideal = ideal_generated(t3, gens)
        for g in gens:
            assert ideal.contains(g.coords)
        again = ideal_generated(t3, [t3.element(r) for r in ideal.rows])
        assert again == ideal


# -- quotients -----------------------------------------------------------------------


def test_quotient_by_zero_is_identity():
    m2 = alg_from_family(full_family(2))
    qm = quotient(m2, span(Q, [], 4))
    assert presentation(qm.target) == presentation(m2)
    for i in range(4):
        assert qm.project_vec(m2.basis_element(i).coords) == m2.basis_element(i).coords


def test_quotient_t2_by_radical():
    t2 = alg_from_family(upper_family(2))  # basis e11, e12, e22
    rad = span(Q, [(0, 1, 0)], 3)
    qm = quotient(t2, rad)
    assert qm.target.dim == 2
    assert is_commutative(qm.target)
    assert qm.target.unity is not None
    # two orthogonal idempotents: the images of e11 and e22
    q = qm.target
    a, b = q.basis_element(0).coords, q.basis_element(1).coords
    assert dense_product(q, a, a) == a and dense_product(q, b, b) == b
    assert not any(dense_product(q, a, b))


def test_quotient_rejects_non_ideal():
    m2 = alg_from_family(full_family(2))
    with pytest.raises(NotAnIdeal):
        quotient(m2, span(Q, [(1, 0, 0, 0)], 4))  # span{e11}


def test_quotient_is_homomorphism():
    rng = random.Random(21)
    t3 = alg_from_family(upper_family(3))
    ideal = ideal_generated(t3, [random_element(t3, rng)])
    if ideal.dim == t3.dim:
        ideal = ideal_generated(t3, [t3.basis_element(1)])  # Id(e12)
    qm = quotient(t3, ideal)
    assert qm.target.dim == t3.dim - ideal.dim
    for i in range(t3.dim):
        for j in range(t3.dim):
            x, y = t3.basis_element(i).coords, t3.basis_element(j).coords
            px, py = qm.project_vec(x), qm.project_vec(y)
            assert qm.project_vec(dense_product(t3, x, y)) == dense_product(qm.target, px, py)
    revalidate(qm.target)


def test_derived_constructions_revalidate():
    a = alg_from_family(upper_family(3))
    b = truncated_poly(2)
    revalidate(direct_product(a, b))
    revalidate(tensor_product(a, b))
    revalidate(unitization(alg_from_family(strict_upper_family(3))))
    revalidate(opposite(a))
    rad = span(Q, [(0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)], 6)
    revalidate(quotient(a, rad).target)


# -- direct products --------------------------------------------------------------


def test_direct_product_of_fields():
    f1 = truncated_poly(1)
    alg = direct_product(f1, truncated_poly(1))
    assert alg.unity == (F(1), F(1))
    z = center(alg)
    for idem in (alg.basis_element(0).coords, alg.basis_element(1).coords):
        assert dense_product(alg, idem, idem) == idem
        assert z.contains(idem)


def test_direct_product_center_dims_add():
    m2 = alg_from_family(full_family(2))
    dual = truncated_poly(2)
    prod = direct_product(m2, dual)
    assert center(prod).dim == 1 + 2
    assert prod.unity is not None


def test_direct_product_with_zero_algebra():
    m2 = alg_from_family(full_family(2))
    z = build_algebra(Q, 0, {})
    prod = direct_product(m2, z)
    assert presentation(prod) == presentation(m2)


def test_every_construction_returns_an_algebra_that_composes():
    c, c2 = truncated_poly(2), alg_from_family(strict_upper_family(3))
    prod, uni = direct_product(c, c2), unitization(c2)
    assert isinstance(prod, Algebra) and isinstance(uni, Algebra)
    assert uni.unity == (Q.one,) + (Q.zero,) * c2.dim  # the unity is basis vector 0
    t = tensor_product(prod, matrix_units_algebra(Q, 2))
    assert t.dim == (c.dim + c2.dim) * 4
    revalidate(t)
    revalidate(tensor_product(uni, matrix_units_algebra(Q, 2)))


# -- tensor products -----------------------------------------------------------------


def test_tensor_m2_m2():
    m2 = alg_from_family(full_family(2))
    t = tensor_product(m2, m2)
    assert t.dim == 16
    assert t.unity is not None
    revalidate(t)
    assert center(t).dim == 1


def test_tensor_with_base_field_is_identity():
    t3 = alg_from_family(upper_family(3))
    f1 = truncated_poly(1)
    t = tensor_product(t3, f1)
    assert t.dim == t3.dim
    assert t.table == t3.table
    assert t.unity == t3.unity


def test_tensor_commutative():
    dual = truncated_poly(2)
    t = tensor_product(dual, dual)
    assert t.dim == 4
    assert is_commutative(t)
    revalidate(t)


def test_tensor_of_elements_multiplies_blockwise():
    rng = random.Random(33)
    a = alg_from_family(upper_family(2))
    b = alg_from_family(full_family(2))
    t = tensor_product(a, b)
    nb = b.dim
    for _ in range(10):
        xa, ya = random_element(a, rng), random_element(a, rng)
        xb, yb = random_element(b, rng), random_element(b, rng)
        tx = [Q.mul(xa.coords[i], xb.coords[p]) for i in range(a.dim) for p in range(nb)]
        ty = [Q.mul(ya.coords[i], yb.coords[p]) for i in range(a.dim) for p in range(nb)]
        prod_a, prod_b = dense_product(a, xa.coords, ya.coords), dense_product(b, xb.coords, yb.coords)
        expected = [Q.mul(prod_a[i], prod_b[p]) for i in range(a.dim) for p in range(nb)]
        assert list(dense_product(t, tx, ty)) == expected


def test_tensor_center_compatibility():
    # the span of z_a (x) z_b always sits inside the center; with a central
    # simple factor the dimensions agree
    pairs = [
        (alg_from_family(upper_family(3)), alg_from_family(upper_family(2))),
        (truncated_poly(2), alg_from_family(full_family(2))),
    ]
    for a, b in pairs:
        t = tensor_product(a, b)
        za, zb = center(a), center(b)
        zt = center(t)
        nb = b.dim
        for ra in za.rows:
            for rb in zb.rows:
                v = [Q.mul(ra[i], rb[p]) for i in range(a.dim) for p in range(nb)]
                assert zt.contains(v)
    for a in (alg_from_family(upper_family(3)), truncated_poly(3)):
        m2 = alg_from_family(full_family(2))
        assert center(tensor_product(a, m2)).dim == center(a).dim


# -- matrix algebras -----------------------------------------------------------------


def test_matrix_algebra_over_base_field():
    f1 = truncated_poly(1)
    assert presentation(matrix_algebra(f1, 3)) == presentation(matrix_units_algebra(Q, 3))


def test_matrix_algebra_over_dual_numbers():
    m = matrix_algebra(truncated_poly(2), 2)
    assert m.dim == 8
    assert m.unity is not None
    revalidate(m)


def test_matrix_algebra_over_nilpotent_is_non_unital():
    # C = span{x, x^2} inside F[x]/(x^3)
    table = {(0, 0): ((1, 1),)}
    c = build_algebra(Q, 2, table)
    assert c.unity is None
    m = matrix_algebra(c, 2)
    assert m.dim == 8
    assert m.unity is None
    revalidate(m)


# -- unitization -----------------------------------------------------------------------


def test_unitization_of_null_algebra_is_dual_numbers():
    null = build_algebra(Q, 1, {})  # x^2 = 0
    assert presentation(unitization(null)) == presentation(truncated_poly(2))


def test_unitization_center():
    s3 = alg_from_family(strict_upper_family(3))
    u = unitization(s3)
    zu = center(u)
    one_vec = [Q.one] + [Q.zero] * 3
    expected = subspace_sum(
        span(Q, [one_vec], 4),
        span(Q, [(Q.zero, *r) for r in center(s3).rows], 4),
    )
    assert zu == expected


def test_unitization_commutator_ideal_stays_inside():
    # Id([lambda 1 + a, A#]) lands inside the embedded copy of A
    rng = random.Random(55)
    t3 = alg_from_family(upper_family(3))
    ualg = unitization(t3)
    embedded = span(
        Q, [(Q.zero, *t3.basis_element(i).coords) for i in range(t3.dim)], ualg.dim
    )
    for _ in range(10):
        lam = Q.random_scalar(rng)
        a = random_element(t3, rng)
        x = ualg.element(
            tuple(
                Q.add(Q.mul(lam, o), e)
                for o, e in zip(ualg.unity, (Q.zero, *a.coords))
            )
        )
        comm = commutator_space(x)
        ideal = ideal_generated(ualg, [ualg.element(r) for r in comm.rows])
        for row in ideal.rows:
            assert embedded.contains(row)


def test_unitization_of_unital_algebra_still_grows():
    m2 = alg_from_family(full_family(2))
    u = unitization(m2)
    assert u.dim == 5
    assert u.unity is not None
    revalidate(u)


# -- opposite -----------------------------------------------------------------------


def test_opposite_commutative_unchanged():
    c = truncated_poly(3)
    assert opposite(c).table == c.table


def test_opposite_involution():
    t2 = alg_from_family(upper_family(2))
    assert presentation(opposite(opposite(t2))) == presentation(t2)


def test_opposite_swaps_products():
    t2fam = upper_family(2)
    t2 = alg_from_family(t2fam)
    op = opposite(t2)
    rng = random.Random(8)
    for _ in range(10):
        x = random_element(t2, rng)
        y = random_element(t2, rng)
        assert dense_product(op, x.coords, y.coords) == dense_product(t2, y.coords, x.coords)
    revalidate(op)


# -- predicates ------------------------------------------------------------------------


def test_commutativity_and_nilpotency():
    strict3 = alg_from_family(strict_upper_family(3))
    assert not is_commutative(strict3)
    assert nilpotency_index(strict3) == 3

    # span{x, x^2} in Q[x]/(x^3)
    c = build_algebra(Q, 2, {(0, 0): ((1, 1),)})
    assert is_commutative(c)
    assert nilpotency_index(c) == 3

    m2 = alg_from_family(full_family(2))
    assert not is_commutative(m2)
    assert nilpotency_index(m2) is None

    # every Tr(L_x) vanishes on M_2 over GF(2) and M_3 over GF(3), yet neither
    # is nilpotent: these predicates have no characteristic guard, so they
    # must decide by the power chain, not by traces
    for n, p in ((2, 2), (3, 3)):
        mp = build("matrix_full", n=n, field=prime_field(p)).algebra
        assert nilpotency_index(mp) is None
