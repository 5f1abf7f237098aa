import importlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from censtab import linalg
from censtab.algebras import (
    Algebra,
    _generators,
    build_algebra,
    center,
    direct_product,
    ideal_generated,
    matrix_algebra,
    opposite,
    quotient,
    unitization,
)
from censtab.catalog import build, standard_entries
from censtab.errors import ConsistencyError, UnsupportedCharacteristic
from censtab.linalg import kernel_of_rows, span, subspace_intersect
from censtab.radical import _trace_form_rows, radical, radical_failure
from censtab.scalars import RATIONALS as Q, prime_field
from censtab.stability import algebra_centrally_stable, random_element, verify_certificate

from oracle import (
    DENSE_CASES,
    During,
    alg_from_family,
    carried,
    count,
    count_products,
    dense_basis,
    dense_product,
    full_family,
    full_space,
    non_unital_algebras,
    random_subalgebra,
    strict_upper_family,
    truncated_poly,
    upper_family,
)

FIELDS = pytest.mark.parametrize("field", [Q, prime_field(101)], ids=["Q", "GF101"])

F = Fraction


def test_radical_upper_triangular():
    t3 = alg_from_family(upper_family(3))
    rad = radical(t3)
    assert rad.dim == 3
    # exactly the strictly upper triangular span: e12, e13, e23
    # basis order: e11 e12 e13 e22 e23 e33
    expected = span(
        Q, [(0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)], 6
    )
    assert rad == expected


def test_radical_simple_and_semisimple():
    m3 = alg_from_family(full_family(3))
    assert radical(m3).dim == 0
    prod = direct_product(alg_from_family(full_family(2)), truncated_poly(1))
    assert radical(prod).dim == 0
    assert radical(truncated_poly(2)).dim != 0
    assert radical(alg_from_family(upper_family(2))).dim != 0


def test_radical_of_nilpotent_is_everything():
    s3 = alg_from_family(strict_upper_family(3))
    assert radical(s3).dim == s3.dim


def test_radical_field_extension_corner():
    # K = Q[y]/(y^2 - 2); A = {[[alpha, beta], [0, lam]]}: radical is the
    # beta corner, of dimension deg K = 2, with a 3-dimensional semisimple
    # quotient isomorphic to K x Q.
    from censtab.catalog import build

    entry = build("ema")
    rad = radical(entry.algebra)
    assert rad.dim == 2
    d = 2
    corner = span(
        Q,
        [
            tuple(F(1) if i == d + j else F(0) for i in range(2 * d + 1))
            for j in range(d)
        ],
        2 * d + 1,
    )
    assert rad == corner
    qm = quotient(entry.algebra, rad)
    assert qm.target.dim == 3
    assert radical(qm.target).dim == 0


def test_radical_quotient_is_semisimple():
    rng = random.Random(77)
    for alg in (
        alg_from_family(upper_family(4)),
        matrix_algebra(truncated_poly(2), 2),
        truncated_poly(3),
    ):
        rad = radical(alg)
        qm = quotient(alg, rad)
        assert radical(qm.target).dim == 0


def test_radical_direct_product_additivity():
    a = alg_from_family(upper_family(3))
    b = truncated_poly(3)
    prod = direct_product(a, b)
    assert radical(prod).dim == radical(a).dim + radical(b).dim


def test_radical_unitization_image():
    s3 = alg_from_family(strict_upper_family(3))
    u = unitization(s3)
    rad_a = radical(s3)
    rad_u = radical(u)
    assert rad_u == span(Q, [(Q.zero, *r) for r in rad_a.rows], u.dim)


def test_radical_on_cyclic_group_algebras():
    # Q[x]/(x^n - 1) is semisimple in characteristic zero
    for n in (2, 3, 4, 5, 6):
        table = {(i, j): (((i + j) % n, 1),) for i in range(n) for j in range(n)}
        alg = build_algebra(Q, n, table)
        assert radical(alg).dim == 0, n


def test_radical_of_non_squarefree_polynomial_quotient():
    # Q[x]/((x-1)^2 (x+2)): x^3 = 3x - 2, radical = (squarefull part), dim 1
    table = {
        (0, 0): ((0, 1),),
        (0, 1): ((1, 1),), (1, 0): ((1, 1),),
        (0, 2): ((2, 1),), (2, 0): ((2, 1),),
        (1, 1): ((2, 1),),
        (1, 2): ((0, -2), (1, 3)), (2, 1): ((0, -2), (1, 3)),
        (2, 2): ((1, -2), (2, 3)),
    }
    alg = build_algebra(Q, 3, table)
    rad = radical(alg)
    assert rad.dim == 1
    # the radical is generated by (x-1)(x+2) = x^2 + x - 2
    gen = (F(-2), F(1), F(1))
    assert rad.contains(gen)


def test_radical_inside_kernels_of_semisimple_surjections():
    # spot check: T_3 surjects onto Q by each diagonal coordinate; the
    # radical must land in every such kernel
    t3 = alg_from_family(upper_family(3))
    rad = radical(t3)
    # kernel of the (1,1)-coordinate map: everything with zero e11 coefficient
    for diag_index in (0, 3, 5):  # e11, e22, e33 in the basis order
        kernel_rows = [
            tuple(F(1) if i == j else F(0) for i in range(6))
            for j in range(6)
            if j != diag_index
        ]
        ker = span(Q, kernel_rows, 6)
        for row in rad.rows:
            assert ker.contains(row)


def test_characteristic_guard():
    # dim 4: refused over GF(3), p <= dim; decided over GF(5), p = dim + 1,
    # though the unitization has dimension 5
    from censtab.catalog import build

    with pytest.raises(UnsupportedCharacteristic, match=r"needs p > 4"):
        radical(build("matrix_full", n=2, field=prime_field(3)).algebra)
    m2 = build("matrix_full", n=2, field=prime_field(5)).algebra
    assert radical(m2).dim == 0
    rep = algebra_centrally_stable(m2)
    assert rep.verdict == "Stable" and verify_certificate(m2, rep)
    # GF(101) comfortably above every catalog dimension we use
    m2_big = build("matrix_full", n=2, field=prime_field(101)).algebra
    assert radical(m2_big).dim == 0


@FIELDS
def test_unital_radical_agrees_with_the_radical_of_the_unitization(field):
    # a unital algebra is worked on as it is; A# = A x F, so rad(A#) is
    # 0 + rad(A) and both routes give the same canonical rows
    seen = 0
    for entry in standard_entries(field):
        a = entry.algebra
        if not a.is_unital:
            continue
        u = unitization(a)
        rad_u = radical(u)
        assert rad_u.pivots[:1] != (0,), entry.name
        assert radical(a).rows == tuple(r[1:] for r in rad_u.rows), entry.name
        seen += 1
    assert seen >= 18


# (family, n, p) -> radical dimension, or None where both are refused; the
# bound is p > dim, unital or not: p = dim + 1 is decided, even for the
# non-unital strict_upper, whose A# has dimension dim + 1
CHARACTERISTIC_CASES = {
    ("matrix_full", 2, 3): (None, None),
    ("matrix_full", 2, 5): (0, "Stable"),
    ("strict_upper", 3, 5): (3, "NotStable"),
    ("strict_upper", 3, 7): (3, "NotStable"),
    ("strict_upper", 4, 7): (6, "NotStable"),
    ("upper_triangular", 2, 3): (None, None),
    ("upper_triangular", 2, 5): (1, "NotStable"),
}


@pytest.mark.parametrize("case", CHARACTERISTIC_CASES, ids=lambda c: f"{c[0]}-{c[1]}-GF{c[2]}")
def test_characteristic_bound_is_p_above_dim(case):
    name, n, p = case
    rad_dim, verdict = CHARACTERISTIC_CASES[case]
    a = build(name, n=n, field=prime_field(p)).algebra
    if rad_dim is None:
        with pytest.raises(UnsupportedCharacteristic):
            radical(a)
    else:
        assert radical(a).dim == rad_dim
    if verdict is None:
        with pytest.raises(UnsupportedCharacteristic):
            algebra_centrally_stable(a)
    else:
        rep = algebra_centrally_stable(a)
        assert rep.verdict == verdict and verify_certificate(a, rep)


def _failure_kind(reason):
    return None if reason is None else reason.split(":")[0]


@FIELDS
def test_the_trace_row_of_a_unital_algebra_is_dependent(field):
    # the last row t = sum_j u_j G_j, u the unity, leaves the kernel as it is
    seen = 0
    for entry in standard_entries(field):
        a = entry.algebra
        if not a.is_unital:
            continue
        rows = _trace_form_rows(a)
        assert len(rows) == a.dim + 1, entry.name
        assert kernel_of_rows(field, rows, a.dim) == kernel_of_rows(field, rows[:-1], a.dim), entry.name
        seen += 1
    assert seen >= 18


@FIELDS
def test_the_opposite_algebra_has_the_same_radical_center_and_verdict(field):
    # rad, Z and ideals are two-sided, so A^op keeps them; its trace row is
    # A's vector of right traces, a second way to the same radical
    algebras = [entry.algebra for entry in standard_entries(field)] + non_unital_algebras(field, 40)
    for idx, a in enumerate(algebras):
        op = opposite(a)
        assert radical(op) == radical(a), (field.p, idx)
        assert center(op) == center(a), (field.p, idx)
        assert algebra_centrally_stable(op).verdict == algebra_centrally_stable(a).verdict, (field.p, idx)


@FIELDS
def test_radical_failure_of_a_non_unital_algebra_agrees_with_its_unitization(field):
    # N is the radical of A exactly when N# = 0 + N is that of A#: each step
    # of radical_failure gives the same answer in A as in A# (see its
    # docstring), so the two agree on the first step that fails
    kinds = set()
    for idx, a in enumerate(non_unital_algebras(field, 40)):
        rng = random.Random(f"radical-failure:{field.p}:{idx}")
        uni = unitization(a)
        rad = radical(a)
        some = [random_element(a, rng) for _ in range(2)]
        in_rad = [tuple(field.mul(field.random_scalar(rng), c) for c in row) for row in rad.rows[:2]]
        candidates = [
            rad,
            full_space(field, a.dim),
            span(field, [x.coords for x in some], a.dim),
            ideal_generated(a, some[:1]),
            ideal_generated(a, [a.element(v) for v in in_rad]),
            ideal_generated(a, [a.element(v) for v in rad.rows] + some[:1]),
        ]
        for n in candidates:
            n_u = span(field, [(field.zero, *row) for row in n.rows], uni.dim)
            kind = _failure_kind(radical_failure(a, n))
            assert kind == _failure_kind(radical_failure(uni, n_u)), (field.p, idx, n)
            kinds.add(kind)
    assert kinds == {
        None,
        "radical candidate is not an ideal",
        "radical candidate is not nilpotent",
        "quotient by radical candidate is not semisimple",
    }


def test_radical_matches_trace_oracle_on_small_algebras():
    # independent dense check: build L_x matrices explicitly and verify
    # tr(L_{x e_j}) = 0 over the unitization by brute force
    rng = random.Random(3)
    for alg in (alg_from_family(upper_family(2)), truncated_poly(3)):
        rad = radical(alg)
        ua = unitization(alg)
        n = ua.dim

        def left_matrix(vec):
            cols = []
            for j in range(n):
                ej = [Q.zero] * n
                ej[j] = Q.one
                cols.append(dense_product(ua, vec, ej))
            return [[cols[j][i] for j in range(n)] for i in range(n)]

        def trace(m):
            acc = Q.zero
            for i in range(n):
                acc = Q.add(acc, m[i][i])
            return acc

        for row in rad.rows:
            x = (Q.zero, *row)
            for j in range(n):
                ej = [Q.zero] * n
                ej[j] = Q.one
                prod = dense_product(ua, x, ej)
                assert trace(left_matrix(prod)) == Q.zero


# -- mutation tests: each planted fault trips its own postcondition ------------


def _verify_planted(alg, rad_rows):
    """Run the one radical check on a planted candidate."""
    from censtab.radical import radical_failure

    reason = radical_failure(alg, span(Q, rad_rows, alg.dim))
    if reason is not None:
        raise ConsistencyError(reason)


def test_verify_radical_accepts_the_true_radical():
    t2 = alg_from_family(upper_family(2))  # basis e11 e12 e22
    _verify_planted(t2, [(0, 1, 0)])


def test_verify_radical_rejects_a_non_ideal():
    t2 = alg_from_family(upper_family(2))
    # span{e11}: e11 * e12 = e12 escapes it
    with pytest.raises(ConsistencyError, match="not an ideal"):
        _verify_planted(t2, [(1, 0, 0)])


def test_verify_radical_rejects_a_non_nilpotent_ideal():
    t2 = alg_from_family(upper_family(2))
    # span{e11, e12} is a two-sided ideal, but e11 is idempotent
    with pytest.raises(ConsistencyError, match="nilpotent|stalls"):
        _verify_planted(t2, [(1, 0, 0), (0, 1, 0)])


def test_verify_radical_rejects_a_radical_too_small():
    t2 = alg_from_family(upper_family(2))
    # the zero ideal passes the ideal and nilpotency checks, but T_2 itself
    # is not semisimple
    with pytest.raises(ConsistencyError, match="not semisimple"):
        _verify_planted(t2, [])


# -- the trace test of nilpotency and the work it saves ------------------------


def _traces_say_nilpotent(a, ideal):
    """The verdict of radical_failure's nilpotency step on an ideal of a."""
    assert a.field.p is None or a.field.p > a.dim  # the trace test's precondition
    reason = radical_failure(a, ideal)
    assert reason is None or "not an ideal" not in reason
    return reason is None or "not nilpotent" not in reason


def _power_chain_is_nilpotent(a, ideal):
    """Whether the ideal N is nilpotent, by its power chain: N^{k+1} is
    spanned by the products v w, v in N's basis and w in N^k's, and the
    chain ends at zero or stalls where a power is not smaller than the one
    before."""
    f, power = a.field, ideal
    while power.dim:
        nxt = span(f, [dense_product(a, v, w) for v in ideal.rows for w in power.rows], a.dim)
        if nxt.dim >= power.dim:
            return False
        power = nxt
    return True


def _agrees_with_the_power_chain(a, ideal):
    nilpotent = _traces_say_nilpotent(a, ideal)
    assert nilpotent == _power_chain_is_nilpotent(a, ideal), (a, ideal)
    return nilpotent


@FIELDS
def test_trace_nilpotency_agrees_with_the_power_chain(field):
    cases = []
    for entry in standard_entries(field):
        a = entry.algebra
        cases.append((a, radical(a)))
        cases.append((a, full_space(field, a.dim)))  # nilpotent only for the nilpotent entries
    ambients = [
        build(name, n=n, field=field).algebra
        for name, n in (("upper_triangular", 4), ("matrix_full", 3),
                        ("scalar_plus_strict_upper", 4), ("strict_upper", 4))
    ]
    for trial in range(40):
        rng = random.Random(f"squaring:{trial}")
        sub = random_subalgebra(ambients[trial % len(ambients)], rng)
        cases.append((sub, full_space(field, sub.dim)))
    outcomes = {_agrees_with_the_power_chain(a, ideal) for a, ideal in cases}
    assert outcomes == {True, False}
    m2 = build("matrix_full", n=2, field=field).algebra
    assert not _traces_say_nilpotent(m2, full_space(field, 4))


IDEAL_AMBIENTS = [
    ("upper_triangular", {"n": 3}),
    ("matrix_full", {"n": 2}),
    ("scalar_plus_strict_upper", {"n": 4}),
    ("strict_upper", {"n": 4}),
    ("truncated_poly", {"k": 5}),
    ("matrix_over_commutative", {"n": 2, "k": 2}),
    ("r11_radical", {"n": 2, "k": 3}),
]


@st.composite
def _ideals_of_catalog_algebras(draw):
    """An ideal generated by one or two random elements of a catalog
    algebra, each a combination of radical rows, of one or two basis
    vectors, or of the whole basis."""
    field = draw(st.sampled_from([Q, prime_field(101)]))
    name, params = draw(st.sampled_from(IDEAL_AMBIENTS))
    a = build(name, field=field, **params).algebra
    basis = full_space(field, a.dim).rows
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("radical", "sparse", "dense")))
        if kind == "radical":
            rows = radical(a).rows
        elif kind == "sparse":
            rows = [basis[i] for i in draw(st.lists(st.integers(0, a.dim - 1), min_size=1, max_size=2))]
        else:
            rows = basis
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        x = [field.zero] * a.dim
        for c, r in zip(coeffs, rows):
            x = [field.add(xi, field.mul(field.coerce(c), ri)) for xi, ri in zip(x, r)]
        gens.append(a.element(x))
    return a, ideal_generated(a, gens)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_ideals_of_catalog_algebras())
def test_trace_nilpotency_agrees_with_the_power_chain_on_generated_ideals(case):
    _agrees_with_the_power_chain(*case)


@FIELDS
def test_a_dense_change_of_basis_keeps_the_verdict_center_and_radical(field):
    rng = random.Random(f"dense:{field}")
    verdicts = set()
    for name, params in DENSE_CASES:
        a = build(name, field=field, **params).algebra
        b, p = dense_basis(a, rng)
        assert sum(map(len, b.table.values())) > sum(map(len, a.table.values()))
        rep_a, rep_b = algebra_centrally_stable(a), algebra_centrally_stable(b)
        assert rep_b.verdict == rep_a.verdict, name
        assert center(b).dim == center(a).dim, name
        # the radical of b, carried back to the basis e, is the radical of a
        assert span(field, carried(field, radical(b).rows, p), a.dim) == radical(a), name
        assert verify_certificate(b, rep_b), name
        verdicts.add(rep_b.verdict)
    assert len(verdicts) == 2


def _count_work(monkeypatch):
    """Count power chains, ideal checks, basis products (those inside ideal
    checks apart) and canonical row builds from here on."""
    counts = {"power_chains": 0, "ideal_witness": 0, "products": 0, "witness_products": 0,
              "canonical_rows": 0}
    algebras = importlib.import_module("censtab.algebras")
    count(monkeypatch, counts, [algebras], "nilpotency_index", power_chains=1)
    # censtab.radical is shadowed by the function of that name on the package
    count(monkeypatch, counts, [algebras, importlib.import_module("censtab.radical")], "ideal_witness",
          ideal_witness=1, witness_products=During("products"))
    count_products(monkeypatch, counts)
    return count(monkeypatch, counts, [linalg._Reducer], "canonical_rows", canonical_rows=1)


@FIELDS
def test_radical_work_bounds(field, monkeypatch):
    # one ideal check; nilpotency is read off the left traces, with no power chain
    a = build("truncated_poly", k=24, field=field).algebra
    counts = _count_work(monkeypatch)
    radical(a)
    assert counts["power_chains"] == 0
    assert counts["ideal_witness"] == 1


@FIELDS
@pytest.mark.parametrize(
    "name, params, route",
    [("strict_upper", {"n": 5}, "A/J"), ("r11_radical", {"n": 2, "k": 4}, "A/J"),
     ("upper_triangular", {"n": 4}, "A/rad"), ("truncated_poly", {"k": 4}, None)],
    ids=["strict_upper-5", "r11_radical-2-4", "upper_triangular-4", "truncated_poly-4"],
)
def test_decision_and_replay_build_no_algebra(field, name, params, route, monkeypatch):
    # the trace forms of A# and of A/rad are read off A's own table, unital
    # or not, and the witness lifts are computed in A: the radical, the
    # decision and its replay build no algebra, on either lift route
    a = build(name, field=field, **params).algebra
    built = count(monkeypatch, {"dims": []}, [Algebra], "__init__",
                  dims=lambda self, field, dim, *rest: [dim])["dims"]
    radical(a)
    rep = algebra_centrally_stable(a)
    assert rep.bases.get("witness_quotient") == route
    assert verify_certificate(a, rep)
    assert built == []


def _old_quotient_is_semisimple(a, n):
    """The semisimplicity step as it was: the trace-form kernel of A/N,
    built as an algebra."""
    q = quotient(a, n).target
    return kernel_of_rows(a.field, _trace_form_rows(q), q.dim).dim == 0


def _nilpotent_ideals(a, rng):
    """0, J = Id(Z cap rad), rad^k for k >= 1 and two random sub-ideals of
    rad: ideals that pass the first two steps of radical_failure."""
    f, rad = a.field, radical(a)
    c = [a.element(row) for row in subspace_intersect(center(a), rad).rows]
    out = [span(f, [], a.dim), ideal_generated(a, c)]
    power = rad
    while power.dim:
        out.append(power)
        power = span(f, [dense_product(a, v, w) for v in rad.rows for w in power.rows], a.dim)
    for _ in range(2):
        x = [f.zero] * a.dim
        for row in rad.rows:
            c = f.coerce(rng.randint(-2, 2))
            x = [f.add(xi, f.mul(c, ri)) for xi, ri in zip(x, row)]
        out.append(ideal_generated(a, [a.element(x)]))
    return out


# p the least prime above the dimension, where m_k < p is tightest
BOUNDARY_CASES = [("upper_triangular", {"n": 3}, 7), ("matrix_over_commutative", {"n": 2, "k": 3}, 13)]


@pytest.mark.parametrize("field", [Q, prime_field(101), None], ids=["Q", "GF101", "p-above-dim"])
def test_the_semisimplicity_step_agrees_with_the_trace_form_of_the_quotient(field):
    # A's own trace form on N's free columns gives the verdict of the kernel
    # of _trace_form_rows on A/N, built, on candidates that pass the ideal
    # and nilpotency steps, failing ones too (see radical_failure)
    if field is None:
        rng = random.Random("semisimple:boundary")
        algebras = [build(name, field=prime_field(p), **params).algebra for name, params, p in BOUNDARY_CASES]
        assert [(a.dim, a.field.p) for a in algebras] == [(6, 7), (12, 13)]
        algebras += [dense_basis(a, rng)[0] for a in algebras]
    else:
        rng = random.Random(f"semisimple:{field.p}")
        algebras = [entry.algebra for entry in standard_entries(field)]
        algebras += [dense_basis(build(name, field=field, **params).algebra, rng)[0]
                     for name, params in DENSE_CASES]
    outcomes = set()
    for idx, a in enumerate(algebras):
        for n in _nilpotent_ideals(a, rng):
            reason = radical_failure(a, n)
            assert reason in (None, "quotient by radical candidate is not semisimple"), (idx, n)
            assert (reason is None) == _old_quotient_is_semisimple(a, n), (idx, n)
            outcomes.add(reason)
    assert len(outcomes) == 2


@FIELDS
@pytest.mark.parametrize(
    "name, params",
    [("truncated_poly", {"k": 8}), ("strict_upper", {"n": 4}), ("upper_triangular", {"n": 4})],
    ids=["truncated_poly-8", "strict_upper-4", "upper_triangular-4"],
)
def test_radical_walks_the_index_for_the_left_traces_once(field, name, params):
    # the trace form and the nilpotency test of radical_failure read the same
    # left traces, kept in the algebra's memo
    entry = build(name, field=field, **params).algebra
    a = build_algebra(field, entry.dim, entry.table)
    walks = []

    class CountedRows(tuple):
        def __iter__(self):
            walks.append(sys._getframe(1).f_code.co_name)
            return super().__iter__()

    a._rows = CountedRows(a._rows)
    radical(a)
    assert walks.count("_left_traces") == 1
    radical(a)
    assert walks.count("_left_traces") == 1


@FIELDS
def test_radical_ideal_check_products_are_bounded_by_the_generators(field, monkeypatch):
    # the ideal check multiplies each radical row by each e_g on both sides,
    # g over the generators of a; it scans every e_i only when that fails
    a = build("truncated_poly", k=24, field=field).algebra
    gens = _generators(a)  # memoized before counting
    counts = count_products(monkeypatch, {"products": 0})
    rad = radical(a)
    assert counts["products"] <= 2 * len(gens) * rad.dim == 92


@FIELDS
def test_decision_work_bounds(field, monkeypatch):
    # one radical, checked for being an ideal once and for nilpotency by
    # traces; the NotStable lift is computed in A, with no ideal check
    a = build("strict_upper", n=9, field=field).algebra
    counts = _count_work(monkeypatch)
    algebra_centrally_stable(a)
    assert counts["power_chains"] == 0
    assert counts["ideal_witness"] == 1
    # rad = A for these nilpotent algebras, an ideal of itself with no
    # product; canonical rows are built for the four report bases,
    # Z(A/J) cap R/J, whose first row is lifted, and the witness's
    # commutator ideal and sum: 7 (9 when every subspace was canonicalized as it was made)
    for name, params in [("strict_upper", {"n": 9}), ("r11_radical", {"n": 3, "k": 4})]:
        a = build(name, field=field, **params).algebra
        counts.update(ideal_witness=0, witness_products=0, canonical_rows=0)
        assert algebra_centrally_stable(a).bases["witness_quotient"] == "A/J"
        assert counts["ideal_witness"] == 1 and counts["witness_products"] == 0
        assert counts["canonical_rows"] <= 7
