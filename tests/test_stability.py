import random
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import pytest

from censtab import linalg, stability
from censtab.algebras import (
    _center_cap,
    _commutator_rows,
    _generators,
    _ideal_closure,
    _is_central,
    build_algebra,
    center,
    commutator_space,
    direct_product,
    ideal_generated,
    opposite,
    quotient,
    tensor_product,
    unitization,
)
from censtab.catalog import build, standard_entries
from censtab.errors import ConsistencyError, DimensionMismatch, NotAnIdeal
from censtab.fileformat import report_to_json, verify_report_json
from censtab.linalg import (
    _int_entries,
    _PrimeReducer,
    _RationalReducer,
    _Reducer,
    express_in_span,
    span,
    subspace_intersect,
    subspace_sum,
)
from censtab.radical import radical
from censtab.scalars import RATIONALS as Q, prime_field
from censtab.stability import (
    NOT_STABLE,
    STABLE,
    RadicalMatch,
    StabilityReport,
    StableElementWitness,
    UnstableElementWitness,
    algebra_centrally_stable,
    decompose_tensor_element,
    element_centrally_stable,
    fuzz_consistency,
    quotient_center_oracle,
    random_element,
    tensor_with_matrices,
    verify_certificate,
)

from oracle import (
    During,
    count,
    count_products,
    dense_basis,
    dense_product,
    ema_maximal_ideal,
    in_commutator_ideal,
    non_unital_algebras,
    random_subalgebra,
    reloaded,
    replays,
)

F = Fraction


def t3():
    return build("upper_triangular", n=3).algebra


# -- element criterion -----------------------------------------------------------


def test_t3_basis_census():
    alg = t3()
    # basis order: e11 e12 e13 e22 e23 e33
    expected = {
        "e11": NOT_STABLE,
        "e12": STABLE,
        "e13": STABLE,
        "e22": NOT_STABLE,
        "e23": STABLE,
        "e33": NOT_STABLE,
    }
    for i in range(6):
        rep = element_centrally_stable(alg.basis_element(i))
        assert rep.verdict == expected[alg.label(i)], alg.label(i)
        assert verify_certificate(alg, rep)


def test_central_elements_stable_with_zero_ideal_part():
    for entry_name, kw in (("matrix_full", {"n": 3}), ("upper_triangular", {"n": 4})):
        alg = build(entry_name, **kw).algebra
        z = center(alg)
        for row in z.rows:
            rep = element_centrally_stable(alg.element(row))
            assert rep.verdict == STABLE
            assert not any(rep.certificate.ideal_part)


def test_scalar_plus_strict_elements_of_t3_are_stable():
    alg = t3()
    rng = random.Random(42)
    # scalar + strictly upper: coords (lam, a, b, lam, c, lam)
    for _ in range(50):
        lam, a, b, c = (Q.random_scalar(rng) for _ in range(4))
        rep = element_centrally_stable(alg.element((lam, a, b, lam, c, lam)))
        assert rep.verdict == STABLE


def test_stable_element_witness_reconstructs():
    alg = t3()
    rep = element_centrally_stable(alg.basis_element(1))  # e12
    cert = rep.certificate
    assert isinstance(cert, StableElementWitness)
    s = tuple(Q.add(z, u) for z, u in zip(cert.central_part, cert.ideal_part))
    assert s == cert.element
    assert center(alg).contains(cert.central_part)
    ideal = ideal_generated(
        alg,
        [alg.element(r) for r in commutator_space(alg.basis_element(1)).rows],
    )
    assert ideal.contains(cert.ideal_part)


def test_unstable_element_witness_records_avoided_subspace():
    alg = t3()
    rep = element_centrally_stable(alg.basis_element(0))  # e11
    cert = rep.certificate
    assert isinstance(cert, UnstableElementWitness)
    avoided = span(Q, cert.sum_rows, alg.dim)
    assert not avoided.contains(cert.element)
    assert verify_certificate(alg, rep)


# -- algebra criterion ------------------------------------------------------------


def test_simple_algebras_stable():
    for n in (1, 2, 3, 4):
        rep = algebra_centrally_stable(build("matrix_full", n=n).algebra)
        assert rep.verdict == STABLE
        assert rep.method == "RadicalCriterion"
        assert isinstance(rep.certificate, RadicalMatch)


def test_field_extension_corner_not_stable():
    entry = build("ema")
    rep = algebra_centrally_stable(entry.algebra)
    assert rep.verdict == NOT_STABLE
    assert isinstance(rep.certificate, UnstableElementWitness)
    assert verify_certificate(entry.algebra, rep)


def test_quaternion_corner_algebra_stable():
    entry = build("exg")
    rep = algebra_centrally_stable(entry.algebra)
    assert rep.verdict == STABLE
    assert verify_certificate(entry.algebra, rep)


def test_twisted_bimodule_not_stable():
    entry = build("exh_rational")
    alg = entry.algebra
    rep = algebra_centrally_stable(alg)
    assert rep.verdict == NOT_STABLE
    # Z cap rad = 0 here, so the criterion ideal is zero
    assert span(Q, rep.bases["center_cap_radical"], alg.dim).dim == 0
    assert verify_certificate(alg, rep)


def test_non_unital_verdicts_certify_in_the_original_algebra():
    two = build("strict_upper", n=2)
    rep = algebra_centrally_stable(two.algebra)
    assert rep.verdict == STABLE
    assert rep.method == "UnitizationThenRadicalCriterion"

    three = build("strict_upper", n=3)
    rep = algebra_centrally_stable(three.algebra)
    assert rep.verdict == NOT_STABLE
    assert isinstance(rep.certificate, UnstableElementWitness)
    assert len(rep.certificate.element) == three.algebra.dim
    assert verify_certificate(three.algebra, rep)

    r11 = build("r11_radical", n=2, k=3)
    rep = algebra_centrally_stable(r11.algebra)
    assert rep.verdict == NOT_STABLE
    assert isinstance(rep.certificate, UnstableElementWitness)
    assert len(rep.certificate.element) == r11.algebra.dim
    assert verify_certificate(r11.algebra, rep)


def test_zero_center_algebra_not_stable():
    # the "row algebra" span{e11, e12} in M_2 has zero center
    table = {(0, 0): ((0, 1),), (0, 1): ((1, 1),)}
    alg = build_algebra(Q, 2, table)
    assert center(alg).dim == 0
    rep = algebra_centrally_stable(alg)
    assert rep.verdict == NOT_STABLE
    assert isinstance(rep.certificate, UnstableElementWitness)


def test_zero_dimensional_algebra_stable():
    alg = build_algebra(Q, 0, {})
    assert algebra_centrally_stable(alg).verdict == STABLE


def test_direct_product_verdict_law_spot_checks():
    stable = build("matrix_full", n=2).algebra
    unstable = build("ema").algebra
    assert algebra_centrally_stable(direct_product(stable, stable)).is_stable
    assert not algebra_centrally_stable(direct_product(stable, unstable)).is_stable
    assert not algebra_centrally_stable(direct_product(unstable, unstable)).is_stable


def test_nilpotent_verdict_matches_commutativity():
    assert algebra_centrally_stable(build("strict_upper", n=2).algebra).is_stable
    assert not algebra_centrally_stable(build("strict_upper", n=3).algebra).is_stable


# -- quotient-center oracle ---------------------------------------------------------


def test_oracle_zero_ideal_always_true():
    alg = build("ema").algebra
    res = quotient_center_oracle(alg, span(Q, [], alg.dim))
    assert res.equal


def test_oracle_ema_maximal_ideal_fails():
    entry = build("ema")
    res = quotient_center_oracle(entry.algebra, ema_maximal_ideal(entry.algebra))
    assert not res.equal
    assert res.quotient_center.dim == 2  # the quotient is the bigger field K
    assert res.center_image.dim == 1


def test_oracle_true_on_random_ideals_of_stable_algebra():
    alg = build("matrix_over_commutative", n=2, k=2).algebra
    rng = random.Random(5)
    for _ in range(10):
        gens = [random_element(alg, rng) for _ in range(rng.randint(1, 2))]
        ideal = ideal_generated(alg, gens)
        res = quotient_center_oracle(alg, ideal)
        assert res.equal
        assert algebra_centrally_stable(res.map.target).is_stable


def test_oracle_rejects_non_ideal():
    alg = build("matrix_full", n=2).algebra
    with pytest.raises(NotAnIdeal):
        quotient_center_oracle(alg, span(Q, [(1, 0, 0, 0)], 4))


# -- tensor decomposition -------------------------------------------------------------


def test_decompose_pure_tensor_with_identity():
    alg = t3()
    n = 2
    T = tensor_with_matrices(alg, n)
    rng = random.Random(1)
    x = random_element(alg, rng)
    t_coords = [Q.zero] * T.dim
    for j in range(alg.dim):
        for q in range(n):
            t_coords[j * n * n + q * n + q] = x.coords[j]
    dec = decompose_tensor_element(alg, n, t_coords)
    assert dec.diagonal_part.coords == x.coords
    assert not any(dec.stable_part.coords)
    assert all(dec.checks.values())


def test_decompose_offdiagonal_tensor():
    t2 = build("upper_triangular", n=2).algebra
    n = 2
    T = tensor_with_matrices(t2, n)
    rng = random.Random(3)
    v = random_element(t2, rng)
    t_coords = [Q.zero] * T.dim
    for j in range(t2.dim):
        t_coords[j * n * n + 0 * n + 1] = v.coords[j]  # v (x) e12
    dec = decompose_tensor_element(t2, n, t_coords)
    assert not any(dec.diagonal_part.coords)
    assert dec.stable_part.coords == tuple(t_coords)
    assert all(dec.checks.values())


def test_decompose_stable_diagonal_implies_stable_tensor_element():
    alg = t3()
    n = 2
    T = tensor_with_matrices(alg, n)
    rng = random.Random(9)
    for idx in range(10):
        t_el = random_element(T, rng)
        coords = list(t_el.coords)
        # force the (n, n) diagonal block to be e12 + c 1, a stable element
        # of T_3 with central part c 1 (c = 0 in the first five)
        c = Q.zero if idx < 5 else Q.coerce(idx - 3)
        for j in range(alg.dim):
            coords[j * n * n + (n - 1) * n + (n - 1)] = alg.unity[j] * c + (Q.one if j == 1 else Q.zero)
        dec = decompose_tensor_element(alg, n, coords)
        assert dec.diagonal_report.verdict == STABLE
        assert dec.full_report is not None
        assert dec.full_report.verdict == STABLE
        assert replays(T, dec.full_report, tensor_with_matrices(reloaded(alg), n), command="element")


@pytest.mark.parametrize("field", [Q, prime_field(101)], ids=["Q", "GF101"])
def test_the_lifted_center_is_the_center_of_the_tensor_algebra(field):
    # full_report records Z(T) as the rows of Z(A) (x) 1, lifted slot by
    # slot and never computed in T: they must be Z(T)'s own RREF rows
    rng = random.Random(f"lifted-center:{field}")
    unital = [e.algebra for e in standard_entries(field) if e.algebra.is_unital and e.algebra.dim <= 9]
    seen = 0
    for a in unital:
        for b in (a, dense_basis(a, rng)[0]):
            for n in (1, 2, 3):
                T = tensor_with_matrices(b, n)
                dec = decompose_tensor_element(b, n, [field.zero] * T.dim)
                assert dec.full_report.bases["center"] == center(T).rows, (b.dim, n)
                seen += 1
    assert seen >= 60


def test_decompose_decides_nothing_in_the_tensor_algebra(monkeypatch):
    # t's certificate comes from the diagonal part's: one element decision,
    # in A, and neither the center nor the generators of T are computed
    decided = []
    real = stability.element_centrally_stable
    monkeypatch.setattr(stability, "element_centrally_stable", lambda x: decided.append(x) or real(x))
    alg = t3()
    rng = random.Random(13)
    for n in (1, 2, 3):
        coords = list(random_element(tensor_with_matrices(alg, n), rng).coords)
        for j in range(alg.dim):  # the diagonal block 2 e12 + 3 1, stable
            coords[j * n * n + (n - 1) * (n + 1)] = 3 * alg.unity[j] + (2 if j == 1 else 0)
        decided.clear()
        dec = decompose_tensor_element(alg, n, coords)
        T = dec.tensor_algebra
        assert dec.stable_part.algebra is T
        assert dec.full_report.verdict == STABLE
        assert [x.algebra for x in decided] == [alg]
        assert decided[0].coords == dec.diagonal_part.coords
        assert "center" not in T._memo and "generators" not in T._memo
        assert verify_certificate(T, dec.full_report)


def test_decompose_refuses_a_wrong_length_or_pivot_before_building_the_tensor(monkeypatch):
    # A (x) M_n for n = 10**4 would not fit in memory: building it fails fast
    def refuse(a, n):
        raise AssertionError(f"A (x) M_{n} built before the input was checked")

    monkeypatch.setattr(stability, "tensor_with_matrices", refuse)
    alg = t3()
    with pytest.raises(DimensionMismatch):
        decompose_tensor_element(alg, 10**4, [Q.one] * 7)
    with pytest.raises(DimensionMismatch):
        decompose_tensor_element(alg, 3, [Q.zero] * (alg.dim * 9), pivot=4)


@pytest.mark.parametrize("field", [Q, prime_field(101)], ids=["Q", "GF101"])
def test_commutative_non_semisimple_coefficients_tensor_matrices_are_stable(field):
    # the main theorem with F_i = F: a product of C_i (x) M_{n_i}, C_i
    # commutative, is centrally stable; C = F[y]/(y^k) is not semisimple.
    # C is taken in its own basis and in a dense one of fixed seed.
    rng = random.Random(f"main-theorem:{field}")
    m2 = build("matrix_full", n=2, field=field).algebra
    algebras = []
    for k in (2, 3):
        c = build("truncated_poly", k=k, field=field).algebra
        for coeffs in (c, dense_basis(c, rng)[0]):
            algebras.append(tensor_product(coeffs, m2))
            if k == 2:
                algebras.append(direct_product(algebras[-1], m2))
    for b in algebras:
        rep = algebra_centrally_stable(b)
        assert rep.verdict == STABLE, b.dim
        assert rep.bases["radical"], b.dim
        assert replays(b, rep, reloaded(b))


def test_decompose_pivot_moves_slot():
    alg = t3()
    n = 2
    T = tensor_with_matrices(alg, n)
    rng = random.Random(11)
    t_el = random_element(T, rng)
    dec1 = decompose_tensor_element(alg, n, t_el.coords, pivot=1)
    # pivot 1 reads the (1,1) block
    expected = tuple(t_el.coords[j * n * n] for j in range(alg.dim))
    assert dec1.diagonal_part.coords == expected
    assert all(dec1.checks.values())


def test_decompose_random_elements():
    for name, kw in (("upper_triangular", {"n": 3}), ("ema", {})):
        alg = build(name, **kw).algebra
        for n in (2, 3):
            rng = random.Random(f"{name}:{n}")
            T = tensor_with_matrices(alg, n)
            for _ in range(3):
                t_el = random_element(T, rng)
                dec = decompose_tensor_element(alg, n, t_el.coords)
                assert all(dec.checks.values())


def _sparse_coords(f, rng, dim):
    v = [f.zero] * dim
    for i in rng.sample(range(dim), rng.randint(1, 3)):
        v[i] = f.random_scalar(rng) or f.one
    return v


def test_tensor_commutator_ideal_in_a_matches_the_closure_in_t():
    # the closure in T = A (x) M_n is the reference for the one in A; sparse x
    # keeps Id_T([x, T]) often proper, so both answers occur
    seen = {True: 0, False: 0}
    both = ({"field": Q}, {"field": prime_field(101)})
    families = (("truncated_poly", {"k": 4}, both), ("upper_triangular", {"n": 3}, both),
                ("matrix_full", {"n": 2}, both), ("scalar_plus_strict_upper", {"n": 3}, both),
                ("ema", {}, ({},)), ("exg", {}, ({},)))
    for name, params, fields in families:
        for field in fields:
            a = build(name, **params, **field).algebra
            for n in (1, 2, 3):
                T = tensor_with_matrices(a, n)
                rng = random.Random(f"{name}:{a.field}:{n}")
                for _ in range(6):
                    x = _sparse_coords(a.field, rng, T.dim)
                    targets, wants = [], []
                    for _ in range(3):
                        target = _sparse_coords(a.field, rng, T.dim)
                        want = in_commutator_ideal(T.element(tuple(x)), _int_entries(target))
                        assert stability._in_tensor_commutator_ideal(a, n, x, [target]) == want
                        seen[want] += 1
                        targets.append(target)
                        wants.append(want)
                    # several targets: one closure, in when every target is
                    assert stability._in_tensor_commutator_ideal(a, n, x, targets) == all(wants)
    assert min(seen.values()) >= 100, seen


def test_decompose_decides_its_checks_without_the_closure_in_t(monkeypatch):
    # every ideal membership of the split is decided in A, none in T
    calls = []
    real = stability._in_ideal
    monkeypatch.setattr(stability, "_in_ideal", lambda *args: calls.append(args) or real(*args))
    alg = t3()
    rng = random.Random(5)
    for n in (1, 2, 3):
        T = tensor_with_matrices(alg, n)
        dec = decompose_tensor_element(alg, n, random_element(T, rng).coords)
        assert all(dec.checks.values())
    assert calls and all(args[0] is alg for args in calls)


def test_membership_stop_tests_keep_a_running_residual(monkeypatch):
    # no stop test reduces its target from scratch after a new closure row
    calls = []
    real = _Reducer.contains
    monkeypatch.setattr(_Reducer, "contains", lambda self, vec: calls.append(vec) or real(self, vec))
    verdicts = set()
    for name, params in (("upper_triangular", {"n": 3}), ("exg", {})):
        alg = build(name, **params).algebra
        rng = random.Random(name)
        basis = [alg.basis_element(i) for i in range(alg.dim)]
        for x in [*basis, *(random_element(alg, rng) for _ in range(5))]:
            rep = element_centrally_stable(x)
            verdicts.add(rep.verdict)
            if rep.verdict == STABLE:
                u = _int_entries(rep.certificate.ideal_part)
                assert in_commutator_ideal(x, u)
    assert verdicts == {STABLE, NOT_STABLE}
    assert calls == []


def _round_closure(a, vectors, stop=None):
    """The ideal closure as a loop of rounds, each multiplying only the rows
    the round before added; returns (reducer, complete).  The reference
    that the single work list of `_ideal_closure` must follow row for row."""
    n = a.dim
    gens = _generators(a)
    red = linalg._make_reducer(a.field, n)
    work = []
    for v in vectors:
        r = red.insert(v)
        if r is not None:
            work.append(r)
            if stop is not None and stop(red, r):
                return red, False
    while work:
        if red.dim == n:
            return red, True
        fresh = []
        for v in work:
            for g in gens:
                for w in (a._basis_mul_vec(g, v), a._vec_mul_basis(v, g)):
                    if w is None:
                        continue
                    r = red.insert(w)
                    if r is not None:
                        fresh.append(r)
                        if stop is not None and stop(red, r):
                            return red, False
                        if red.dim == n:
                            return red, True
        work = fresh
    return red, True


CLOSURE_CASES = [
    ("matrix_full", {"n": 3}),
    ("upper_triangular", {"n": 3}),
    ("truncated_poly", {"k": 5}),
    ("strict_upper", {"n": 4}),
    ("matrix_over_commutative", {"n": 2, "k": 2}),
]


@pytest.mark.parametrize("field", [Q, prime_field(101)], ids=str)
def test_the_work_list_closure_inserts_the_rows_of_the_round_closure(field, monkeypatch):
    inserted = []  # every row insert returns, in order
    real = _Reducer.insert

    def recording(self, vec):
        r = real(self, vec)
        if r is not None:
            inserted.append(dict(r))
        return r

    def run(closure, a, seeds, k):
        """The rows closure inserts from seeds, stopped after the k-th new
        row (k None: no stop test), and how many rows the stop test saw."""
        seen = []

        def stop(red, row):
            seen.append(row)
            return len(seen) == k

        inserted.clear()
        closure(a, seeds, None if k is None else stop)
        return list(inserted), len(seen)

    monkeypatch.setattr(_Reducer, "insert", recording)
    rng = random.Random(f"closure-order:{field}")
    runs = stopped = reports = 0
    keys = {STABLE: set(), NOT_STABLE: set()}
    for name, params in CLOSURE_CASES:
        a = build(name, field=field, **params).algebra
        for b in (a, dense_basis(a, rng)[0]):
            _generators(b)  # memoized: its own inserts stay out of the record
            seeds = [list(_commutator_rows(b, _int_entries(random_element(b, rng).coords)))
                     for _ in range(3)]
            seeds += [[random_element(b, rng).coords for _ in range(j)] for j in (1, 2)]
            for vectors in seeds:
                full, _ = run(_round_closure, b, vectors, None)
                assert run(_ideal_closure, b, vectors, None) == (full, 0), name
                for k in range(1, len(full) + 1):
                    want = run(_round_closure, b, vectors, k)
                    assert want[0] == full[:k] and want[1] == k
                    assert run(_ideal_closure, b, vectors, k) == want, (name, k)
                    stopped += 1
                runs += 1
            for x in [*(b.basis_element(i) for i in range(b.dim)),
                      *(random_element(b, rng) for _ in range(4))]:
                rep = element_centrally_stable(x)
                keys[rep.verdict].add(frozenset(rep.bases))
                reports += 1
    assert runs == 50 and stopped > runs and reports > 0
    assert keys[STABLE] <= {frozenset({"center"}), frozenset({"center", "commutator_ideal_partial"})}
    assert keys[NOT_STABLE] == {frozenset({"center", "commutator_ideal"})}
    assert frozenset({"center", "commutator_ideal_partial"}) in keys[STABLE]


@pytest.mark.parametrize(("name", "params", "bound"), [
    ("upper_triangular", {"n": 6}, 1293),
    ("r11_radical", {"n": 2, "k": 6}, 4155),
])
def test_element_decision_elimination_work_bounds(name, params, bound, monkeypatch):
    # reducer rows are zero at every other pivot, so a dependent closure
    # product is eliminated once per pivot in its support and no more
    alg = build(name, **params).algebra
    center(alg)  # memoized: only the closures and their stop tests are counted
    rng = random.Random(f"eliminate:{name}")
    xs = [random_element(alg, rng) for _ in range(8)]
    counts = count(monkeypatch, {"entries": 0}, [_RationalReducer, _PrimeReducer], "_eliminate",
                   entries=lambda self, v, c, r, p: len(r))
    for x in xs:
        element_centrally_stable(x)
    assert counts["entries"] <= bound


def _count_row_gcds(monkeypatch):
    """Count the row gcds taken from here on, in all and inside a residual
    or an insert that returns None."""
    counts = count(monkeypatch, {"all": 0, "misplaced": 0}, [linalg], "_row_gcd", all=1)
    count(monkeypatch, counts, [_Reducer], "residual", misplaced=During("all"))
    return count(monkeypatch, counts, [_Reducer], "insert", misplaced=During("all", lambda r: r is None))


@pytest.mark.parametrize(("name", "params", "bound"), [
    ("upper_triangular", {"n": 6}, 504),
    ("r11_radical", {"n": 2, "k": 6}, 839),
])
def test_element_decision_row_gcd_bounds(name, params, bound, monkeypatch):
    # content is removed once per stored row: never while a vector is being
    # reduced, so never in a residual or in an insert that stores nothing
    alg = build(name, **params).algebra
    center(alg)
    rng = random.Random(f"eliminate:{name}")
    xs = [random_element(alg, rng) for _ in range(8)]
    counts = _count_row_gcds(monkeypatch)
    for x in xs:
        element_centrally_stable(x)
    assert counts["misplaced"] == 0
    assert 0 < counts["all"] <= bound


@pytest.mark.parametrize("field", [Q, prime_field(101)], ids=str)
def test_certificate_subspaces_read_off_their_reducers(field):
    # the replayed Id([x, A]) seeded with raw commutator rows, and the
    # NotStable Z + Id([x, A]) taken from the decision's mirror reducer
    verdicts = set()
    for name, params in (
        ("upper_triangular", {"n": 4}),
        ("r11_radical", {"n": 2, "k": 3}),
        ("scalar_plus_strict_upper", {"n": 4}),
        ("matrix_full", {"n": 2}),
    ):
        alg = build(name, field=field, **params).algebra
        z = center(alg)
        rng = random.Random(f"read-off:{name}:{field}")
        for x in [random_element(alg, rng) for _ in range(6)]:
            ideal = ideal_generated(alg, [alg.element(r) for r in commutator_space(x).rows])
            assert stability._commutator_ideal(alg, x.coords) == ideal
            rep = element_centrally_stable(x)
            verdicts.add(rep.verdict)
            if rep.verdict == NOT_STABLE:
                assert rep.certificate.ideal_rows == ideal.rows
                assert rep.certificate.sum_rows == subspace_sum(z, ideal).rows
    assert verdicts == {STABLE, NOT_STABLE}


# -- fuzzing ------------------------------------------------------------------------


def test_fuzz_stable_matrix_over_commutative():
    alg = build("matrix_over_commutative", n=2, k=3).algebra
    rep = fuzz_consistency(alg, ideal_samples=50, element_samples=100, seed=123)
    assert rep.algebra_verdict == STABLE
    assert rep.ok


def test_fuzz_not_stable_algebra_is_vacuous(monkeypatch):
    import importlib

    stability = importlib.import_module("censtab.stability")
    calls = []
    real = stability.quotient_center_oracle
    monkeypatch.setattr(stability, "quotient_center_oracle",
                        lambda a, ideal: calls.append(ideal) or real(a, ideal))
    rep = fuzz_consistency(t3(), ideal_samples=5, element_samples=5, seed=1)
    assert rep.algebra_verdict == NOT_STABLE
    assert rep.ok
    assert calls == []  # a NotStable verdict binds no cross-check, so none is run


def test_fuzz_dimension_one():
    rep = fuzz_consistency(
        build("truncated_poly", k=1).algebra, ideal_samples=5, element_samples=5
    )
    assert rep.ok


def test_fuzz_deterministic():
    alg = build("matrix_full", n=2).algebra
    r1 = fuzz_consistency(alg, 6, 6, seed=9)
    r2 = fuzz_consistency(alg, 6, 6, seed=9)
    assert r1 == r2


# -- transfer laws (spot checks; the acceptance suite quantifies fully) ---------------


def test_tensor_unit_element_transfer():
    alg = t3()
    m2 = build("matrix_full", n=2).algebra
    T = tensor_product(alg, m2)
    for i in range(alg.dim):
        x = alg.basis_element(i)
        x_t = T.element(
            tuple(
                Q.mul(x.coords[j], m2.unity[p])
                for j in range(alg.dim)
                for p in range(m2.dim)
            )
        )
        assert (
            element_centrally_stable(x).verdict
            == element_centrally_stable(x_t).verdict
        )


def test_matrix_algebra_verdict_transfer():
    for name, kw in (("ema", {}), ("truncated_poly", {"k": 2})):
        alg = build(name, **kw).algebra
        for n in (2, 3):
            m = tensor_with_matrices(alg, n)
            assert (
                algebra_centrally_stable(m).verdict
                == algebra_centrally_stable(alg).verdict
            ), f"{name} n={n}"
    t3 = build("upper_triangular", n=3).algebra
    m3 = tensor_with_matrices(t3, 3)  # dimension 54
    assert algebra_centrally_stable(m3).verdict == NOT_STABLE


def test_stable_verdict_agrees_with_exhaustive_element_checks():
    # no basis element or seeded random element of a Stable algebra may fail
    # the element criterion (the converse cannot be sampled: NotStable
    # algebras may hide their witnesses)
    for entry in standard_entries():
        alg = entry.algebra
        if algebra_centrally_stable(alg).verdict != STABLE:
            continue
        for i in range(alg.dim):
            assert element_centrally_stable(alg.basis_element(i)).verdict == STABLE
        rng = random.Random(f"equivalence:{entry.name}:{sorted(entry.params.items(), key=str)}")
        for _ in range(200):
            el = random_element(alg, rng)
            assert element_centrally_stable(el).verdict == STABLE


def test_scalar_plus_strict_upper_only_central_elements_stable():
    # in S_n (n >= 3) the centrally stable elements are exactly the central ones
    for n in (3, 4):
        alg = build("scalar_plus_strict_upper", n=n).algebra
        z = center(alg)
        rng = random.Random(f"sn:{n}")
        for _ in range(40):
            el = random_element(alg, rng)
            rep = element_centrally_stable(el)
            if z.contains(el.coords):
                assert rep.verdict == STABLE
            else:
                assert rep.verdict == NOT_STABLE
        # drive both branches at least once
        assert element_centrally_stable(alg.one()).verdict == STABLE
        assert (
            element_centrally_stable(alg.basis_element(1)).verdict == NOT_STABLE
        )  # e12 is not central in S_n, n >= 3


def test_witness_commutator_ideal_breaks_the_center_oracle():
    # definitional confirmation of every NotStable verdict: quotienting by
    # Id([a, A]) for the witness a makes the image of a central, so the
    # quotient center strictly exceeds the projected center
    for entry in standard_entries():
        rep = algebra_centrally_stable(entry.algebra)
        if rep.verdict != NOT_STABLE:
            continue
        assert isinstance(rep.certificate, UnstableElementWitness), entry.name
        a = entry.algebra.element(rep.certificate.element)
        ideal = ideal_generated(
            entry.algebra,
            [entry.algebra.element(r) for r in commutator_space(a).rows],
        )
        res = quotient_center_oracle(entry.algebra, ideal)
        assert not res.equal, entry.name
        assert res.quotient_center.contains(res.map.project_vec(a.coords))


def test_tensor_unit_transfer_random_elements():
    m2 = build("matrix_full", n=2).algebra
    for name, kw in (("upper_triangular", {"n": 3}), ("ema", {})):
        alg = build(name, **kw).algebra
        T = tensor_product(alg, m2)
        rng = random.Random(f"lik:{name}")
        for _ in range(50):
            x = random_element(alg, rng)
            x_t = T.element(
                tuple(
                    Q.mul(x.coords[j], m2.unity[p])
                    for j in range(alg.dim)
                    for p in range(m2.dim)
                )
            )
            assert (
                element_centrally_stable(x).verdict
                == element_centrally_stable(x_t).verdict
            )


def _lift_from_a_over_j_exists(alg):
    """Whether Z(A/J) cap R/J != 0 for R = rad, J = Id(Z cap R), computed
    on A or A# with the checked quotient, apart from the engine's lifts."""
    work = alg if alg.is_unital else unitization(alg)
    r = radical(work)
    c = subspace_intersect(center(work), r)
    qm = quotient(work, ideal_generated(work, [work.element(row) for row in c.rows]))
    rq = span(work.field, [qm.project_vec(row) for row in r.rows], qm.target.dim)
    return subspace_intersect(center(qm.target), rq).dim > 0


def test_random_subalgebras_are_decided_consistently():
    # random multiplicatively-closed subspaces of matrix algebras make
    # adversarial inputs: unital or not, odd centers, arbitrary radicals; so
    # do their opposites, unitizations, products and tensors with T_2.
    # Every NotStable report carries an unstable element lifted from Z(A/J)
    # exactly when Z(A/J) cap rad(A/J) != 0, and from Z(A/rad) otherwise;
    # it replays, and its commutator ideal breaks the center oracle.  Stable
    # verdicts survive element sampling.
    from censtab.fileformat import report_to_json, verify_report_json

    routes = []
    for field in (Q, prime_field(101)):
        ambients = [
            build("upper_triangular", n=3, field=field).algebra,
            build("upper_triangular", n=4, field=field).algebra,
            build("matrix_full", n=2, field=field).algebra,
            build("matrix_full", n=3, field=field).algebra,
            build("r11_radical", n=2, k=3, field=field).algebra,
        ]
        t2 = build("upper_triangular", n=2, field=field).algebra
        for trial in range(40):
            rng = random.Random(f"subalg:{field.p}:{trial}")
            sub = random_subalgebra(ambients[trial % len(ambients)], rng)
            if sub.dim == 0:
                continue
            other = random_subalgebra(ambients[(trial + 1) % len(ambients)], rng, max_gens=1)
            derived = [sub, opposite(sub)][: 1 + trial % 2]
            if not sub.is_unital:
                derived.append(unitization(sub))
            if trial % 2 == 0 and other.dim and sub.dim + other.dim <= 12:
                derived.append(direct_product(sub, other))
            if trial % 4 == 1 and sub.dim <= 5:
                derived.append(tensor_product(sub, t2))
            for alg in derived:
                case = (field.p, trial, alg.dim)
                rep = algebra_centrally_stable(alg)
                if rep.verdict == STABLE:
                    for _ in range(3):
                        assert element_centrally_stable(random_element(alg, rng)).verdict == STABLE, case
                    continue
                cert = rep.certificate
                assert isinstance(cert, UnstableElementWitness), case
                route = rep.bases["witness_quotient"]
                assert (route == "A/J") == _lift_from_a_over_j_exists(alg), case
                routes.append((route, alg.is_unital))
                doc = report_to_json(alg, rep, command="stable")
                assert doc["bases"]["witness_quotient"] == route
                assert verify_report_json(alg, doc), case
                ideal = span(field, cert.ideal_rows, alg.dim)
                res = quotient_center_oracle(alg, ideal)
                assert not res.equal, case
                assert res.quotient_center.contains(res.map.project_vec(cert.element))
    assert set(routes) == {(r, u) for r in ("A/J", "A/rad") for u in (True, False)}


@pytest.mark.parametrize("field", [Q, prime_field(101)], ids=["Q", "GF101"])
def test_non_unital_algebras_are_decided_in_a_as_in_the_unitization(field):
    # rad(A#) = rad(A), Z(A#) = F 1 + Z(A) and Id_A#(S) = Id_A(S) for S in A,
    # so the decision in A gives the verdict and the lift of A#'s
    from censtab.fileformat import report_to_json, verify_report_json

    verdicts = []
    for a in non_unital_algebras(field, 100):
        uni = unitization(a)
        case = (field.p, a.dim, len(a.table))
        rep, rep_u = algebra_centrally_stable(a), algebra_centrally_stable(uni)
        assert rep.method == "UnitizationThenRadicalCriterion", case
        assert rep.verdict == rep_u.verdict, case
        assert len(rep_u.bases["center"]) == len(rep.bases["center"]) + 1, case
        rad_u = rep_u.bases["radical"]  # the trace-form kernel of unital A#
        assert all(not row[0] for row in rad_u), case
        assert tuple(row[1:] for row in rad_u) == rep.bases["radical"], case
        doc = report_to_json(a, rep, command="stable")
        assert verify_report_json(a, doc), case
        if rep.verdict == NOT_STABLE:
            route = rep.bases["witness_quotient"]
            assert (route == "A/J") == _lift_from_a_over_j_exists(a), case
            assert route == rep_u.bases["witness_quotient"], case
        verdicts.append(rep.verdict)
    assert set(verdicts) == {STABLE, NOT_STABLE}
    assert len(verdicts) >= 30


# -- certificate replay ----------------------------------------------------------------


def test_verify_rejects_tampered_certificates():
    alg = t3()
    rep = element_centrally_stable(alg.basis_element(1))
    cert = rep.certificate
    bad = StableElementWitness(
        cert.element,
        cert.element,  # claim the element itself is the central part
        tuple(Q.zero for _ in cert.element),
    )
    assert not verify_certificate(alg, StabilityReport(STABLE, rep.method, bad))

    arep = algebra_centrally_stable(build("ema").algebra)
    cert = arep.certificate
    wrong = UnstableElementWitness(
        tuple(Q.zero for _ in cert.element),  # zero is inside every ideal
        cert.center_rows,
        cert.ideal_rows,
        cert.sum_rows,
    )
    assert not verify_certificate(
        build("ema").algebra, StabilityReport(NOT_STABLE, arep.method, wrong)
    )


def test_verify_refuses_element_certificates_of_the_wrong_length():
    alg = t3()  # dim 6
    unstable = element_centrally_stable(alg.basis_element(0))
    stable = element_centrally_stable(alg.basis_element(1))
    assert verify_certificate(alg, unstable) and verify_certificate(alg, stable)
    cases = [
        (unstable, replace(unstable.certificate, element=unstable.certificate.element[:2])),
        (unstable, replace(unstable.certificate, element=unstable.certificate.element + (Q.zero,) * 2)),
        (unstable, replace(unstable.certificate, element=())),
        (stable, StableElementWitness((), (), ())),
    ]
    for rep, cert in cases:
        assert verify_certificate(alg, StabilityReport(rep.verdict, rep.method, cert)) is False


@pytest.mark.parametrize("field", [Q, prime_field(101)], ids=["Q", "GF101"])
def test_verify_refuses_a_certificate_of_any_kind_with_one_vector_of_the_wrong_length(field):
    # one vector of the certificate, a member or one of its rows, is cut
    # short or given a zero more: the int entries stay those of the right
    # vector, and only its length tells them apart
    t3 = build("upper_triangular", n=3, field=field).algebra
    p3 = build("truncated_poly", k=3, field=field).algebra
    reports = [(t3, element_centrally_stable(t3.basis_element(1))),
               (t3, element_centrally_stable(t3.element((2, 5, 0, 0, 0, 3)))),
               (p3, algebra_centrally_stable(p3))]
    assert [rep.certificate.kind for _, rep in reports] == [
        "StableElementWitness", "UnstableElementWitness", "RadicalMatch"]
    seen = set()
    for a, rep in reports:
        cert = rep.certificate
        assert verify_certificate(a, rep)
        for member in fields(cert):
            val = getattr(cert, member.name)
            rows = member.name.endswith("_rows")
            for k in range(len(val)) if rows else (None,):
                v = val[k] if rows else val
                for wrong in (v[:-1], v + (field.zero,)):
                    new = val[:k] + (wrong,) + val[k + 1:] if rows else wrong
                    bad = replace(rep, certificate=replace(cert, **{member.name: new}))
                    assert verify_certificate(a, bad) is False, (member.name, k, len(wrong))
                    seen.add((cert.kind, member.name))
    assert len(seen) == 9


def test_a_lift_that_tests_stable_is_a_consistency_error(monkeypatch):
    monkeypatch.setattr(
        stability,
        "element_centrally_stable",
        lambda x: StabilityReport(STABLE, "ElementCriterion", None),
    )
    with pytest.raises(ConsistencyError, match="non-stable element"):
        algebra_centrally_stable(t3())


def test_an_a_j_lift_that_tests_stable_is_a_consistency_error_with_an_a_rad_lift_left(monkeypatch):
    # both lifts exist here, A/J's first; a stable A/J lift is an engine
    # fault even though the A/rad lift would still be a witness
    a = direct_product(build("strict_upper", n=3).algebra, build("upper_triangular", n=2).algebra)
    real = stability._central_lifts

    def stable_first(a, z, r, j):
        lifts = list(real(a, z, r, j))
        assert [where for where, _ in lifts] == ["A/J", "A/rad"]
        yield "A/J", (a.field.zero,) * a.dim  # 0 is central, so stable
        yield from lifts[1:]

    monkeypatch.setattr(stability, "_central_lifts", stable_first)
    with pytest.raises(ConsistencyError, match="no lift from Z\\(A/J\\) or Z\\(A/rad\\)"):
        algebra_centrally_stable(a)


def _old_central_lifts(a, z, r, j):
    """The witness lifts as they were, read off the quotient algebras A/J
    and A/R, each built with its own generators and center."""
    f = a.field
    qj = quotient(a, j)
    proj = [qj.project_vec(row) for row in r.rows]
    inter = subspace_intersect(center(qj.target), span(f, proj, qj.target.dim))
    if inter.dim > 0:
        coeffs = express_in_span(f, proj, inter.rows[0], qj.target.dim)
        yield "A/J", linalg._linear_combination(f, coeffs, r.rows, a.dim)
    qr = quotient(a, r)
    image = span(f, [qr.project_vec(row) for row in z.rows], qr.target.dim)
    for row in center(qr.target).rows:
        if not image.contains(row):
            v = [f.zero] * a.dim
            for col, val in zip(qr.free_cols, row):
                v[col] = val
            yield "A/rad", tuple(v)
            return


@pytest.mark.parametrize("field", [Q, prime_field(101)], ids=["Q", "GF101"])
def test_the_lifts_computed_in_a_are_those_read_off_the_quotients(field):
    # Z(A/J) cap R/J and Z(A/R) come from the kernel of c -> [sum c_k b_k,
    # e_g] mod I in A's coordinates: the same canonical subspaces as on the
    # built quotients, so every lift, on both routes, keeps its coordinates
    rng = random.Random(f"lifts:{field.p}")
    unstable = [e.algebra for e in standard_entries(field) if e.expected.verdict == NOT_STABLE]
    stable = [e.algebra for e in standard_entries(field) if e.expected.verdict == STABLE]
    algebras = unstable + [dense_basis(a, rng)[0] for a in unstable if a.dim <= 10]
    algebras += non_unital_algebras(field, 20)
    algebras += [direct_product(a, stable[i % len(stable)]) for i, a in enumerate(unstable) if a.dim <= 8]
    # a product of an A/J case and an A/rad case has both lifts
    algebras += [direct_product(a, b) for i, a in enumerate(unstable) for b in unstable[i + 1:]
                 if a.dim + b.dim <= 7]
    routes = []
    for idx, a in enumerate(algebras):
        z, r = center(a), radical(a)
        j = ideal_generated(a, [a.element(row) for row in subspace_intersect(z, r).rows])
        if j == r:
            continue
        lifts = list(stability._central_lifts(a, z, r, j))
        assert lifts == list(_old_central_lifts(a, z, r, j)), idx
        routes.append(tuple(where for where, _ in lifts))
    assert {route[0] for route in routes} == {"A/J", "A/rad"}
    assert ("A/J", "A/rad") in routes


# -- replay checks a claimed radical; it does not compute one -------------------


def _claim_radical(a, rows):
    """A RadicalMatch of a claiming span(rows) as its radical, consistent in
    everything else: Z cap rad and Id(Z cap rad) are taken from the claim."""
    from censtab.algebras import center, ideal_generated

    rad = span(a.field, rows, a.dim)
    c = subspace_intersect(center(a), rad)
    assert ideal_generated(a, [a.element(r) for r in c.rows]) == rad
    return RadicalMatch(rad.rows, c.rows)


def test_replay_rejects_a_claimed_radical_that_is_not_the_radical():
    from censtab.radical import radical_failure
    from censtab.stability import StabilityReport as SR

    a = build("truncated_poly", k=4).algebra  # basis 1, x, x^2, x^3
    rep = algebra_centrally_stable(a)
    assert rep.certificate.radical_rows == radical(a).rows
    assert verify_certificate(a, rep)
    e = [tuple(Q.one if i == j else Q.zero for i in range(4)) for j in range(4)]
    # (x^2) is a nilpotent ideal, but the quotient F[x]/(x^2) is not semisimple
    small = _claim_radical(a, e[2:])
    assert "not semisimple" in radical_failure(a, span(Q, e[2:], 4))
    assert not verify_certificate(a, SR(STABLE, rep.method, small))
    # the whole algebra is an ideal, but not a nilpotent one
    large = _claim_radical(a, e)
    assert "not nilpotent" in radical_failure(a, span(Q, e, 4))
    assert not verify_certificate(a, SR(STABLE, rep.method, large))
    # the true radical with rows that are not its canonical basis
    true = rep.certificate
    for rows in (true.radical_rows[::-1], tuple(tuple(2 * c for c in r) for r in true.radical_rows)):
        assert radical_failure(a, span(Q, rows, 4)) is None
        bad = RadicalMatch(rows, true.center_cap_radical_rows)
        assert not verify_certificate(a, SR(STABLE, rep.method, bad))
    # rows of the wrong length are refused, not raised on
    short = RadicalMatch(tuple(r[1:] for r in true.radical_rows), true.center_cap_radical_rows)
    assert not verify_certificate(a, SR(STABLE, rep.method, short))


def test_replay_of_a_radical_certificate_computes_no_radical(monkeypatch):
    import importlib

    from censtab.stability import StabilityReport as SR

    reports = []
    for name, params in (("truncated_poly", {"k": 4}), ("ema", {}), ("strict_upper", {"n": 2}),
                         ("strict_upper", {"n": 3})):
        a = build(name, **params).algebra
        reports.append((a, algebra_centrally_stable(a)))
    assert {(a.is_unital, type(rep.certificate).__name__) for a, rep in reports} == {
        (u, k) for u in (True, False) for k in ("RadicalMatch", "UnstableElementWitness")
    }
    calls = []
    stability = importlib.import_module("censtab.stability")
    radical_module = importlib.import_module("censtab.radical")
    for module in (stability, radical_module):
        real = module.radical
        monkeypatch.setattr(module, "radical", lambda a, real=real: calls.append(a) or real(a))
    for a, rep in reports:
        assert verify_certificate(a, rep)
    assert calls == []


def test_replay_checks_that_the_report_fits_its_certificate():
    from censtab.stability import StabilityReport as SR

    m2 = build("matrix_full", n=2).algebra
    rep = algebra_centrally_stable(m2)
    match = rep.certificate
    assert isinstance(match, RadicalMatch) and verify_certificate(m2, rep)
    assert not verify_certificate(m2, SR("Banana", "ElementCriterion", match))
    assert not verify_certificate(m2, SR(STABLE, "ElementCriterion", match))
    assert not verify_certificate(m2, SR(NOT_STABLE, rep.method, match))
    # the radical method is the one that fits the algebra's unity
    assert not verify_certificate(m2, SR(STABLE, "UnitizationThenRadicalCriterion", match))
    n2 = build("strict_upper", n=2).algebra
    rep = algebra_centrally_stable(n2)
    assert rep.method == "UnitizationThenRadicalCriterion" and verify_certificate(n2, rep)
    assert not verify_certificate(n2, SR(STABLE, "RadicalCriterion", rep.certificate))


def test_replay_rejects_an_engine_report_altered_in_one_claim():
    # each report is one the engine wrote, with one claim changed so that it
    # is still well-formed, and each change is caught by its own replay step
    t3, p3 = build("upper_triangular", n=3).algebra, build("truncated_poly", k=3).algebra
    stable = element_centrally_stable(t3.basis_element(1))  # e12 = 0 + e12
    unstable = element_centrally_stable(t3.basis_element(0))  # e11
    match = algebra_centrally_stable(p3)  # rad = Z cap rad = (x, x^2)
    e = [tuple(Q.one if i == j else Q.zero for i in range(t3.dim)) for j in range(t3.dim)]
    s, u, m = stable.certificate, unstable.certificate, match.certificate
    assert len(u.sum_rows) == 3 and len(m.center_cap_radical_rows) == 2
    altered = [
        (t3, stable, replace(s, ideal_part=e[2])),  # z + u != x
        (t3, unstable, replace(u, center_rows=(e[1],))),  # not the rows of Z(A)
        (t3, unstable, replace(u, sum_rows=u.sum_rows[:-1])),  # not those of Z + Id([x, A])
        # the radical holds, but Z cap rad is not (x^2)
        (p3, match, replace(m, center_cap_radical_rows=m.center_cap_radical_rows[1:])),
    ]
    for a, rep, cert in altered:
        assert verify_certificate(a, rep) and replays(a, rep)
        bad = replace(rep, certificate=cert)
        assert not verify_certificate(a, bad) and not replays(a, bad), cert


def test_replay_rejects_a_certificate_of_an_unknown_class():
    # the library takes any object; the file format cannot write one
    @dataclass(frozen=True)
    class Foreign:
        element: tuple

    a = t3()
    rep = StabilityReport(NOT_STABLE, "ElementCriterion", Foreign(a.basis_element(0).coords))
    assert verify_certificate(a, rep) is False
    with pytest.raises(TypeError, match="unknown certificate"):
        report_to_json(a, rep, command="element")


@pytest.mark.parametrize("field", [Q, prime_field(101)], ids=["Q", "GF101"])
def test_replay_rejects_a_non_central_part_and_an_ideal_part_outside_the_ideal(field):
    # the two checks of a Stable witness, each failing alone, on the report
    # the engine wrote for e12 = 0 + e12 in T_3 (basis e11, e12, e13, e22,
    # e23, e33): z = e13 is not central, though u = e12 - e13 lies in
    # Id([e12, T_3]) = span(e12, e13); and z = 0 is central, but u = e11 is
    # not in Id([e11, T_3]) = span(e12, e13)
    a = build("upper_triangular", n=3, field=field).algebra
    rep = element_centrally_stable(a.basis_element(1))
    e = [a.basis_element(i).coords for i in range(a.dim)]
    zero = (field.zero,) * a.dim
    e12_minus_e13 = tuple(field.sub(x, y) for x, y in zip(e[1], e[2]))
    assert verify_certificate(a, rep) and replays(a, rep)
    assert in_commutator_ideal(a.element(e[1]), _int_entries(e12_minus_e13))
    assert not _is_central(a, e[2]) and _is_central(a, zero)
    for cert in (replace(rep.certificate, central_part=e[2], ideal_part=e12_minus_e13),
                 StableElementWitness(e[0], zero, e[0])):
        bad = replace(rep, certificate=cert)
        assert not verify_certificate(a, bad) and not replays(a, bad), cert


@pytest.mark.parametrize("field", [Q, prime_field(101)], ids=["Q", "GF101"])
def test_is_central_agrees_with_dense_products_with_every_basis_vector(field):
    # the reference multiplies z by every e_i over the exact table, not
    # through the generating set
    rng = random.Random(f"central:{field}")
    seen = {True: 0, False: 0}
    for entry in standard_entries(field):
        a = entry.algebra
        basis = [a.basis_element(i).coords for i in range(a.dim)]
        z_rows = list(center(a).rows)
        zs = z_rows + basis + [random_element(a, rng).coords for _ in range(3)]
        for row in z_rows:  # central, and central plus one basis vector
            comb = [field.mul(field.random_scalar(rng), x) for x in row]
            zs.append(comb)
            zs.append([field.add(x, y) for x, y in zip(comb, basis[rng.randrange(a.dim)])])
        for z in zs:
            want = all(dense_product(a, z, e) == dense_product(a, e, z) for e in basis)
            assert _is_central(a, z) == want, (entry.description, z)
            seen[want] += 1
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("field", [Q, prime_field(101)], ids=["Q", "GF101"])
def test_center_cap_is_the_center_intersected_by_zassenhaus(field):
    # for V = rad, 0, A and a random ideal, on the catalog entries up to
    # dim 16 and their dense presentations, whose int rows have pivot
    # entries other than 1
    rng = random.Random(f"center-cap:{field}")
    seen = 0
    for entry in standard_entries(field):
        a = entry.algebra
        if a.dim > 16:
            continue
        for b in (a, dense_basis(a, rng)[0]):
            ideal = ideal_generated(b, [random_element(b, rng)])
            whole = span(field, [b.basis_element(i).coords for i in range(b.dim)], b.dim)
            for v in (radical(b), span(field, [], b.dim), whole, ideal):
                assert _center_cap(b, v) == subspace_intersect(center(b), v), entry.description
                seen += 1
    assert seen >= 100, seen


@pytest.mark.parametrize("field", [Q, prime_field(101)], ids=["Q", "GF101"])
def test_a_claimed_center_cap_one_row_off_is_rejected_by_the_old_and_new_check(field):
    # M_2(F[x]/x^2) is stable with rad = M_2(x F) and Z cap rad = F x1;
    # the claim loses that row, or gains one more radical row, and both
    # Zassenhaus on Z(A) and `_center_cap` find rows other than the claim
    a = build("matrix_over_commutative", n=2, k=2, field=field).algebra
    rep = algebra_centrally_stable(a)
    m = rep.certificate
    rad = span(field, m.radical_rows, a.dim)
    cap = span(field, m.center_cap_radical_rows, a.dim)
    assert isinstance(m, RadicalMatch) and (cap.dim, rad.dim) == (1, 4)
    extra = next(row for row in rad.rows if not cap.contains(row))
    sub, sup = (), span(field, list(cap.rows) + [extra], a.dim).rows
    assert verify_certificate(a, rep) and replays(a, rep)
    for claim in (sub, sup):
        assert subspace_intersect(center(a), rad).rows != claim
        assert _center_cap(a, rad).rows != claim
        cert = replace(m, center_cap_radical_rows=claim)
        bad = replace(rep, certificate=cert)
        assert not verify_certificate(a, bad) and not replays(a, bad), claim


def _count_replay_work(monkeypatch):
    """Count from here on: products through the two basis-product methods,
    commutator rows [x, e_i] read off the index, and reducer inserts."""
    counts = count_products(monkeypatch, {"products": 0, "commutator_rows": 0, "inserts": 0})
    count(monkeypatch, counts, [stability], "_commutator_rows", commutator_rows=1)
    return count(monkeypatch, counts, [_Reducer], "insert", inserts=1)


def _tensor_report():
    a = build("matrix_full", n=3).algebra
    rng = random.Random("replay-work:tensor")
    t = [Q.random_scalar(rng) for _ in range(a.dim * 4)]
    rep = decompose_tensor_element(a, 2, t).full_report
    return rep, tensor_with_matrices(reloaded(a), 2)


def _unstable_report():
    a = build("upper_triangular", n=6).algebra
    rep = element_centrally_stable(random_element(a, random.Random("replay-work:unstable")))
    return rep, reloaded(a)


def _radical_report():
    a = build("truncated_poly", k=6).algebra
    return algebra_centrally_stable(a), reloaded(a)


@pytest.mark.parametrize(("make", "kind", "bounds"), [
    (_tensor_report, "StableElementWitness", {"products": 556, "commutator_rows": 0, "inserts": 213}),
    (_unstable_report, "UnstableElementWitness", {"products": 154, "commutator_rows": 21, "inserts": 122}),
    (_radical_report, "RadicalMatch", {"products": 40, "commutator_rows": 0, "inserts": 22}),
], ids=["tensor-stable", "t6-unstable", "p6-radical"])
def test_replay_work_bounds(make, kind, bounds, monkeypatch):
    # the replay of each fixed report stays within its products and inserts;
    # a Stable replay, element or algebra, builds no center
    rep, b = make()
    assert rep.certificate.kind == kind
    counts = _count_replay_work(monkeypatch)
    assert verify_certificate(b, rep)
    assert all(counts[key] <= bound for key, bound in bounds.items()), counts
    if kind != "UnstableElementWitness":
        assert "center" not in b._memo


def test_every_rejection_of_verify_certificate_is_reached():
    # each `return False` of the replay runs in some rejection test above
    import inspect
    from pathlib import Path

    from linetrace import executed

    lines, start = inspect.getsourcelines(verify_certificate)
    path = Path(inspect.getsourcefile(verify_certificate)).resolve()
    rejections = {start + i for i, line in enumerate(lines) if line.strip() == "return False"}
    assert len(rejections) == 12

    def reject():
        test_replay_checks_that_the_report_fits_its_certificate()
        test_verify_refuses_element_certificates_of_the_wrong_length()
        test_verify_rejects_tampered_certificates()
        test_replay_rejects_an_engine_report_altered_in_one_claim()
        test_replay_rejects_a_non_central_part_and_an_ideal_part_outside_the_ideal(Q)
        test_replay_rejects_a_claimed_radical_that_is_not_the_radical()
        test_replay_rejects_a_certificate_of_an_unknown_class()

    reached = {line for p, line in executed(reject) if p == path}
    assert rejections <= reached, sorted(rejections - reached)


@pytest.mark.parametrize("field", [Q, prime_field(101)], ids=["Q", "GF101"])
def test_radical_of_the_quotient_by_the_criterion_ideal_is_the_projected_radical(field):
    # the A/J lift takes rad(A/J) as rad(A)/J for J = Id(Z cap rad)
    seen = 0
    for entry in standard_entries(field):
        if entry.expected.verdict != NOT_STABLE:
            continue
        a = entry.algebra
        work = a if a.is_unital else unitization(a)
        r = radical(work)
        c = subspace_intersect(center(work), r)
        j = ideal_generated(work, [work.element(row) for row in c.rows])
        qm = quotient(work, j)
        projected = span(field, [qm.project_vec(row) for row in r.rows], qm.target.dim)
        assert radical(qm.target) == projected, entry.description
        seen += 1
    assert seen >= 5
