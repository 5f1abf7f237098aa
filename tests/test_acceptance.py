"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print.
Everything is exact arithmetic; tolerances are zero throughout.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from censtab.algebras import (
    center,
    direct_product,
    ideal_generated,
    quotient,
    unitization,
)
from censtab.catalog import build, standard_entries
from censtab.cli import main as cli_main
from censtab.errors import UnsupportedCharacteristic
from censtab.fileformat import dump_json, report_to_json
from censtab.linalg import span, subspace_intersect
from censtab.radical import radical
from censtab.scalars import RATIONALS as Q, prime_field
from censtab.stability import (
    NOT_STABLE,
    STABLE,
    UnstableElementWitness,
    algebra_centrally_stable,
    decompose_tensor_element,
    element_centrally_stable,
    quotient_center_oracle,
    random_element,
    tensor_with_matrices,
    verify_certificate,
)
from oracle import dense_product, ema_maximal_ideal, reloaded, replays, strip_timings

F = Fraction


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def entry_key(e):
    params = {k: v for k, v in e.params.items() if k != "field"}
    return f"{e.name}{tuple(sorted(params.items()))}" if params else e.name


# -- criterion 1: verdict table -------------------------------------------------


def test_criterion_1_verdict_table():
    with criterion(1, "verdict table"):
        for entry in standard_entries():
            t0 = time.perf_counter()
            rep = algebra_centrally_stable(entry.algebra)
            elapsed = time.perf_counter() - t0
            assert elapsed < 5.0, f"{entry_key(entry)} took {elapsed:.2f}s"
            assert rep.verdict == entry.expected.verdict, entry_key(entry)
            if entry.name == "upper_triangular":
                assert isinstance(rep.certificate, UnstableElementWitness)
                assert verify_certificate(entry.algebra, rep)


# -- criterion 2: element census of T_3 -------------------------------------------


def test_criterion_2_t3_element_census():
    with criterion(2, "T_3 element census"):
        t3 = build("upper_triangular", n=3).algebra
        stable_labels = set()
        for i in range(t3.dim):
            rep = element_centrally_stable(t3.basis_element(i))
            if rep.verdict == STABLE:
                stable_labels.add(t3.label(i))
        assert stable_labels == {"e12", "e13", "e23"}
        rng = random.Random("criterion2")
        for _ in range(100):
            lam, a, b, c = (Q.random_scalar(rng) for _ in range(4))
            el = t3.element((lam, a, b, lam, c, lam))  # scalar + strictly upper
            assert element_centrally_stable(el).verdict == STABLE


# -- criterion 3: structural dimensions --------------------------------------------


def test_criterion_3_structural_dims():
    with criterion(3, "structural dimensions"):
        s4 = build("scalar_plus_strict_upper", n=4).algebra
        z = center(s4)
        assert z.dim == 2
        e14 = [Q.zero] * s4.dim
        e14[s4.labels.index("e14")] = Q.one
        assert z == span(Q, [s4.unity, e14], s4.dim)

        ema = build("ema")
        assert center(ema.algebra).dim == 1
        rad = radical(ema.algebra)
        assert rad.dim == 2
        qm = quotient(ema.algebra, rad)
        assert qm.target.dim == 3
        assert radical(qm.target).dim == 0  # semisimple

        exg = build("exg").algebra
        assert center(exg).dim == 2

        exh = build("exh_rational").algebra
        rad = radical(exh)
        assert rad.dim == 2
        assert subspace_intersect(center(exh), rad).dim == 0


# -- criterion 4: quotient-center oracle --------------------------------------------


def test_criterion_4_oracle_consistency():
    with criterion(4, "quotient-center oracle"):
        for entry in standard_entries():
            if entry.expected.verdict != STABLE:
                continue
            alg = entry.algebra
            for idx in range(50):
                rng = random.Random(f"criterion4:{entry_key(entry)}:{idx}")
                gens = [random_element(alg, rng) for _ in range(rng.randint(1, 2))]
                ideal = ideal_generated(alg, gens)
                res = quotient_center_oracle(alg, ideal)
                assert res.equal, f"{entry_key(entry)} sample {idx}"
                sub = algebra_centrally_stable(res.map.target)
                assert sub.verdict == STABLE, f"{entry_key(entry)} sample {idx}"
        ema = build("ema")
        res = quotient_center_oracle(ema.algebra, ema_maximal_ideal(ema.algebra))
        assert not res.equal
        assert res.quotient_center.dim == 2
        assert res.center_image.dim == 1


# -- criterion 5: tensor decomposition ------------------------------------------------


def test_criterion_5_tensor_decomposition():
    with criterion(5, "tensor decomposition"):
        cases = [build("upper_triangular", n=3), build("ema")]
        for entry in cases:
            alg = entry.algebra
            for n in (2, 3):
                T = tensor_with_matrices(alg, n)
                rng = random.Random(f"criterion5:{entry.name}:{n}")
                for _ in range(25):
                    t_el = random_element(T, rng)
                    dec = decompose_tensor_element(alg, n, t_el.coords)
                    assert dec.checks["stable_part_in_own_commutator_ideal"]
                    assert dec.checks["stable_part_in_full_commutator_ideal"]
                    if dec.diagonal_report.verdict == STABLE:
                        assert dec.full_report is not None
                        assert dec.full_report.verdict == STABLE
                        assert replays(T, dec.full_report, tensor_with_matrices(reloaded(alg), n),
                                       command="element")


# -- criterion 6: closure laws ----------------------------------------------------------


def test_criterion_6_closure_laws():
    with criterion(6, "closure laws"):
        entries = standard_entries()
        verdicts = {
            id(e): algebra_centrally_stable(e.algebra).verdict
            for e in entries
        }
        # direct products up to dimension 40
        for i, a in enumerate(entries):
            for b in entries[i:]:
                if a.algebra.dim + b.algebra.dim > 40:
                    continue
                prod = direct_product(a.algebra, b.algebra)
                got = algebra_centrally_stable(prod).verdict
                want = (
                    STABLE
                    if verdicts[id(a)] == STABLE and verdicts[id(b)] == STABLE
                    else NOT_STABLE
                )
                assert got == want, f"{entry_key(a)} x {entry_key(b)}"
        # M_2(A) keeps the verdict (desk scale: dim M_2(A) <= 64)
        for e in entries:
            if 4 * e.algebra.dim > 64:
                continue
            m = tensor_with_matrices(e.algebra, 2)
            got = algebra_centrally_stable(m).verdict
            assert got == verdicts[id(e)], entry_key(e)
        # element transfer a -> a (x) 1 into A (x) M_2
        for name, kw in (("upper_triangular", {"n": 3}), ("ema", {})):
            alg = build(name, **kw).algebra
            T = tensor_with_matrices(alg, 2)
            for i in range(alg.dim):
                x = alg.basis_element(i)
                lifted = [Q.zero] * T.dim
                for q in (0, 1):
                    lifted[i * 4 + q * 2 + q] = Q.one
                assert (
                    element_centrally_stable(x).verdict
                    == element_centrally_stable(T.element(lifted)).verdict
                ), f"{name} basis {i}"


# -- criterion 7: unitization coherence ---------------------------------------------------


def test_criterion_7_unitization_coherence():
    with criterion(7, "unitization coherence"):
        for name, kw in (("strict_upper", {"n": 3}), ("r11_radical", {"n": 2, "k": 3})):
            entry = build(name, **kw)
            rep = algebra_centrally_stable(entry.algebra)
            assert rep.method == "UnitizationThenRadicalCriterion"
            assert rep.verdict == NOT_STABLE
            # the witness is an element of A itself, confirmed and certified
            assert isinstance(rep.certificate, UnstableElementWitness)
            assert len(rep.certificate.element) == entry.algebra.dim
            assert verify_certificate(entry.algebra, rep)
            inner = element_centrally_stable(
                entry.algebra.element(rep.certificate.element)
            )
            assert inner.verdict == NOT_STABLE

        two = build("strict_upper", n=2)
        rep = algebra_centrally_stable(two.algebra)
        assert rep.verdict == STABLE
        rng = random.Random("criterion7")
        for _ in range(100):
            el = random_element(two.algebra, rng)
            assert element_centrally_stable(el).verdict == STABLE


# -- criterion 8: radical postconditions ------------------------------------------------


def _dense_gram(alg):
    """Trace-form Gram matrix from dense left-multiplication matrices.

    Independent of the radical module: builds each L_{e_i} as a full matrix,
    multiplies them, and takes honest traces of the products.
    """
    n = alg.dim
    mats = []
    for i in range(n):
        ei = [alg.field.zero] * n
        ei[i] = alg.field.one
        cols = []
        for j in range(n):
            ej = [alg.field.zero] * n
            ej[j] = alg.field.one
            cols.append(dense_product(alg, ei, ej))
        mats.append([[cols[j][r] for j in range(n)] for r in range(n)])
    f = alg.field
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = f.zero
            for r in range(n):
                for s in range(n):
                    x = mats[i][r][s]
                    y = mats[j][s][r]
                    if x and y:
                        acc = f.add(acc, f.mul(x, y))
            row.append(acc)
        gram.append(row)
    return gram


def _has_separability_idempotent(alg):
    """Solve for e in A (x) A with mu(e) = 1 and x.e = e.x for basis x.

    Over a perfect base field this is equivalent to semisimplicity; the
    system is linear in the n^2 unknown coefficients of e.
    """
    n = alg.dim
    f = alg.field
    if alg.unity is None:
        return False
    rows = {}

    def bump(row_key, col, val):
        row = rows.setdefault(row_key, [f.zero] * (n * n))
        row[col] = f.add(row[col], val)

    for t in range(n):
        # sum_ij lam_ij [ (e_t e_i) (x) e_j - e_i (x) (e_j e_t) ] = 0
        for i in range(n):
            for j in range(n):
                col = i * n + j
                for k, c in alg.table.get((t, i), ()):
                    bump((t, k, j), col, c)
                for k, c in alg.table.get((j, t), ()):
                    bump((t, i, k), col, f.neg(c))
    eq_rows = list(rows.values())
    rhs = [f.zero] * len(eq_rows)
    # mu(e) = 1: one equation per target coordinate
    for k in range(n):
        row = [f.zero] * (n * n)
        for (i, j), pairs in alg.table.items():
            for kk, c in pairs:
                if kk == k:
                    row[i * n + j] = f.add(row[i * n + j], c)
        eq_rows.append(row)
        rhs.append(alg.unity[k])
    # solvable exactly when rank [R] = rank [R | b]
    augmented = [list(row) + [b] for row, b in zip(eq_rows, rhs)]
    return span(f, eq_rows, n * n).dim == span(f, augmented, n * n + 1).dim


def test_criterion_8_radical_postconditions():
    with criterion(8, "radical postconditions"):
        for entry in standard_entries():
            alg = entry.algebra
            rad = radical(alg)  # internal re-checks: ideal, nilpotent, quotient
            # independent re-verification, away from the radical module:
            red_basis = span(alg.field, rad.rows, alg.dim)
            for v in rad.rows:
                for i in range(alg.dim):
                    e = alg.basis_element(i).coords
                    assert red_basis.contains(dense_product(alg, e, v))
                    assert red_basis.contains(dense_product(alg, v, e))
            # nilpotency by explicit powers
            cur = list(rad.rows)
            for _ in range(alg.dim + 1):
                if not cur:
                    break
                nxt = []
                for x in cur:
                    for r in rad.rows:
                        prod = dense_product(alg, r, x)
                        if any(prod):
                            nxt.append(prod)
                cur = list(span(alg.field, nxt, alg.dim).rows)
            assert not cur, f"radical of {entry_key(entry)} not nilpotent"
            # semisimple quotient: dense Gram of the unitization quotient has
            # full rank, and small quotients admit a separability idempotent
            u = unitization(alg)
            rad_u = radical(u)
            qm = quotient(u, rad_u)
            gram = _dense_gram(qm.target)
            assert (
                span(alg.field, gram, qm.target.dim).dim == qm.target.dim
            ), f"quotient Gram of {entry_key(entry)} is singular"
            if qm.target.dim <= 10:
                assert _has_separability_idempotent(qm.target), entry_key(entry)

        # negative control for the independent oracles
        t2 = build("upper_triangular", n=2).algebra
        assert span(Q, _dense_gram(t2), 3).dim < 3
        assert not _has_separability_idempotent(t2)

        # characteristic guard (p <= dim refused, p = dim + 1 decided and
        # replayed) and GF(101) reproductions
        with pytest.raises(UnsupportedCharacteristic):
            radical(build("matrix_full", n=2, field=prime_field(3)).algebra)
        m2 = build("matrix_full", n=2, field=prime_field(5)).algebra
        assert radical(m2).dim == 0
        rep = algebra_centrally_stable(m2)
        assert rep.verdict == STABLE and verify_certificate(m2, rep)
        for n in (1, 2, 3, 4):
            entry = build("matrix_full", n=n, field=prime_field(101))
            assert algebra_centrally_stable(entry.algebra).verdict == STABLE
        for n in (2, 3, 4):
            entry = build("upper_triangular", n=n, field=prime_field(101))
            assert algebra_centrally_stable(entry.algebra).verdict == NOT_STABLE


# -- criterion 9: determinism ---------------------------------------------------------


def test_criterion_9_determinism(tmp_path, capsys):
    with criterion(9, "determinism"):
        # API level: the full roster of reports, twice, byte for byte
        def roster_reports():
            docs = []
            for entry in standard_entries():
                rep = algebra_centrally_stable(entry.algebra)
                docs.append(dump_json(report_to_json(entry.algebra, rep, command="stable")))
            return "".join(docs)

        assert roster_reports() == roster_reports()

        # CLI level: identical inputs and seed give identical --json bytes
        t3 = str(tmp_path / "t3.json")
        assert cli_main(["construct", "upper_triangular", "--n", "3", "-o", t3]) == 0
        capsys.readouterr()
        outs = []
        for argv in (
            ["stable", t3, "--json"],
            ["stable", t3, "--json"],
            ["element", t3, "--coords", "1,0,0,0,0,0", "--json"],
            ["element", t3, "--coords", "1,0,0,0,0,0", "--json"],
            ["fuzz", t3, "--ideals", "5", "--elements", "5", "--seed", "3", "--json"],
            ["fuzz", t3, "--ideals", "5", "--elements", "5", "--seed", "3", "--json"],
        ):
            assert cli_main(argv) == 0
            outs.append(strip_timings(capsys.readouterr().out))
        assert outs[0] == outs[1]
        assert outs[2] == outs[3]
        assert outs[4] == outs[5]
