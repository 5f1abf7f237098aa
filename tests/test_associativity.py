"""The associativity check through the generating set against the full walk.

`build_algebra` checks (e_x e_g) e_y = e_x (e_g e_y) for g in
`_generators(a)` only, and walks every basis triple only when that fails,
to name the first failing one.  These tests perturb one structure constant
of a catalog table, or of its dense presentation, at a time, and check that
the table is refused exactly when the walk over every triple finds a
failure, with the same triple; that valid tables never reach the walk; and
that the generating set built at load is the one the decision reads.
"""

import importlib
import random

import pytest

from censtab.algebras import Algebra, _first_failing_triple, build_algebra
from censtab.catalog import build, standard_entries
from censtab.errors import NotAssociative
from censtab.fileformat import algebra_from_json, algebra_to_json, report_to_json, verify_report_json
from censtab.scalars import RATIONALS as Q, prime_field
from censtab.stability import algebra_centrally_stable
from oracle import CASES, count, dense_basis, derived_from_table, revalidate

algebras = importlib.import_module("censtab.algebras")

FIELDS = pytest.mark.parametrize("field", [Q, prime_field(101)], ids=str)


def _walk_witness(field, dim, table):
    """The first failing triple of the walk over every basis triple, on the
    table as it is (no generating set, no unity), or None."""
    a = derived_from_table(field, dim, table)
    try:
        _first_failing_triple(a)
    except NotAssociative as exc:
        return exc.witness
    return None


def _perturbed(a, rng):
    """a's table with one structure constant c_ij^k moved by a small nonzero
    amount, at a seeded position: an entry of the table half of the time,
    any pair (i, j) otherwise."""
    f, n = a.field, a.dim
    table = {key: dict(pairs) for key, pairs in a.table.items()}
    if table and rng.random() < 0.5:
        i, j = rng.choice(sorted(table))
    else:
        i, j = rng.randrange(n), rng.randrange(n)
    k = rng.randrange(n)
    entry = table.setdefault((i, j), {})
    entry[k] = f.add(entry.get(k, f.zero), f.coerce(rng.choice((-2, -1, 1, 2))))
    return {key: list(pairs.items()) for key, pairs in table.items()}


@FIELDS
def test_generating_set_check_refuses_exactly_what_the_full_walk_refuses(field):
    rng = random.Random(f"perturb:{field}")
    seen = {"refused": 0, "accepted": 0}
    for name, params in CASES:
        a = build(name, field=field, **params).algebra
        for b in (a, dense_basis(a, rng)[0]):
            for _ in range(20):
                table = _perturbed(b, rng)
                want = _walk_witness(field, b.dim, table)
                if want is None:
                    revalidate(build_algebra(field, b.dim, table))
                    seen["accepted"] += 1
                    continue
                with pytest.raises(NotAssociative) as exc:
                    build_algebra(field, b.dim, table)
                assert exc.value.witness == want, (name, table)
                assert str(exc.value) == "(e{}*e{})*e{} != e{}*(e{}*e{})".format(*want, *want)
                seen["refused"] += 1
    assert seen["refused"] >= 250 and seen["accepted"] > 0, seen


@FIELDS
def test_valid_catalog_tables_never_reach_the_full_walk(field, monkeypatch):
    calls = count(monkeypatch, {"walked": []}, [algebras], "_first_failing_triple",
                  walked=lambda a: [a.dim])["walked"]
    entries = standard_entries(field) + [
        build("truncated_poly", field=field, k=24),
        build("upper_triangular", field=field, n=6),
        build("matrix_over_commutative", field=field, n=3, k=3),
        build("r11_radical", field=field, n=3, k=4),
    ]
    for entry in entries:
        a = entry.algebra
        revalidate(a)
        revalidate(build_algebra(field, a.dim, a.table))
        if a.dim <= 9:  # a dense presentation costs dim^2 solves to build
            revalidate(dense_basis(a, random.Random(entry.description))[0])
    assert calls == []
    # a refused table does reach it, once
    with pytest.raises(NotAssociative):
        build_algebra(field, 2, {(0, 0): ((1, 1),), (0, 1): ((0, 1),)})
    assert calls == [2]


@pytest.mark.parametrize(
    "name, params",
    [("matrix_full", {"n": 3}), ("upper_triangular", {"n": 4}), ("strict_upper", {"n": 4}),
     ("r11_radical", {"n": 2, "k": 3})],
    ids=["matrix_full-3", "upper_triangular-4", "strict_upper-4", "r11_radical-2-3"],
)
def test_a_fresh_load_builds_the_generating_set_once_for_load_and_decision(name, params, monkeypatch):
    doc = algebra_to_json(build(name, **params).algebra)
    builds = count(monkeypatch, {"built": []}, [algebras], "_generators",
                   built=lambda a: [] if "generators" in a._memo else [a])["built"]
    a = algebra_from_json(doc)
    assert builds == [a]  # built by the associativity check
    rep = algebra_centrally_stable(a)
    assert sum(b is a for b in builds) == 1
    reload = algebra_from_json(doc)
    assert verify_report_json(reload, report_to_json(a, rep, command="stable"))
    assert sum(b is reload for b in builds) == 1


@pytest.mark.parametrize(
    "name, params, pairs, products",
    [("matrix_full", {"n": 8}, 120, 118), ("upper_triangular", {"n": 8}, 64, 56),
     ("strict_upper", {"n": 9}, 28, 28), ("r11_radical", {"n": 3, "k": 4}, 54, 46),
     ("truncated_poly", {"k": 24}, 47, 23)],
    ids=["matrix_full-8", "upper_triangular-8", "strict_upper-9", "r11_radical-3-4", "truncated_poly-24"],
)
def test_load_work_is_bounded_on_catalog_bases(name, params, pairs, products, monkeypatch):
    # the (x, g) pairs the check visits, and the products the generator
    # closure makes: only the x that reach g, no product of a generator
    # whose row misses the word's support, and none once G spans a; the
    # unity is read off equations with one unknown each, with no solve
    b = build(name, field=Q, **params).algebra
    a = derived_from_table(Q, b.dim, b.table)
    seen = count(monkeypatch, {"pairs": 0, "products": 0, "solves": 0}, [algebras],
                 "_associator_defect", pairs=1)
    count(monkeypatch, seen, [Algebra], "_basis_mul_vec", products=1)
    count(monkeypatch, seen, [algebras], "express_in_span", solves=1)
    algebras._generators(a)
    assert seen["products"] <= products
    algebras._check_associativity(a)
    assert seen["pairs"] <= pairs
    assert algebras._find_unity(a) == b.unity
    assert seen["solves"] == 0
