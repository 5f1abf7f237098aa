import pytest

from censtab.catalog import build, dimension, names, standard_entries
from censtab.errors import BadParams
from censtab.fileformat import algebra_to_json, dump_json
from censtab.scalars import prime_field
from oracle import ema_maximal_ideal, revalidate


def test_names_cover_the_roster():
    assert names() == sorted(
        [
            "matrix_full",
            "upper_triangular",
            "scalar_plus_strict_upper",
            "strict_upper",
            "truncated_poly",
            "ema",
            "exg",
            "exh_rational",
            "matrix_over_commutative",
            "r11_radical",
        ]
    )


def test_examples_from_the_roster():
    e = build("upper_triangular", n=3)
    assert e.algebra.dim == 6
    assert e.algebra.is_unital
    assert e.expected.verdict == "NotStable"

    e = build("exg")
    assert e.algebra.dim == 8
    assert e.expected.center_dim == 2

    e = build("truncated_poly", k=1)
    assert e.algebra.dim == 1
    assert e.expected.verdict == "Stable"


def test_expected_metadata_matches_computation():
    from censtab.algebras import center
    from censtab.radical import radical
    from censtab.stability import algebra_centrally_stable

    for entry in standard_entries():
        assert center(entry.algebra).dim == entry.expected.center_dim, entry.name
        assert radical(entry.algebra).dim == entry.expected.radical_dim, entry.name
        verdict = algebra_centrally_stable(entry.algebra).verdict
        assert verdict == entry.expected.verdict, entry.name


def test_rebuild_determinism():
    for entry in standard_entries():
        again = build(entry.name, **entry.params)
        assert dump_json(algebra_to_json(entry.algebra)) == dump_json(
            algebra_to_json(again.algebra)
        )


def test_all_entries_revalidate():
    for entry in standard_entries():
        revalidate(entry.algebra)


def test_param_validation():
    with pytest.raises(BadParams):
        build("matrix_full", n=0)
    with pytest.raises(BadParams):
        build("strict_upper", n=1)
    with pytest.raises(BadParams):
        build("r11_radical", n=2, k=2)
    with pytest.raises(BadParams):
        build("ema", poly=(1, 1))  # degree 1
    with pytest.raises(BadParams):
        build("ema", poly=(-2, 0, 2))  # not monic
    with pytest.raises(BadParams):
        build("no_such_algebra")
    with pytest.raises(BadParams):
        build("exg", n=3)  # takes no parameters


def test_ema_general_polynomial():
    # K = Q[y]/(y^3 - 2): dim 7, radical of dimension 3
    e = build("ema", poly=(-2, 0, 0, 1))
    assert e.algebra.dim == 7
    assert e.expected.radical_dim == 3
    from censtab.radical import radical

    assert radical(e.algebra).dim == 3


def test_gf_variants():
    e = build("matrix_full", n=3, field=prime_field(101))
    assert e.algebra.field == prime_field(101)
    assert e.algebra.dim == 9
    e = build("upper_triangular", n=4, field=prime_field(101))
    assert e.algebra.dim == 10


def test_ema_extras_maximal_ideal():
    e = build("ema")
    m = ema_maximal_ideal(e.algebra)
    assert m.dim == 3  # beta corner (dim 2) plus the lambda slot
    # it is an ideal: quotient must succeed
    from censtab.algebras import quotient

    qm = quotient(e.algebra, m)
    assert qm.target.dim == 2


def test_dimension_matches_the_built_algebra():
    cases = [
        *(("matrix_full", {"n": n}) for n in (1, 2, 3)),
        *(("upper_triangular", {"n": n}) for n in (1, 2, 4)),
        *(("scalar_plus_strict_upper", {"n": n}) for n in (1, 2, 4)),
        *(("strict_upper", {"n": n}) for n in (2, 4)),
        *(("truncated_poly", {"k": k, "field": prime_field(101)}) for k in (1, 5)),
        ("ema", {}),
        ("ema", {"poly": (-2, 0, 0, 1)}),
        ("exg", {}),
        ("exh_rational", {}),
        *(("matrix_over_commutative", {"n": n, "k": k}) for n in (1, 2) for k in (1, 3)),
        *(("r11_radical", {"n": n, "k": k}) for n in (2, 3) for k in (3, 4)),
    ]
    assert {name for name, _ in cases} == set(names())
    for name, params in cases:
        assert dimension(name, **params) == build(name, **params).algebra.dim, (name, params)
    # what build rejects is left for build to report
    assert dimension("matrix_full") == 0
    assert dimension("no_such_algebra") == 0
    assert dimension("exg", n=3) == 0
    assert dimension("matrix_full", n=-20) == 0
