import json

import pytest

from censtab.catalog import build, standard_entries
from censtab.errors import FileFormatError, NotAssociative, ParseError
from censtab.fileformat import (
    MAX_DIM,
    algebra_from_json,
    algebra_to_json,
    certificate_from_json,
    certificate_to_json,
    dump_json,
    load_algebra,
    report_to_json,
    save_algebra,
    verify_report_json,
)
from censtab.stability import algebra_centrally_stable, element_centrally_stable


def test_round_trip_bit_exact(tmp_path):
    for entry in standard_entries():
        path = tmp_path / f"{entry.name}.json"
        save_algebra(entry.algebra, path)
        first = path.read_bytes()
        loaded = load_algebra(path)
        save_algebra(loaded, path)
        assert path.read_bytes() == first
        assert loaded.same_structure(entry.algebra)
        assert loaded.labels == entry.algebra.labels
        assert loaded.unity == entry.algebra.unity


def test_round_trip_prime_field(tmp_path):
    from censtab.scalars import prime_field

    entry = build("matrix_full", n=2, field=prime_field(101))
    path = tmp_path / "gf.json"
    save_algebra(entry.algebra, path)
    loaded = load_algebra(path)
    assert loaded.field == prime_field(101)
    assert loaded.same_structure(entry.algebra)


def test_rejects_malformed_documents():
    good = algebra_to_json(build("truncated_poly", k=2).algebra)

    bad = dict(good)
    del bad["dim"]
    with pytest.raises(FileFormatError):
        algebra_from_json(bad)

    bad = dict(good)
    bad["field"] = "R"
    with pytest.raises(FileFormatError):
        algebra_from_json(bad)

    bad = dict(good)
    bad["table"] = good["table"] + [good["table"][0]]  # duplicate (i, j)
    with pytest.raises(FileFormatError):
        algebra_from_json(bad)

    bad = dict(good)
    bad["extra"] = 1
    with pytest.raises(FileFormatError):
        algebra_from_json(bad)

    bad = dict(good)
    bad["table"] = [[0, 0, [[0, "1.5"]]]]
    with pytest.raises(ParseError):  # scalar grammar violation
        algebra_from_json(bad)


def test_load_validates_associativity():
    doc = {
        "field": "Q",
        "dim": 2,
        "table": [[0, 0, [[1, "1"]]], [0, 1, [[1, "1"]]]],
    }
    with pytest.raises(NotAssociative):
        algebra_from_json(doc)


def test_certificate_json_round_trip():
    for name, kw in (("matrix_full", {"n": 2}), ("ema", {}), ("strict_upper", {"n": 3})):
        alg = build(name, **kw).algebra
        rep = algebra_centrally_stable(alg)
        doc = certificate_to_json(alg.field, rep.certificate)
        back = certificate_from_json(alg.field, doc)
        assert back == rep.certificate


def test_verify_report_json():
    alg = build("ema").algebra
    rep = algebra_centrally_stable(alg)
    doc = report_to_json(alg, rep, command="stable", seed=0, witness_budget=200)
    assert verify_report_json(alg, doc)
    # tamper with the verdict: the certificate kind no longer matches
    doc_bad = json.loads(dump_json(doc))
    doc_bad["verdict"] = "Stable"
    assert not verify_report_json(alg, doc_bad)


def test_verify_element_report_json():
    alg = build("upper_triangular", n=3).algebra
    for i in (0, 1):
        rep = element_centrally_stable(alg.basis_element(i))
        doc = report_to_json(alg, rep, command="element")
        assert verify_report_json(alg, doc)


def test_certificate_round_trip_covers_every_kind():
    from censtab.stability import WitnessSearchExhausted

    t3 = build("upper_triangular", n=3).algebra
    reps = [
        element_centrally_stable(t3.basis_element(1)),  # StableElementWitness
        element_centrally_stable(t3.basis_element(0)),  # UnstableElementWitness
        algebra_centrally_stable(build("matrix_full", n=2).algebra),  # RadicalMatch
        algebra_centrally_stable(t3, witness_budget=0),  # RadicalGap
    ]
    gap = reps[3].certificate
    certs = [r.certificate for r in reps] + [WitnessSearchExhausted(7, gap)]
    assert [c.kind for c in certs] == [
        "StableElementWitness", "UnstableElementWitness", "RadicalMatch",
        "RadicalGap", "WitnessSearchExhausted",
    ]
    for cert in certs:
        doc = certificate_to_json(t3.field, cert)
        assert certificate_from_json(t3.field, json.loads(dump_json(doc))) == cert
    assert set(certificate_to_json(t3.field, certs[1])) == {
        "kind", "element", "center_basis", "ideal_basis", "sum_basis",
    }
    assert certificate_to_json(t3.field, certs[4])["samples_tried"] == 7


def test_verify_report_json_rejects_a_report_without_certificate():
    alg = build("upper_triangular", n=3).algebra
    doc = report_to_json(alg, element_centrally_stable(alg.basis_element(1)), command="element")
    del doc["certificate"]
    with pytest.raises(FileFormatError, match="certificate"):
        verify_report_json(alg, doc)


def test_verify_report_json_rejects_a_certificate_without_element():
    alg = build("upper_triangular", n=3).algebra
    doc = report_to_json(alg, element_centrally_stable(alg.basis_element(1)), command="element")
    del doc["certificate"]["element"]
    with pytest.raises(FileFormatError, match="element"):
        verify_report_json(alg, doc)


def test_certificate_from_json_rejects_mistyped_members():
    alg = build("upper_triangular", n=3).algebra
    gap = algebra_centrally_stable(alg, witness_budget=0).certificate
    doc = certificate_to_json(alg.field, gap)
    for key, bad in (("ambient", 1), ("radical_basis", "x"), ("missing_vector", 3)):
        with pytest.raises(FileFormatError):
            certificate_from_json(alg.field, {**doc, key: bad})
    wrapped = {"kind": "WitnessSearchExhausted", "samples_tried": True, "gap": doc}
    with pytest.raises(FileFormatError):
        certificate_from_json(alg.field, wrapped)
    inner = certificate_to_json(alg.field, element_centrally_stable(alg.basis_element(1)).certificate)
    with pytest.raises(FileFormatError):
        certificate_from_json(alg.field, {**wrapped, "samples_tried": 3, "gap": inner})
    with pytest.raises(FileFormatError):
        certificate_from_json(alg.field, {"kind": ["RadicalGap"]})


def test_bool_dimension_and_indices_are_rejected():
    good = algebra_to_json(build("truncated_poly", k=2).algebra)
    assert good["dim"] == 2
    with pytest.raises(FileFormatError):
        algebra_from_json({**good, "dim": True})
    one = {"field": "Q", "dim": 1, "table": [[0, 0, [[0, "1"]]]]}
    assert algebra_from_json(one).dim == 1
    for entry in ([False, 0, [[0, "1"]]], [0, False, [[0, "1"]]], [0, 0, [[False, "1"]]]):
        with pytest.raises(FileFormatError):
            algebra_from_json({**one, "table": [entry]})


def test_dimension_is_bounded():
    assert MAX_DIM == 256
    assert algebra_from_json({"field": "Q", "dim": MAX_DIM, "table": []}).dim == MAX_DIM
    with pytest.raises(FileFormatError, match="exceeds"):
        algebra_from_json({"field": "Q", "dim": MAX_DIM + 1, "table": []})
