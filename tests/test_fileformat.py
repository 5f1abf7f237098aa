import json
import random
import re
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from censtab.algebras import (
    Algebra,
    _check_associativity,
    _find_unity,
    _generators,
    center,
    direct_product,
    matrix_algebra,
    opposite,
    quotient,
    tensor_product,
    unitization,
)
from censtab.catalog import build, standard_entries
from censtab.errors import FileFormatError, IndexOutOfRange, NotAssociative, ParseError
from censtab.fileformat import (
    MAX_DIM,
    algebra_from_json,
    algebra_to_json,
    certificate_from_json,
    certificate_to_json,
    dump_json,
    field_from_json,
    field_to_json,
    load_algebra,
    report_to_json,
    rows_to_json,
    save_algebra,
    vector_from_json,
    vector_to_json,
    verify_report_json,
)
from censtab.radical import radical
from censtab.scalars import MAX_LITERAL_DIGITS, RATIONALS, FieldSpec, prime_field
from censtab.stability import algebra_centrally_stable, element_centrally_stable, verify_certificate

from oracle import count, dense_basis, monomial, presentation, presented_document, reloaded, replays

GOLDEN = Path(__file__).parent / "golden" / "cli_json.json"


def test_round_trip_bit_exact(tmp_path):
    for entry in standard_entries():
        path = tmp_path / f"{entry.name}.json"
        save_algebra(entry.algebra, path)
        first = path.read_bytes()
        loaded = load_algebra(path)
        save_algebra(loaded, path)
        assert path.read_bytes() == first
        assert presentation(loaded) == presentation(entry.algebra)
        assert loaded.labels == entry.algebra.labels
        assert loaded.unity == entry.algebra.unity


def test_round_trip_prime_field(tmp_path):
    from censtab.scalars import prime_field

    entry = build("matrix_full", n=2, field=prime_field(101))
    path = tmp_path / "gf.json"
    save_algebra(entry.algebra, path)
    loaded = load_algebra(path)
    assert loaded.field == prime_field(101)
    assert presentation(loaded) == presentation(entry.algebra)


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
        back = certificate_from_json(alg.field, doc, alg.dim)
        assert back == rep.certificate


def test_verify_report_json():
    alg = build("ema").algebra
    rep = algebra_centrally_stable(alg)
    doc = report_to_json(alg, rep, command="stable")
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
    t3 = build("upper_triangular", n=3).algebra
    p3 = build("truncated_poly", k=3).algebra
    cases = [
        (t3, element_centrally_stable(t3.basis_element(1)).certificate),
        (t3, element_centrally_stable(t3.basis_element(0)).certificate),
        (p3, algebra_centrally_stable(p3).certificate),
    ]
    assert [c.kind for _, c in cases] == [
        "StableElementWitness", "UnstableElementWitness", "RadicalMatch",
    ]
    for alg, cert in cases:
        doc = certificate_to_json(alg.field, cert)
        assert certificate_from_json(alg.field, json.loads(dump_json(doc)), alg.dim) == cert
    assert set(certificate_to_json(t3.field, cases[1][1])) == {
        "kind", "element", "center_basis", "ideal_basis", "sum_basis",
    }
    assert set(certificate_to_json(p3.field, cases[2][1])) == {
        "kind", "radical_basis", "center_cap_radical_basis",
    }


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
    p3 = build("truncated_poly", k=3).algebra
    t3 = build("upper_triangular", n=3).algebra
    match = certificate_to_json(p3.field, algebra_centrally_stable(p3).certificate)
    unstable = certificate_to_json(t3.field, algebra_centrally_stable(t3).certificate)
    assert certificate_from_json(p3.field, match, p3.dim)
    assert certificate_from_json(t3.field, unstable, t3.dim)
    for alg, doc, key, bad in (
        (p3, match, "radical_basis", "x"),
        (p3, match, "radical_basis", [3]),
        (t3, unstable, "element", 3),
        (t3, unstable, "center_basis", [3]),
    ):
        with pytest.raises(FileFormatError, match=key):
            certificate_from_json(alg.field, {**doc, key: bad}, alg.dim)
    with pytest.raises(FileFormatError):
        certificate_from_json(p3.field, {"kind": ["RadicalMatch"]}, p3.dim)


def test_certificate_vector_errors_name_the_kind_and_member():
    t3 = build("upper_triangular", n=3).algebra
    doc = certificate_to_json(t3.field, algebra_centrally_stable(t3).certificate)
    zeros = ["0"] * t3.dim
    for key, bad, why in (
        ("element", 3, "must be a list"),
        ("center_basis", [3], "must be a list"),
        ("element", ["1e5"] + zeros[1:], "1e5"),
        ("sum_basis", [["1/0"] + zeros[1:]], "zero denominator"),
        ("ideal_basis", [["1" * 5000] + zeros[1:]], "exceeds the limit"),
    ):
        with pytest.raises(FileFormatError, match=f"^UnstableElementWitness member '{key}': .*{why}"):
            certificate_from_json(t3.field, {**doc, key: bad}, t3.dim)


def test_reports_of_the_removed_certificate_kinds_are_file_format_errors():
    alg = build("ema").algebra
    doc = report_to_json(alg, algebra_centrally_stable(alg), command="stable")
    gap = {
        "kind": "RadicalGap",
        "radical_basis": doc["bases"]["radical"],
        "center_cap_radical_basis": doc["bases"]["center_cap_radical"],
        "ideal_basis": doc["bases"]["criterion_ideal"],
        "missing_vector": doc["bases"]["radical"][0],
        "ambient": "algebra",
    }
    exhausted = {"kind": "WitnessSearchExhausted", "samples_tried": 200, "gap": gap}
    for cert in (gap, exhausted):
        with pytest.raises(FileFormatError, match=f"unknown certificate kind '{cert['kind']}'"):
            verify_report_json(alg, {**doc, "certificate": cert})


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


def test_overlong_scalar_literal_in_an_algebra_file_is_a_file_format_error():
    for scalar in ("1" * 5000, "1/" + "7" * 5000):
        with pytest.raises(FileFormatError, match="exceeds the limit"):
            algebra_from_json({"field": "Q", "dim": 1, "table": [[0, 0, [[0, scalar]]]]})


def _element_report(alg):
    return report_to_json(alg, element_centrally_stable(alg.basis_element(1)), command="element")


def test_replay_of_a_zero_denominator_raises_file_format_error():
    alg = build("upper_triangular", n=3).algebra
    doc = _element_report(alg)
    doc["certificate"]["element"][0] = "1/0"
    with pytest.raises(FileFormatError, match="zero denominator"):
        verify_report_json(alg, doc)


def test_replay_of_an_overlong_literal_raises_file_format_error():
    alg = build("upper_triangular", n=3).algebra
    doc = _element_report(alg)
    doc["certificate"]["central_part"][0] = "1" * 5000
    with pytest.raises(FileFormatError, match="exceeds the limit"):
        verify_report_json(alg, doc)
    # a JSON number too long for str() is refused the same way
    doc = _element_report(alg)
    doc["certificate"]["ideal_part"][0] = 10**5000
    with pytest.raises(FileFormatError):
        verify_report_json(alg, doc)


def test_replay_of_a_literal_outside_the_grammar_raises_file_format_error():
    alg = build("upper_triangular", n=3).algebra
    doc = report_to_json(alg, algebra_centrally_stable(alg), command="stable")
    assert doc["certificate"]["kind"] == "UnstableElementWitness"
    doc["certificate"]["element"][0] = "1e5"
    with pytest.raises(FileFormatError, match="1e5"):
        verify_report_json(alg, doc)
    p3 = build("truncated_poly", k=3).algebra
    doc = report_to_json(p3, algebra_centrally_stable(p3), command="stable")
    doc["certificate"]["radical_basis"][0][0] = "1e5"
    with pytest.raises(FileFormatError, match="1e5"):
        verify_report_json(p3, doc)


def _resized(vec, n):
    """vec cut or padded with zeros to n coordinates."""
    return (vec + ["0"] * n)[:n]


def test_replay_of_a_stable_witness_of_the_wrong_length_is_a_file_format_error():
    alg = build("upper_triangular", n=3).algebra  # dim 6
    for key in ("element", "central_part", "ideal_part"):
        for n in (3, 7):
            doc = _element_report(alg)
            doc["certificate"][key] = _resized(doc["certificate"][key], n)
            with pytest.raises(FileFormatError, match=f"'{key}' has a vector of {n} coordinates"):
                verify_report_json(alg, doc)


def test_replay_of_an_unstable_witness_of_the_wrong_length_is_a_file_format_error():
    alg = build("upper_triangular", n=3).algebra
    doc = report_to_json(alg, element_centrally_stable(alg.basis_element(0)), command="element")
    assert doc["certificate"]["kind"] == "UnstableElementWitness"
    assert verify_report_json(alg, doc)
    doc["certificate"]["element"] = doc["certificate"]["element"][:3]
    with pytest.raises(FileFormatError, match="'element' has a vector of 3 coordinates"):
        verify_report_json(alg, doc)


def test_replay_of_a_radical_match_of_the_wrong_length_is_a_file_format_error():
    alg = build("truncated_poly", k=3).algebra
    doc = report_to_json(alg, algebra_centrally_stable(alg), command="stable")
    assert doc["certificate"]["kind"] == "RadicalMatch"
    for key in ("radical_basis", "center_cap_radical_basis"):
        bad = json.loads(dump_json(doc))
        bad["certificate"][key][0] = bad["certificate"][key][0][:2]
        with pytest.raises(FileFormatError, match=f"'{key}' has a vector of 2 coordinates"):
            verify_report_json(alg, bad)


def test_a_non_unital_radical_match_has_one_coordinate_per_basis_vector():
    alg = build("strict_upper", n=2).algebra  # dim 1, no unity, Stable
    doc = report_to_json(alg, algebra_centrally_stable(alg), command="stable")
    match = doc["certificate"]
    assert match["kind"] == "RadicalMatch" and "ambient" not in match
    assert len(match["radical_basis"][0]) == alg.dim
    assert verify_report_json(alg, doc)
    # a row in A#, the adjoined unity first, is one coordinate too long
    match["radical_basis"][0] = ["0"] + match["radical_basis"][0]
    with pytest.raises(FileFormatError, match=f"expected {alg.dim}"):
        verify_report_json(alg, doc)


def test_reports_with_an_ambient_member_are_file_format_errors():
    # reports of the unitization route named their ambient space, and their
    # radical rows had dim + 1 coordinates there; neither is read any more
    m2 = build("matrix_full", n=2).algebra
    doc = report_to_json(m2, algebra_centrally_stable(m2), command="stable")
    assert verify_report_json(m2, doc)
    for ambient in ("algebra", "unitization", 1, ["algebra"]):
        old = {**doc, "certificate": {**doc["certificate"], "ambient": ambient}}
        with pytest.raises(FileFormatError, match=r"unknown members \['ambient'\]"):
            verify_report_json(m2, old)
    n2 = build("strict_upper", n=2).algebra  # no unity, Stable
    doc = report_to_json(n2, algebra_centrally_stable(n2), command="stable")
    cert = doc["certificate"]
    assert cert["kind"] == "RadicalMatch" and verify_report_json(n2, doc)
    parent = {  # as the unitization route wrote it, in A#
        **cert,
        "ambient": "unitization",
        "radical_basis": [["0"] + row for row in cert["radical_basis"]],
        "center_cap_radical_basis": [["0"] + row for row in cert["center_cap_radical_basis"]],
    }
    with pytest.raises(FileFormatError, match=f"2 coordinates, expected {n2.dim}"):
        verify_report_json(n2, {**doc, "certificate": parent})
    with pytest.raises(FileFormatError, match=r"unknown members \['ambient'\]"):
        verify_report_json(n2, {**doc, "certificate": {**cert, "ambient": "unitization"}})


def test_non_string_labels_are_rejected():
    doc = {"field": "Q", "dim": 2, "table": [], "labels": ["a", "b"]}
    assert algebra_from_json(doc).labels == ("a", "b")
    for labels in ([{"a": 1}, 2], ["a", 2], ["a", None]):
        with pytest.raises(FileFormatError, match="one string per basis vector"):
            algebra_from_json({**doc, "labels": labels})


def test_a_deep_chain_of_nested_certificates_is_a_file_format_error():
    alg = build("upper_triangular", n=3).algebra
    doc = report_to_json(alg, algebra_centrally_stable(alg), command="stable")
    cert = doc["certificate"]
    for _ in range(3000):
        cert = {"kind": "WitnessSearchExhausted", "samples_tried": 0, "gap": cert}
    with pytest.raises(FileFormatError, match="unknown certificate kind"):
        verify_report_json(alg, {**doc, "certificate": cert})
    # deep values built in Python where a kind, a member name or a scalar goes
    deep = []
    for _ in range(100000):
        deep = [deep]
    element = _element_report(alg)
    element["certificate"]["element"][0] = deep
    for bad in (
        {**doc, "certificate": {"kind": deep}},
        {**doc, "certificate": {**doc["certificate"], 1: deep, "x": 0}},
        element,
    ):
        with pytest.raises(FileFormatError):
            verify_report_json(alg, bad)


def _t3_reports():
    """An UnstableElementWitness and a StableElementWitness element report
    on T_3, and its NotStable algebra report, each of which replays."""
    t3 = build("upper_triangular", n=3).algebra
    docs = [
        report_to_json(t3, element_centrally_stable(t3.basis_element(0)), command="element"),
        _element_report(t3),
        report_to_json(t3, algebra_centrally_stable(t3), command="stable"),
    ]
    assert [d["certificate"]["kind"] for d in docs] == [
        "UnstableElementWitness", "StableElementWitness", "UnstableElementWitness",
    ]
    assert all(verify_report_json(t3, d) for d in docs)
    return t3, docs


def test_an_unknown_verdict_is_a_file_format_error():
    t3, (unstable, _, _) = _t3_reports()
    for verdict in ("Banana", "stable", 1, None):
        with pytest.raises(FileFormatError, match="verdict"):
            verify_report_json(t3, {**unstable, "verdict": verdict})


def test_an_unknown_method_is_a_file_format_error():
    t3, (unstable, _, _) = _t3_reports()
    for method in ("Oracle", "", ["ElementCriterion"]):
        with pytest.raises(FileFormatError, match="method"):
            verify_report_json(t3, {**unstable, "method": method})


def test_an_unknown_certificate_member_is_a_file_format_error():
    t3, docs = _t3_reports()
    m2 = build("matrix_full", n=2).algebra
    match = report_to_json(m2, algebra_centrally_stable(m2), command="stable")
    for alg, doc in [(t3, doc) for doc in docs] + [(m2, match)]:
        extra = {**doc, "certificate": {**doc["certificate"], "note": "x"}}
        with pytest.raises(FileFormatError, match="unknown members"):
            verify_report_json(alg, extra)


def test_a_radical_certificate_under_the_element_criterion_does_not_replay():
    m2 = build("matrix_full", n=2).algebra
    doc = report_to_json(m2, algebra_centrally_stable(m2), command="stable")
    assert doc["certificate"]["kind"] == "RadicalMatch"
    assert verify_report_json(m2, doc)
    assert not verify_report_json(m2, {**doc, "method": "ElementCriterion"})
    n2 = build("strict_upper", n=2).algebra  # no unity
    doc = report_to_json(n2, algebra_centrally_stable(n2), command="stable")
    assert doc["certificate"]["kind"] == "RadicalMatch" and verify_report_json(n2, doc)
    assert not verify_report_json(n2, {**doc, "method": "ElementCriterion"})


def test_a_stable_element_witness_under_a_radical_method_does_not_replay():
    t3, (unstable, stable, algebra) = _t3_reports()
    for method in ("RadicalCriterion", "UnitizationThenRadicalCriterion"):
        assert not verify_report_json(t3, {**stable, "method": method})
    # an algebra decision may report an unstable element witness, and an
    # element decision the witness of an algebra decision
    assert verify_report_json(t3, {**unstable, "method": "RadicalCriterion"})
    assert verify_report_json(t3, {**algebra, "method": "ElementCriterion"})


def test_a_radical_certificate_replays_only_under_the_method_that_fits_the_algebra():
    m2 = build("matrix_full", n=2).algebra  # unital
    doc = report_to_json(m2, algebra_centrally_stable(m2), command="stable")
    assert doc["method"] == "RadicalCriterion"
    assert not verify_report_json(m2, {**doc, "method": "UnitizationThenRadicalCriterion"})
    n2 = build("strict_upper", n=2).algebra  # no unity
    doc = report_to_json(n2, algebra_centrally_stable(n2), command="stable")
    assert doc["method"] == "UnitizationThenRadicalCriterion"
    assert verify_report_json(n2, doc)
    assert not verify_report_json(n2, {**doc, "method": "RadicalCriterion"})


def _json_dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_dump_json_writes_the_bytes_of_json_dumps():
    golden = json.loads(GOLDEN.read_text())
    for case, text in golden.items():
        doc = json.loads(text)
        assert dump_json(doc) == _json_dumps(doc) == text, case
    edge = [
        {},
        [],
        {"a": [], "b": {}, "c": [[], [{}], {"d": []}]},
        {"timings": {"seconds": 0.000123, "stages": {"x": 1.5e-07, "y": 12.0}}},
        {"ok": True, "unital": False, "missing": None, "dim": 0, "big": -(10**30)},
        {"findings": [{"kind": "FATAL:x", "sample_index": 3, "detail": "d"}, {}]},
        {"labels": ["y^0(1,1)", "\u00e9\u03b1\U0001d49c", 'say "hi"\\', "tab\tnl\n", ""]},
        [["0", "1/2"], ["-3", "0"], "x", 1, [["0"]]],
        ("tuple", ["of", ("tuples",)]),
        "a string", 7, 2.5, False, None,
    ]
    for doc in edge:
        assert dump_json(doc) == _json_dumps(doc), doc


@pytest.mark.parametrize("field", [RATIONALS, prime_field(101)], ids=repr)
def test_vector_from_json_reads_zero_as_parse_does(field):
    for item in ("0", 0, "-0", "00", " 0", "0/1", "0/0", False):
        try:
            want = field.parse(str(item))
        except (ParseError, ZeroDivisionError) as exc:
            with pytest.raises(FileFormatError) as info:
                vector_from_json(field, [item])
            assert str(info.value) == str(exc), item
        else:
            (got,) = vector_from_json(field, [item])
            assert got == want and type(got) is type(want), item


@pytest.mark.parametrize("field", [RATIONALS, prime_field(101)], ids=repr)
def test_vector_to_json_formats_every_entry_that_is_not_the_shared_zero(field):
    fresh = Fraction(0)  # a zero that is not the field's shared one
    vec = (fresh, field.zero, field.coerce(3), field.neg(field.one))
    assert fresh is not field.zero
    assert vector_to_json(field, vec) == [field.format(x) for x in vec]


def _count_calls(monkeypatch, name):
    """The arguments of every call of FieldSpec.name from here on, in order."""
    return count(monkeypatch, {name: []}, [FieldSpec], name, **{name: lambda self, x: [x]})[name]


@pytest.mark.parametrize("field", [RATIONALS, prime_field(101)], ids=repr)
def test_replay_parses_only_the_nonzero_literals(monkeypatch, field):
    tag = "Q" if field.p is None else f"GF{field.p}"
    doc = json.loads(json.loads(GOLDEN.read_text())[f"element-mixed/T3-{tag}"])
    assert doc["verdict"] == "NotStable"
    literals = [
        x for key, vec in doc["certificate"].items() if key != "kind"
        for x in (vec if key == "element" else [y for row in vec for y in row])
    ]
    nonzero = [x for x in literals if x != "0"]
    assert 0 < len(nonzero) < len(literals)
    t3 = build("upper_triangular", n=3, field=field).algebra
    calls = _count_calls(monkeypatch, "read")  # the certificate reader's one scalar call
    assert verify_report_json(t3, doc)
    assert sorted(calls) == sorted(nonzero)


@pytest.mark.parametrize("field", [RATIONALS, prime_field(101)], ids=repr)
def test_a_load_reads_each_literal_string_once(monkeypatch, field):
    # a string literal is read once per document, whatever its repeats; a
    # JSON number is read each time it occurs, and a reload reads again
    doc = _presented(build("upper_triangular", n=4, field=field).algebra, random.Random(40))
    text = json.dumps(doc)
    ints = [pair for _, _, pairs in doc["table"] for pair in pairs if "/" not in pair[1]]
    for pair in ints[::2]:
        pair[1] = int(pair[1])
    literals = [c for _, _, pairs in doc["table"] for _, c in pairs]
    strings = [c for c in literals if type(c) is str]
    numbers = [str(c) for c in literals if type(c) is not str]
    assert numbers and len(set(strings)) < len(strings)
    calls = _count_calls(monkeypatch, "read")
    a = algebra_from_json(doc)
    assert sorted(calls) == sorted([*set(strings), *numbers])
    algebra_from_json(doc)
    assert sorted(calls) == sorted(2 * [*set(strings), *numbers])
    monkeypatch.undo()
    assert presentation(a) == presentation(algebra_from_json(json.loads(text)))


@pytest.mark.parametrize("one", ["1", 1], ids=["string", "number"])
@pytest.mark.parametrize("field", [RATIONALS, prime_field(101)], ids=repr)
def test_a_bool_literal_shares_no_reading_with_an_equal_number(field, one):
    # True == 1 with the same hash, so a reading kept under the raw value
    # would let true take the value of an earlier 1
    doc = {"field": field_to_json(field), "dim": 2,
           "table": [[0, 0, [[0, one]]], [1, 1, [[1, True]]]]}
    with pytest.raises(FileFormatError) as exc:
        algebra_from_json(doc)
    kind = "rational" if field.p is None else f"GF({field.p})"
    assert str(exc.value) == f"bad {kind} literal 'True'"


def test_replay_builds_no_fraction(monkeypatch):
    # certificate vectors are read into int entries over a denominator and
    # compared with the reducers' int rows; in a dense presentation the rows
    # have fractions, so denominators other than 1 are read too
    rng = random.Random("replay-builds-no-fraction")
    cases = []
    for name, params, x in (("upper_triangular", {"n": 3}, (2, 5, 0, 0, 0, 3)),
                            ("matrix_full", {"n": 2}, (3, -2, 5, 7)),
                            ("truncated_poly", {"k": 3}, None)):
        a = dense_basis(build(name, **params).algebra, rng)[0]
        rep = algebra_centrally_stable(a) if x is None else element_centrally_stable(a.element(x))
        doc = json.loads(dump_json(report_to_json(a, rep, command="stable")))
        b = reloaded(a)
        center(b)
        cases.append((b, rep, doc))
    assert [rep.certificate.kind for _, rep, _ in cases] == [
        "UnstableElementWitness", "StableElementWitness", "RadicalMatch"]
    assert any("/" in x for _, _, doc in cases for vec in doc["certificate"].values() for x in vec)
    built = count(monkeypatch, {"fractions": 0}, [Fraction], "__new__", fractions=1)
    for b, rep, doc in cases:
        assert verify_report_json(b, doc) and verify_certificate(b, rep)
    assert built == {"fractions": 0}


@pytest.mark.parametrize("field", [RATIONALS, prime_field(101)], ids=repr)
def test_rows_to_json_formats_only_the_nonzero_entries(monkeypatch, field):
    t3 = build("upper_triangular", n=3, field=field).algebra
    rep = element_centrally_stable(t3.element((2, 5, 0, 0, 0, 3)))
    assert rep.verdict == "NotStable"
    cases = [
        (rows, [[field.format(x) for x in row] for row in rows])
        for rows in (center(t3).rows, rep.bases["commutator_ideal"])
    ]
    calls = _count_calls(monkeypatch, "format")
    for rows, text in cases:
        nonzero = [x for row in rows for x in row if x]
        assert 0 < len(nonzero) < sum(map(len, rows))
        calls.clear()
        assert rows_to_json(field, rows) == text
        assert calls == nonzero


# ---------------------------------------------------------------------------
# The one-pass loader against the loader it replaced
# ---------------------------------------------------------------------------
# `_reference_load` is the loader as it was before table literals went
# straight into the int index: each literal parsed to a Fraction, the table
# normalized into a dict of canonical scalars, then the index built from
# that table.  Both loaders must agree on every input: the same algebra, or
# the same exception with the same message.

_REF_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
_REF_RESIDUE = re.compile(r"[0-9]+")


def _reference_parse(field, text):
    t = text.strip()
    limit = MAX_LITERAL_DIGITS
    if len(t) > limit and max(map(len, t.lstrip("-").split("/"))) > limit:
        raise ParseError(f"scalar literal exceeds the limit of {limit} digits per integer")
    if field.p is None:
        if not _REF_RATIONAL.fullmatch(t):
            raise ParseError(f"bad rational literal {text!r}")
        if "/" in t:
            num, den = t.split("/")
            if int(den) == 0:
                raise ZeroDivisionError(f"zero denominator in {text!r}")
            return Fraction(int(num), int(den))
        return Fraction(int(t))
    if not _REF_RESIDUE.fullmatch(t):
        raise ParseError(f"bad GF({field.p}) literal {text!r}")
    return int(t) % field.p


def _reference_normalize(field, dim, table):
    out = {}
    for (i, j), pairs in table.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise IndexOutOfRange(f"pair index ({i},{j}) outside [0,{dim})")
        canon = {}
        for k, c in pairs:
            if not (0 <= k < dim):
                raise IndexOutOfRange(f"target index {k} in entry ({i},{j})")
            c = field.coerce(c)
            if c:
                canon[k] = field.add(canon[k], c) if k in canon else c
        canon = {k: c for k, c in canon.items() if c}
        if canon:
            out[(i, j)] = tuple(sorted(canon.items()))
    return out


def _ref_is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _reference_load(doc):
    """(algebra, canonical Fraction table) by the replaced loader."""
    if not isinstance(doc, dict):
        raise FileFormatError("algebra document must be a JSON object")
    for key in ("field", "dim", "table"):
        if key not in doc:
            raise FileFormatError(f"missing member {key!r}")
    unknown = set(doc) - {"field", "dim", "table", "labels"}
    if unknown:
        raise FileFormatError(f"unknown members {sorted(unknown, key=str)}")
    field = field_from_json(doc["field"])
    dim = doc["dim"]
    if not _ref_is_int(dim) or dim < 0:
        raise FileFormatError("dim must be a non-negative integer")
    if dim > MAX_DIM:
        raise FileFormatError(f"dim {dim} exceeds the limit of {MAX_DIM}")
    labels = doc.get("labels")
    if labels is not None:
        if not (isinstance(labels, list) and len(labels) == dim
                and all(isinstance(s, str) for s in labels)):
            raise FileFormatError("labels must list one string per basis vector")
        labels = tuple(labels)
    table = {}
    if not isinstance(doc["table"], list):
        raise FileFormatError("table must be a list of [i, j, pairs] entries")
    for entry in doc["table"]:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise FileFormatError(f"bad table entry {entry!r}")
        i, j, pairs = entry
        if not (_ref_is_int(i) and _ref_is_int(j)):
            raise FileFormatError(f"bad indices in table entry {entry!r}")
        if (i, j) in table:
            raise FileFormatError(f"duplicate table entry for ({i}, {j})")
        if not isinstance(pairs, list):
            raise FileFormatError(f"bad product list in entry ({i}, {j})")
        parsed = []
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2 and _ref_is_int(pair[0])):
                raise FileFormatError(f"bad product pair {pair!r} in entry ({i}, {j})")
            try:
                parsed.append((pair[0], _reference_parse(field, str(pair[1]))))
            except (ValueError, ZeroDivisionError, RecursionError) as exc:
                raise FileFormatError(str(exc)) from None
        table[(i, j)] = parsed
    table = _reference_normalize(field, dim, table)
    n = lcm(*[c.denominator for pairs in table.values() for _, c in pairs]) if field.p is None else 1
    rows = [{} for _ in range(dim)]
    shared = {}
    for (i, j), pairs in table.items():
        pairs = tuple((k, c.numerator * (n // c.denominator)) for k, c in pairs)
        rows[i][j] = shared.setdefault(pairs, pairs)
    a = Algebra(field, dim, n, tuple(rows), labels, None, _trusted=True)
    _check_associativity(a)
    a.unity = _find_unity(a)
    return a, table


def _outcome(load, doc):
    try:
        return load(doc)
    except (ValueError, ZeroDivisionError, RecursionError) as exc:
        return type(exc), str(exc)


def _assert_loaders_agree(doc):
    ref, new = _outcome(_reference_load, doc), _outcome(algebra_from_json, doc)
    if not isinstance(new, Algebra):
        assert new == ref, doc
        return
    assert not isinstance(ref[0], type), (ref, doc)
    a, table = ref
    assert new._scale == a._scale
    assert [list(row.items()) for row in new._rows] == [list(row.items()) for row in a._rows]
    assert new.table == table
    assert list(new.table) == [(i, j) for i, row in enumerate(new._rows) for j in row]
    assert new.unity == a.unity
    assert new.labels == a.labels
    assert _generators(new) == _generators(a)


def _presented(a, rng):
    """A permuted and rescaled presentation of a as a document, entries and
    pairs sorted, in the manner of the benchmark's inputs."""
    n, p = a.dim, a.field.p
    perm = rng.sample(range(n), n)
    if p is None:
        d = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
    else:
        d = [rng.randint(1, p - 1) for _ in range(n)]
    return presented_document(a, monomial(d, perm))


# Files no engine writes: entries out of order, pairs out of order, a repeated
# k (one summing to 0), reducible and signed zero literals, spaces, bare
# integers and an empty pair list.  Each is a valid presentation of
# Q[x]/(x^3) or the dual numbers.
_NON_CANONICAL = [
    {"field": "Q", "dim": 3, "labels": ["1", "2x", "x^2"], "table": [
        [2, 0, [[2, "1"]]], [1, 1, [[2, "8/2"]]], [0, 2, [[2, " 1 "]]],
        [1, 0, [[1, 1]]], [0, 1, [[1, "2/2"]]], [0, 0, [[0, "1/2"], [0, "2/4"]]],
        [2, 2, [[0, "-0"]]], [1, 2, [[1, "3"], [1, "-3"]]], [2, 1, []]]},
    {"field": "Q", "dim": 2, "table": [  # f0 = 1 + x, f1 = x
        [1, 0, [[1, "1"]]], [0, 0, [[1, "1"], [0, "1"]]], [0, 1, [[1, "-1/2"], [1, "3/2"]]]]},
    {"field": {"GF": 7}, "dim": 2, "table": [
        [1, 1, [[1, "3"], [1, "4"]]], [0, 1, [[1, 8]]], [0, 0, [[0, "4"], [0, "4"]]],
        [1, 0, [[0, "0"], [1, " 15"]]]]},
    {"field": "Q", "dim": 2, "table": [[0, 0, [[0, "1"]]], [1, 1, [[1, "1"], [1, "-1"]]]]},
]


def _documents():
    rng = random.Random(28)
    docs = [algebra_to_json(e.algebra) for e in standard_entries()]
    gf = [build("matrix_full", n=3, field=prime_field(101)).algebra,
          build("upper_triangular", n=4, field=prime_field(1000003)).algebra,
          build("r11_radical", n=2, k=3, field=prime_field(7)).algebra]
    docs += [algebra_to_json(a) for a in gf]
    for name, params in (("matrix_full", {"n": 3}), ("upper_triangular", {"n": 4}),
                         ("truncated_poly", {"k": 6}), ("r11_radical", {"n": 2, "k": 3}),
                         ("matrix_over_commutative", {"n": 2, "k": 3}), ("strict_upper", {"n": 4})):
        for field in (RATIONALS, prime_field(1000003)):
            docs.append(_presented(build(name, field=field, **params).algebra, rng))
    docs += [_presented(build(name).algebra, rng) for name in ("ema", "exg", "exh_rational")]
    return docs + _NON_CANONICAL


def test_the_one_pass_loader_agrees_with_the_replaced_loader():
    docs = _documents()
    for doc in docs:
        _assert_loaders_agree(doc)
    # the non-canonical files export as their canonical form
    first = algebra_from_json(_NON_CANONICAL[0])
    assert algebra_to_json(first)["table"] == [
        [0, 0, [[0, "1"]]], [0, 1, [[1, "1"]]], [0, 2, [[2, "1"]]],
        [1, 0, [[1, "1"]]], [1, 1, [[2, "4"]]], [2, 0, [[2, "1"]]]]
    assert algebra_to_json(algebra_from_json(_NON_CANONICAL[3]))["table"] == [[0, 0, [[0, "1"]]]]


def _mutations(doc):
    """doc with one defect in one entry at a time, for each entry."""
    dim, table = doc["dim"], doc["table"]

    def replaced(e, entry):
        return {**doc, "table": table[:e] + [entry] + table[e + 1:]}

    for e, (i, j, pairs) in enumerate(table):
        yield replaced(e, [True, j, pairs])
        yield replaced(e, [i, False, pairs])
        for bad in ((dim, j), (i, dim), (-1, j)):
            yield replaced(e, [*bad, pairs])
        yield {**doc, "table": table[:e + 1] + [[i, j, pairs]] + table[e + 1:]}  # duplicate (i, j)
        yield replaced(e, [i, j, "pairs"])
        yield replaced(e, [i, j])
        if not pairs:
            continue
        k, c = pairs[0]
        for bad in ([k, "1.5"], [k, "1/0"], [k, "-3/0"], [k, "1" * 4301], [k, 10**4300],
                    [k, True], [k, None], [k, "٣"], [dim, c], [-1, c], [True, c],
                    "pair", [k], [k, c, c]):
            yield replaced(e, [i, j, [bad] + pairs[1:]])
        # an index-range defect here and a literal defect in the last entry
        if e + 1 < len(table):
            last = table[-1]
            yield {**doc, "table": [[i, j, [[dim, c]]]] + table[e + 1:-1]
                   + [[last[0], last[1], [[0, "1/0"]]]]}


def test_both_loaders_refuse_every_mutation_with_the_same_error():
    docs = [d for d in _documents() if len(d["table"]) <= 30]
    assert len(docs) >= 20
    seen = set()
    for doc in docs:
        for bad in _mutations(doc):
            ref = _outcome(_reference_load, bad)
            assert isinstance(ref[0], type), bad  # each mutation is a defect
            assert _outcome(algebra_from_json, bad) == ref, bad
            seen.add(ref[0])
    assert seen == {FileFormatError, IndexOutOfRange}


def test_literal_and_structure_errors_come_before_index_range_errors():
    doc = {"field": "Q", "dim": 2, "table": [[0, 0, [[5, "1"]]], [0, 1, [[1, "1/0"]]]]}
    with pytest.raises(FileFormatError) as exc:
        algebra_from_json(doc)
    assert str(exc.value) == "zero denominator in '1/0'"
    doc["table"][1] = [0, 1, [[1, "1"], 5]]
    with pytest.raises(FileFormatError) as exc:
        algebra_from_json(doc)
    assert str(exc.value) == "bad product pair 5 in entry (0, 1)"
    doc["table"][1] = [0, 1, [[1, "1"]]]
    with pytest.raises(IndexOutOfRange) as exc:
        algebra_from_json(doc)
    assert str(exc.value) == "target index 5 in entry (0,0)"


def test_a_load_coerces_no_scalar_and_builds_no_table(tmp_path, monkeypatch):
    alg = build("upper_triangular", n=3).algebra
    path = tmp_path / "t3.json"
    save_algebra(alg, path)

    def refuse(self, x):
        raise AssertionError("a load coerced a scalar")

    monkeypatch.setattr(FieldSpec, "coerce", refuse)
    a = load_algebra(path)
    monkeypatch.undo()
    assert "table" not in a._memo
    rep = algebra_centrally_stable(a)
    assert replays(a, rep)
    assert "table" not in a._memo  # deciding and replaying read the index only
    for build_from_a in (opposite, unitization, lambda a: direct_product(a, a),
                         lambda a: tensor_product(a, a), lambda a: matrix_algebra(a, 2),
                         lambda a: quotient(a, radical(a)).target):
        build_from_a(a)
        assert "table" not in a._memo  # constructions read the index only
    table = a.table
    assert a._memo["table"] is table is a.table
    assert table == alg.table
    with pytest.raises(TypeError):
        table[0, 0] = ()
