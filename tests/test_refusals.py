"""Every argument refusal of the file format and of the library, by the
exception class and message it raises; the ones a file can reach also exit 2
with one line through the command line."""

import json

import pytest

from censtab.algebras import (
    Algebra,
    build_algebra,
    direct_product,
    ideal_generated,
    ideal_witness,
    matrix_algebra,
    tensor_product,
)
from censtab.catalog import build
from censtab.errors import DimensionMismatch, FieldMismatch, FileFormatError, ScalarTooLong
from censtab.fileformat import (
    algebra_from_json,
    certificate_from_json,
    save_algebra,
    vector_from_json,
    verify_report_json,
)
from censtab.linalg import express_in_span, span, subspace_intersect, subspace_sum
from censtab.scalars import RATIONALS as Q, prime_field
from censtab.stability import decompose_tensor_element

from oracle import run

GF101 = prime_field(101)
NOT_PRIME = "prime field order must be a prime, got 4"
TOO_WIDE = "prime field order must fit in a machine word"
NOT_OBJECT = "algebra document must be a JSON object"
TABLE_NOT_LIST = "table must be a list of [i, j, pairs] entries"

# documents a file can hold, each refused by the file format with one message
BAD_FILES = [
    ([], NOT_OBJECT),
    ({"field": "Q", "dim": 1, "table": {}}, TABLE_NOT_LIST),
    ({"field": {"GF": 4}, "dim": 1, "table": []}, NOT_PRIME),
    ({"field": {"GF": 2**64 + 13}, "dim": 1, "table": []}, TOO_WIDE),  # a prime
]


def _refused(exc, message, call):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value) == message


@pytest.mark.parametrize("doc, message", BAD_FILES, ids=["array", "table", "GF4", "GF-wide"])
def test_a_refused_algebra_file_raises_its_message_and_exits_2(doc, message, tmp_path, capsys):
    _refused(FileFormatError, message, lambda: algebra_from_json(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "stable", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_vector_of_the_wrong_length_is_refused():
    _refused(FileFormatError, "expected 2 coordinates, got 1", lambda: vector_from_json(Q, ["1"], length=2))


def test_a_vector_length_given_positionally_is_checked():
    # the benchmark's element queries pass the length as the third argument
    assert vector_from_json(GF101, ["1", "0", "102"], 3) == (1, 0, 1)
    _refused(FileFormatError, "expected 3 coordinates, got 2", lambda: vector_from_json(GF101, ["1", "0"], 3))


def test_reports_and_certificates_that_are_not_objects_are_refused():
    a = build("upper_triangular", n=2).algebra
    doc = {"verdict": "Stable", "method": "ElementCriterion", "certificate": []}
    for call, message in [
        (lambda: verify_report_json(a, []), "report must be a JSON object"),
        (lambda: verify_report_json(a, doc), "certificate must be a JSON object"),
        (lambda: certificate_from_json(Q, "x", a.dim), "certificate must be a JSON object"),
    ]:
        _refused(FileFormatError, message, call)


def test_library_argument_checks():
    a = build("truncated_poly", k=2).algebra
    b = build("truncated_poly", k=2, field=GF101).algebra
    cases = [
        (TypeError, "use build_algebra() to construct an Algebra", lambda: Algebra(Q, 0, 1, (), None, None)),
        (DimensionMismatch, "expected 2 coordinates, got 1", lambda: a.element((1,))),
        (ValueError, "algebra has no unity", lambda: build("strict_upper", n=3).algebra.one()),
        (DimensionMismatch, "dimension must be non-negative", lambda: build_algebra(Q, -1, {})),
        (DimensionMismatch, "labels length != dim", lambda: build_algebra(Q, 2, {}, labels=["x"])),
        (DimensionMismatch, "generator has wrong length", lambda: ideal_generated(a, [(1,)])),
        (DimensionMismatch, "subspace does not live in the algebra",
         lambda: ideal_witness(a, span(Q, [], 3))),
        (DimensionMismatch, "subspace does not live in the algebra",
         lambda: ideal_witness(a, span(GF101, [], 2))),
        (FieldMismatch, "direct product over different fields", lambda: direct_product(a, b)),
        (FieldMismatch, "tensor product over different fields", lambda: tensor_product(a, b)),
        (DimensionMismatch, "matrix size must be >= 1", lambda: matrix_algebra(a, 0)),
        (DimensionMismatch, "matrix size must be >= 1", lambda: decompose_tensor_element(a, 0, ())),
        (DimensionMismatch, "subspaces live in different ambient spaces",
         lambda: subspace_sum(span(Q, [], 2), span(Q, [], 3))),
        (DimensionMismatch, "subspaces live in different ambient spaces",
         lambda: subspace_sum(span(Q, [], 2), span(GF101, [], 2))),
        (DimensionMismatch, "subspaces live in different ambient spaces",
         lambda: subspace_intersect(span(Q, [], 2), span(Q, [], 3))),
        (DimensionMismatch, "subspaces live in different ambient spaces",
         lambda: subspace_intersect(span(Q, [], 2), span(GF101, [], 2))),
        (DimensionMismatch, "generator has wrong length",
         lambda: express_in_span(Q, [(1,)], (1, 0), 2)),
    ]
    for exc, message, call in cases:
        _refused(exc, message, call)


@pytest.mark.parametrize(
    "argv, message",
    [(("product", "q.json", "g.json", "-o", "out.json"), "direct product over different fields"),
     (("tensor", "q.json", "g.json", "-o", "out.json"), "tensor product over different fields"),
     (("matrix", "q.json", "--n", "0", "-o", "out.json"), "matrix size must be >= 1")],
    ids=["product", "tensor", "matrix"],
)
def test_constructions_refused_from_files_exit_2(argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "construct", "truncated_poly", "--k", "2", "-o", "q.json")
    run(capsys, "construct", "truncated_poly", "--field", "GF:101", "--k", "2", "-o", "g.json")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out.json").exists()


def test_a_refused_write_leaves_the_output_file_as_it_was(tmp_path, capsys, monkeypatch):
    # e0 e0 = c e0 with c = 1/7...7 (4300 digits) loads; its tensor square has
    # c^2 with 8600, so writing it is refused before the file is opened
    monkeypatch.chdir(tmp_path)
    big = {"field": "Q", "dim": 1, "table": [[0, 0, [[0, "1/" + "7" * 4300]]]]}
    (tmp_path / "big.json").write_text(json.dumps(big))
    square = tensor_product(algebra_from_json(big), algebra_from_json(big))
    message = "a computed scalar exceeds the limit of 4300 digits per integer"

    def cli(name):
        assert run(capsys, "tensor", "big.json", "big.json", "-o", name) == (2, "", f"error: {message}\n")

    for write in (lambda name: _refused(ScalarTooLong, message, lambda: save_algebra(square, name)), cli):
        (tmp_path / "out.json").write_bytes(b'{"kept": true}\n')
        write("out.json")
        assert (tmp_path / "out.json").read_bytes() == b'{"kept": true}\n'
        write("new.json")
        assert not (tmp_path / "new.json").exists()
