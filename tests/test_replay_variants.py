"""Replay accepts exactly what it accepted when it read certificates into
Fractions.

Three engine reports over Q and over GF(101), each with one claimed vector
list altered, replay to the outcome recorded in golden/replay_variants.json:
True, False, or the text of the FileFormatError.  The outcomes were
computed by the Fraction replay; regenerate the file only for a change that
means to alter what replay accepts:

    PYTHONPATH=src python tests/test_replay_variants.py > tests/golden/replay_variants.json
"""

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from censtab.catalog import build
from censtab.errors import FileFormatError
from censtab.fileformat import report_to_json, verify_report_json
from censtab.scalars import RATIONALS, prime_field
from censtab.stability import algebra_centrally_stable, element_centrally_stable

GOLDEN = Path(__file__).parent / "golden" / "replay_variants.json"
FIELDS = {"Q": RATIONALS, "GF101": prime_field(101)}
_INTEGER = re.compile(r"-?[0-9]+")


def _reports(field):
    t3 = build("upper_triangular", n=3, field=field).algebra
    m2 = build("matrix_full", n=2, field=field).algebra
    p3 = build("truncated_poly", k=3, field=field).algebra
    cases = {
        "T3-unstable": (t3, element_centrally_stable(t3.element((2, 5, 0, 0, 0, 3))), "element"),
        "M2-stable": (m2, element_centrally_stable(m2.element((3, -2, 5, 7))), "element"),
        "P3-match": (p3, algebra_centrally_stable(p3), "stable"),
    }
    kinds = [rep.certificate.kind for _, rep, _ in cases.values()]
    assert kinds == ["UnstableElementWitness", "StableElementWitness", "RadicalMatch"]
    return {name: (a, report_to_json(a, rep, command=cmd)) for name, (a, rep, cmd) in cases.items()}


def _scaled(field, text, k):
    """The literal of k times the scalar text, k a Fraction."""
    if field.p is None:
        return field.format(Fraction(text) * k)
    return str(int(text) * k.numerator * pow(k.denominator, -1, field.p) % field.p)


def _variants(field, rows):
    """(name, rows') for each alteration of a claimed list of vectors."""
    nonzero = [i for i, x in enumerate(rows[0]) if x != "0"] if rows else []
    if nonzero:
        for lit in ("2", "2/2", "-1"):
            first = list(rows[0])
            first[nonzero[0]] = lit
            yield f"pivot={lit}", [first, *rows[1:]]
        # a multiple of a unit-pivot row: halved, its int entries are the
        # row's own, and only its denominator tells them apart
        for k in (Fraction(2), Fraction(1, 2)):
            yield f"first-times-{k}", [[_scaled(field, x, k) for x in rows[0]], *rows[1:]]
    if len(rows) >= 2:
        yield "swapped", [rows[1], rows[0], *rows[2:]]
    yield "numbers", [[int(x) if _INTEGER.fullmatch(x) else x for x in row] for row in rows]
    yield "unreduced", [[x if x == "0" else _unreduced(x) for x in row] for row in rows]
    if field.p is not None:
        yield "plus-p", [[x if x == "0" else str(int(x) + field.p) for x in row] for row in rows]
    if rows:
        yield "short", [rows[0][:-1], *rows[1:]]
        yield "short-bad-literal", [["1/0", *rows[0][1:-1]], *rows[1:]]


def _unreduced(text):
    num, _, den = text.partition("/")
    return f"{2 * int(num)}/{2 * int(den or 1)}"


def _outcome(a, doc):
    try:
        return verify_report_json(a, doc)
    except FileFormatError as exc:
        return f"FileFormatError: {exc}"


def outcomes():
    """{variant name: replay outcome} over every report, member and alteration."""
    out = {}
    for tag, field in FIELDS.items():
        for name, (a, doc) in _reports(field).items():
            out[f"{tag}/{name}"] = _outcome(a, doc)
            for key, val in doc["certificate"].items():
                if key == "kind":
                    continue
                vector = not key.endswith("_basis")
                for what, rows in _variants(field, [val] if vector else val):
                    bad = json.loads(json.dumps(doc))
                    bad["certificate"][key] = rows[0] if vector else rows
                    out[f"{tag}/{name}/{key}/{what}"] = _outcome(a, bad)
    return out


def test_replay_of_altered_reports_gives_the_recorded_outcomes():
    want = json.loads(GOLDEN.read_text())
    got = outcomes()
    assert sorted(got) == sorted(want)
    assert {k: v for k, v in got.items() if v != want[k]} == {}
    # every outcome occurs, and the m check's case is among the rejections
    assert {type(v) for v in got.values()} == {bool, str}
    assert set(got.values()) >= {True, False}
    assert got["Q/T3-unstable/center_basis/first-times-1/2"] is False


if __name__ == "__main__":
    json.dump(outcomes(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
