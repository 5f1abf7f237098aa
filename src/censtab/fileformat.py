"""JSON serialization for algebras and reports.

Algebra files carry the field, the dimension, optional basis labels and the
sparse structure-constant table as [i, j, [[k, "scalar"], ...]] triples with
0-based indices; pairs that are absent multiply to zero.  Scalars are always
strings in the scalar grammar, never floats, so exactness survives the round
trip.  A file exports as its canonical form: entries sorted by (i, j), pairs
by k, literals reduced, a repeated k summed and zeros dropped; so exporting
a loaded canonical file, such as any the engine writes, reproduces it byte
for byte.

`dump_json` writes every file and report.  Its text is, byte for byte,
`json.dumps(doc, indent=2, sort_keys=True)` plus a newline.  Most scalars in
a report are zeros: `vector_to_json` writes the field's shared zero object as
"0" without formatting it.  A certificate is read back without a Fraction:
each vector becomes the int entries and denominator that replay compares
with the reducers' int rows (`stability.IntVector`), and the string "0" is
skipped unread.
"""

from __future__ import annotations

import json
from dataclasses import fields
from functools import cache
from math import lcm

from .algebras import Algebra, _derived, _validated
from .errors import FileFormatError
from .scalars import RATIONALS, FieldSpec, prime_field
from .stability import (
    METHOD_ELEMENT,
    METHOD_RADICAL,
    METHOD_UNITIZATION,
    NOT_STABLE,
    STABLE,
    IntVector,
    RadicalMatch,
    StabilityReport,
    StableElementWitness,
    UnstableElementWitness,
    verify_certificate,
)


def field_to_json(field: FieldSpec):
    return "Q" if field.p is None else {"GF": field.p}


def field_from_json(doc) -> FieldSpec:
    if doc == "Q":
        return RATIONALS
    if isinstance(doc, dict) and set(doc) == {"GF"}:
        try:
            return prime_field(doc["GF"])
        except ValueError as exc:
            raise FileFormatError(str(exc)) from None
    raise FileFormatError(f"bad field description {doc!r}")


def vector_to_json(field, vec):
    zero, fmt = field.zero, field.format
    return ["0" if x is zero else fmt(x) for x in vec]


# A bad scalar: ParseError, a zero denominator, or str() of too long an int
# or of a value nested too deeply
_SCALAR_ERRORS = (ValueError, ZeroDivisionError, RecursionError)


def vector_from_json(field, doc, length=None):
    """The field scalars of a coordinate list, such as an element query's;
    certificate vectors are read by certificate_from_json."""
    if not isinstance(doc, list):
        raise FileFormatError("coordinate vector must be a list")
    if length is not None and len(doc) != length:
        raise FileFormatError(f"expected {length} coordinates, got {len(doc)}")
    zero, parse = field.zero, field.parse
    try:
        return tuple(zero if x == "0" else parse(str(x)) for x in doc)
    except _SCALAR_ERRORS as exc:
        raise FileFormatError(str(exc)) from None


def rows_to_json(field, rows):
    return [vector_to_json(field, r) for r in rows]


def algebra_to_json(a: Algebra) -> dict:
    doc = {"field": field_to_json(a.field), "dim": a.dim}
    if a.labels:
        doc["labels"] = list(a.labels)
    table = []
    for (i, j) in sorted(a.table):
        pairs = [[k, a.field.format(c)] for k, c in a.table[(i, j)]]
        table.append([i, j, pairs])
    doc["table"] = table
    return doc


# Loading a larger algebra is refused: on a dense table the associativity
# check alone grows as |G| dim^4, G the generating set (up to dim vectors),
# so a few bytes of "dim" could otherwise hold a run for minutes.
MAX_DIM = 256


def algebra_from_json(doc) -> Algebra:
    """Parse and fully validate an algebra document (associativity included).

    The checks run in this order, and the first failure is raised: the
    members, field, dim and labels; then the table's JSON structure and its
    literals, entry by entry in file order, in one walk that reads each
    distinct literal string into its value once; then index ranges
    (`_index`), then associativity, then the unity (`_validated`).
    """
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
    # JSON true/false load as bools, which Python counts as ints
    if type(dim) is not int or dim < 0:
        raise FileFormatError("dim must be a non-negative integer")
    if dim > MAX_DIM:
        raise FileFormatError(f"dim {dim} exceeds the limit of {MAX_DIM}")
    labels = doc.get("labels")
    if labels is not None:
        if not (isinstance(labels, list) and len(labels) == dim
                and all(isinstance(s, str) for s in labels)):
            raise FileFormatError("labels must list one string per basis vector")
        labels = tuple(labels)
    if not isinstance(doc["table"], list):
        raise FileFormatError("table must be a list of [i, j, pairs] entries")
    read, rational = field.read, field.p is None
    # literal string -> its value as `_index` takes it; numbers and bools are
    # read each time, since a key of the raw value would let true hit the
    # entry of 1 (True == 1, with the same hash)
    values = {}
    seen, entries = set(), []
    for entry in doc["table"]:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise FileFormatError(f"bad table entry {entry!r}")
        i, j, pairs = entry
        if not (type(i) is int and type(j) is int):
            raise FileFormatError(f"bad indices in table entry {entry!r}")
        if (i, j) in seen:
            raise FileFormatError(f"duplicate table entry for ({i}, {j})")
        seen.add((i, j))
        if not isinstance(pairs, list):
            raise FileFormatError(f"bad product list in entry ({i}, {j})")
        parsed = []
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2 and type(pair[0]) is int):
                raise FileFormatError(f"bad product pair {pair!r} in entry ({i}, {j})")
            k, c = pair
            text = c if type(c) is str else None
            value = values.get(text)
            if value is None:
                try:
                    value = read(str(c))
                except _SCALAR_ERRORS as exc:
                    raise FileFormatError(str(exc)) from None
                if not rational:
                    value = value, 1
                if text is not None:
                    values[text] = value
            parsed.append((k, value))
        entries.append((i, j, parsed))
    return _validated(_derived(field, dim, entries, labels))


_encode_str = json.encoder.encode_basestring_ascii


def dump_json(doc) -> str:
    """doc as the text of json.dumps(doc, indent=2, sort_keys=True) plus a
    newline, byte for byte; dict keys must be strings."""
    out = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(doc, nl, out):
    """Append the JSON text of doc to out; nl is a newline and the indent of
    the line doc starts on."""
    if isinstance(doc, str):
        out.append(_encode_str(doc))
    elif isinstance(doc, (list, tuple)):
        if not doc:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        try:  # a vector of scalar strings, in one join
            out.append("[" + inner + sep.join(map(_encode_str, doc)) + nl + "]")
            return
        except TypeError:  # an item that is not a string
            pass
        out.append("[")
        for i, item in enumerate(doc):
            out.append(sep if i else inner)
            _write_json(item, inner, out)
        out.append(nl + "]")
    elif isinstance(doc, dict):
        if not doc:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "," + inner
        out.append("{")
        for i, key in enumerate(sorted(doc)):
            out.append((sep if i else inner) + _encode_str(key) + ": ")
            _write_json(doc[key], inner, out)
        out.append(nl + "}")
    else:  # a number, a bool or None
        out.append(json.dumps(doc))


def save_algebra(a: Algebra, path) -> None:
    text = dump_json(algebra_to_json(a))  # first: a refused scalar leaves the file as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_algebra(path) -> Algebra:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or a number over the int limit
            raise FileFormatError(f"not valid JSON: {exc}") from None
        except RecursionError:
            raise FileFormatError("not valid JSON: nested too deeply") from None
    return algebra_from_json(doc)


# ---------------------------------------------------------------------------
# Certificates and reports
# ---------------------------------------------------------------------------


_CERTIFICATES = {
    cls.kind: cls for cls in (StableElementWitness, UnstableElementWitness, RadicalMatch)
}


@cache
def _members(cls):
    """(attribute, JSON key) per field of a certificate class, in order,
    worked out once per class.

    A `*_rows` field is a list of vectors under the key `*_basis`; any
    other field is one vector.
    """
    return tuple(
        (f.name, f.name[: -len("_rows")] + "_basis" if f.name.endswith("_rows") else f.name)
        for f in fields(cls)
    )


def certificate_to_json(field, cert) -> dict:
    if _CERTIFICATES.get(getattr(cert, "kind", None)) is not type(cert):
        raise TypeError(f"unknown certificate {cert!r}")
    doc = {"kind": cert.kind}
    for name, key in _members(type(cert)):
        val = getattr(cert, name)
        if name.endswith("_rows"):
            doc[key] = rows_to_json(field, val)
        else:
            doc[key] = vector_to_json(field, val)
    return doc


def certificate_from_json(field, doc, dim):
    """Parse a certificate over an algebra of dimension dim, each vector as
    the IntVector replay reads (see _vector_of_length).

    Every vector must have dim coordinates, checked once its literals are read.
    """
    if not isinstance(doc, dict):
        raise FileFormatError("certificate must be a JSON object")
    kind = doc.get("kind")
    cls = _CERTIFICATES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        shown = repr(kind) if isinstance(kind, str) else f"of type {type(kind).__name__}"
        raise FileFormatError(f"unknown certificate kind {shown}")
    args = {}
    for name, key in _members(cls):
        if key not in doc:
            raise FileFormatError(f"{kind} certificate misses member {key!r}")
        val = doc[key]
        if name.endswith("_rows"):
            if not isinstance(val, list):
                raise FileFormatError(f"{kind} member {key!r} must be a list of vectors")
            val = tuple(_vector_of_length(field, row, dim, kind, key) for row in val)
        else:
            val = _vector_of_length(field, val, dim, kind, key)
        args[name] = val
    unknown = set(doc) - {"kind"} - {key for _, key in _members(cls)}
    if unknown:
        raise FileFormatError(f"{kind} certificate has unknown members {sorted(unknown, key=str)}")
    return cls(**args)


def _vector_of_length(field, doc, n, kind, key):
    """The IntVector of n coordinates that doc lists.  Every literal but the
    string "0" is read with `FieldSpec.read`, all before the length is
    checked; over Q the (numerator, denominator) pairs are brought to the
    lcm of their denominators, over GF(p) the residues are the entries."""
    if not isinstance(doc, list):
        raise FileFormatError(f"{kind} member {key!r}: coordinate vector must be a list")
    read = field.read
    try:
        values = [(i, read(x if type(x) is str else str(x))) for i, x in enumerate(doc) if x != "0"]
    except _SCALAR_ERRORS as exc:
        raise FileFormatError(f"{kind} member {key!r}: {exc}") from None
    if len(doc) != n:
        raise FileFormatError(
            f"{kind} member {key!r} has a vector of {len(doc)} coordinates, expected {n}"
        )
    if field.p is not None:
        return IntVector({i: x for i, x in values if x}, 1, n)
    m = lcm(*[den for _, (num, den) in values if num])
    return IntVector({i: num * (m // den) for i, (num, den) in values if num}, m, n)


def report_to_json(a: Algebra, report: StabilityReport, *, command: str) -> dict:
    """The JSON document of a report, stamped with the command that made it
    and the package version.  It carries no `timings`: the CLI adds them."""
    from . import __version__

    bases = {
        key: val if isinstance(val, str) else rows_to_json(a.field, val)
        for key, val in report.bases.items()
    }
    return {
        "command": command,
        "verdict": report.verdict,
        "method": report.method,
        "certificate": certificate_to_json(a.field, report.certificate),
        "bases": bases,
        "version": __version__,
    }


_METHODS = (METHOD_RADICAL, METHOD_UNITIZATION, METHOD_ELEMENT)


def verify_report_json(a: Algebra, doc: dict) -> bool:
    """Replay a serialized report's certificate against an algebra.

    Raises FileFormatError when the report lacks a member the replay reads,
    a member has the wrong JSON type, the verdict or method is not one the
    engine writes, a certificate has a member its kind does not have, a
    certificate vector has the wrong number of coordinates, or a
    certificate scalar is not a literal of the field's grammar within
    `scalars.MAX_LITERAL_DIGITS`.  Returns False when the verdict or method
    does not fit the certificate's kind, or the certificate does not hold.
    """
    if not isinstance(doc, dict):
        raise FileFormatError("report must be a JSON object")
    for key in ("verdict", "method", "certificate"):
        if key not in doc:
            raise FileFormatError(f"report misses member {key!r}")
    verdict, method = doc["verdict"], doc["method"]
    if verdict not in (STABLE, NOT_STABLE):
        raise FileFormatError(f"report verdict must be {STABLE!r} or {NOT_STABLE!r}")
    if method not in _METHODS:
        raise FileFormatError(f"report method must be one of {', '.join(_METHODS)}")
    cert = certificate_from_json(a.field, doc["certificate"], a.dim)
    return verify_certificate(a, StabilityReport(verdict, method, cert))
