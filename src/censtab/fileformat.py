"""JSON serialization for algebras and reports.

Algebra files carry the field, the dimension, optional basis labels and the
sparse structure-constant table as [i, j, [[k, "scalar"], ...]] triples with
0-based indices; pairs that are absent multiply to zero.  Scalars are always
strings in the scalar grammar, never floats, so exactness survives the round
trip; exporting a loaded file reproduces it byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import fields

from .algebras import Algebra, build_algebra
from .errors import FileFormatError
from .scalars import RATIONALS, FieldSpec, prime_field
from .stability import (
    RadicalGap,
    RadicalMatch,
    StabilityReport,
    StableElementWitness,
    UnstableElementWitness,
    WitnessSearchExhausted,
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
    return [field.format(x) for x in vec]


def vector_from_json(field, doc, length=None):
    if not isinstance(doc, list):
        raise FileFormatError("coordinate vector must be a list")
    if length is not None and len(doc) != length:
        raise FileFormatError(f"expected {length} coordinates, got {len(doc)}")
    return tuple(field.parse(str(x)) for x in doc)


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


# Loading a larger algebra is refused: the engine's work grows as dim^3, so
# a few bytes of "dim" could otherwise hold a run for minutes.
MAX_DIM = 256


def _is_int(x) -> bool:
    # JSON true/false load as bools, which Python counts as ints
    return isinstance(x, int) and not isinstance(x, bool)


def algebra_from_json(doc) -> Algebra:
    """Parse and fully validate an algebra document (associativity included)."""
    if not isinstance(doc, dict):
        raise FileFormatError("algebra document must be a JSON object")
    for key in ("field", "dim", "table"):
        if key not in doc:
            raise FileFormatError(f"missing member {key!r}")
    unknown = set(doc) - {"field", "dim", "table", "labels"}
    if unknown:
        raise FileFormatError(f"unknown members {sorted(unknown)}")
    field = field_from_json(doc["field"])
    dim = doc["dim"]
    if not _is_int(dim) or dim < 0:
        raise FileFormatError("dim must be a non-negative integer")
    if dim > MAX_DIM:
        raise FileFormatError(f"dim {dim} exceeds the limit of {MAX_DIM}")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != dim:
            raise FileFormatError("labels must list one string per basis vector")
    table = {}
    if not isinstance(doc["table"], list):
        raise FileFormatError("table must be a list of [i, j, pairs] entries")
    for entry in doc["table"]:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise FileFormatError(f"bad table entry {entry!r}")
        i, j, pairs = entry
        if not (_is_int(i) and _is_int(j)):
            raise FileFormatError(f"bad indices in table entry {entry!r}")
        if (i, j) in table:
            raise FileFormatError(f"duplicate table entry for ({i}, {j})")
        if not isinstance(pairs, list):
            raise FileFormatError(f"bad product list in entry ({i}, {j})")
        parsed = []
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2 and _is_int(pair[0])):
                raise FileFormatError(f"bad product pair {pair!r} in entry ({i}, {j})")
            parsed.append((pair[0], field.parse(str(pair[1]))))
        table[(i, j)] = parsed
    return build_algebra(field, dim, table, labels)


def dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_algebra(a: Algebra, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(algebra_to_json(a)))


def load_algebra(path) -> Algebra:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"not valid JSON: {exc}") from None
    return algebra_from_json(doc)


# ---------------------------------------------------------------------------
# Certificates and reports
# ---------------------------------------------------------------------------


_CERTIFICATES = {
    cls.kind: cls
    for cls in (
        StableElementWitness,
        UnstableElementWitness,
        RadicalMatch,
        RadicalGap,
        WitnessSearchExhausted,
    )
}
_PLAIN = {"str": str, "int": int}


def _members(cls):
    """(attribute, JSON key, type name) per field of a certificate class.

    A `*_rows` field is a list of vectors under the key `*_basis`; a `tuple`
    field is one vector; `str` and `int` fields are stored as they are; any
    other type names a nested certificate.
    """
    for f in fields(cls):
        key = f.name[: -len("_rows")] + "_basis" if f.name.endswith("_rows") else f.name
        yield f.name, key, f.type


def certificate_to_json(field, cert) -> dict:
    if _CERTIFICATES.get(getattr(cert, "kind", None)) is not type(cert):
        raise TypeError(f"unknown certificate {cert!r}")
    doc = {"kind": cert.kind}
    for name, key, typ in _members(type(cert)):
        val = getattr(cert, name)
        if name.endswith("_rows"):
            doc[key] = rows_to_json(field, val)
        elif typ == "tuple":
            doc[key] = vector_to_json(field, val)
        elif typ in _PLAIN:
            doc[key] = val
        else:
            doc[key] = certificate_to_json(field, val)
    return doc


def certificate_from_json(field, doc):
    if not isinstance(doc, dict):
        raise FileFormatError("certificate must be a JSON object")
    kind = doc.get("kind")
    cls = _CERTIFICATES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise FileFormatError(f"unknown certificate kind {kind!r}")
    args = []
    for name, key, typ in _members(cls):
        if key not in doc:
            raise FileFormatError(f"{kind} certificate misses member {key!r}")
        val = doc[key]
        if name.endswith("_rows"):
            if not isinstance(val, list):
                raise FileFormatError(f"{kind} member {key!r} must be a list of vectors")
            val = tuple(vector_from_json(field, row) for row in val)
        elif typ == "tuple":
            val = vector_from_json(field, val)
        elif typ in _PLAIN:
            if type(val) is not _PLAIN[typ]:
                raise FileFormatError(f"{kind} member {key!r} must be of JSON type {typ}")
        else:
            val = certificate_from_json(field, val)
            if val.kind != typ:
                raise FileFormatError(f"{kind} member {key!r} must be a {typ} certificate")
        args.append(val)
    return cls(*args)


def report_to_json(
    a: Algebra,
    report: StabilityReport,
    *,
    command: str,
    seed=None,
    witness_budget=None,
    timings=None,
) -> dict:
    from . import __version__

    bases = {}
    for key, rows in report.bases.items():
        if key == "ambient":
            bases[key] = rows
        else:
            bases[key] = rows_to_json(a.field, rows)
    doc = {
        "command": command,
        "verdict": report.verdict,
        "method": report.method,
        "certificate": certificate_to_json(a.field, report.certificate),
        "bases": bases,
        "version": __version__,
    }
    if seed is not None:
        doc["seed"] = seed
    if witness_budget is not None:
        doc["witness_budget"] = witness_budget
    if timings is not None:
        doc["timings"] = timings
    return doc


def verify_report_json(a: Algebra, doc: dict) -> bool:
    """Replay a serialized report's certificate against an algebra.

    Raises FileFormatError when the report lacks a member the replay reads
    or a member has the wrong JSON type.
    """
    if not isinstance(doc, dict):
        raise FileFormatError("report must be a JSON object")
    for key in ("verdict", "method", "certificate"):
        if key not in doc:
            raise FileFormatError(f"report misses member {key!r}")
    if not (isinstance(doc["verdict"], str) and isinstance(doc["method"], str)):
        raise FileFormatError("report verdict and method must be strings")
    cert = certificate_from_json(a.field, doc["certificate"])
    report = StabilityReport(doc["verdict"], doc["method"], cert)
    if not verify_certificate(a, report):
        return False
    # the certificate kind must actually support the claimed verdict
    is_stable_cert = cert.kind in ("StableElementWitness", "RadicalMatch")
    return is_stable_cert == (doc["verdict"] == "Stable")
