"""Command-line surface: define algebras in files, run the engine, emit reports.

Exit codes: 0 on success (a NotStable verdict is a successful query), 1 on
usage errors, 2 on invalid input (bad file, non-associative table, not an
ideal, bad parameters such as a malformed --field or a non-unital algebra
given to decompose, a result with a scalar longer than a file may hold), 3
when the base field's characteristic is too small
for the radical criterion, 4 when the engine fails one of its own
consistency checks (a bug: the line names the command line, the seed and
the SHA-256 of each input file, enough to reproduce the run); every code
from 1 to 4 prints one line to stderr, argparse's refusals included.  All
report commands accept --json; identical inputs and seeds produce
byte-identical JSON up to the "timings" member.  Fields are written Q, GF:p
or GF(p).  Numbers use ASCII digits: integer options, p and CENSTAB_SEED are
[-]digits, and --poly coefficients are scalars [-]digits[/digits].  The
seed of fuzz, the one command that samples, is 0 by default, overridable
with the CENSTAB_SEED environment variable; a CENSTAB_SEED that is not an
integer is a usage error there, and so is a negative --ideals or
--elements.  decompose refuses
(code 2) an A (x) M_n above the file limit on dimension before it reads the
coordinates.

Output (the one paragraph --help leaves out).  Every subcommand writes
through `_emit`: with --json one JSON document, else its human lines.  The
documents of validate, info, stable, element, fuzz and decompose carry
"command" (the subcommand) and "version"; those of stable, element, fuzz and
decompose also carry "timings": {"seconds": s}, s the wall time of the
engine call.  construct and the commands that derive an algebra write the
algebra file's document, with none of the three.  For library callers,
`fileformat.report_to_json` writes "command" and "version" and no "timings".
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import shlex
import sys
import time
from pathlib import Path

from . import __version__
from .algebras import (
    center,
    direct_product,
    ideal_generated,
    is_commutative,
    matrix_algebra,
    nilpotency_index,
    opposite,
    quotient,
    tensor_product,
    unitization,
)
from .catalog import build as catalog_build, dimension as catalog_dimension, names as catalog_names
from .errors import (
    BadParams,
    ConsistencyError,
    DimensionMismatch,
    FieldMismatch,
    FileFormatError,
    IndexOutOfRange,
    NotAnIdeal,
    NotAssociative,
    ParseError,
    ScalarTooLong,
    UnsupportedCharacteristic,
)
from .fileformat import (
    MAX_DIM,
    algebra_to_json,
    dump_json,
    field_to_json,
    load_algebra,
    report_to_json,
    rows_to_json,
    vector_to_json,
)
from .radical import radical
from .scalars import MAX_LITERAL_DIGITS, RATIONALS, prime_field
from .stability import (
    algebra_centrally_stable,
    decompose_tensor_element,
    element_centrally_stable,
    fuzz_consistency,
)

_INPUT_ERRORS = (
    FileFormatError,
    ParseError,
    NotAssociative,
    NotAnIdeal,
    BadParams,
    DimensionMismatch,
    FieldMismatch,
    IndexOutOfRange,
    ScalarTooLong,
    ZeroDivisionError,
    OSError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# [0-9], not \d or int(), which take every Unicode decimal digit; an integer
# has at most as many digits as int() converts
_FIELD_RE = re.compile(r"(?:GF|gf)(?::([0-9]+)|\(([0-9]+)\))")
_INT_RE = re.compile(rf"-?[0-9]{{1,{MAX_LITERAL_DIGITS}}}")


def _ascii_int(text: str) -> int:
    """An integer option: an optional minus sign and ASCII digits, as many as
    a scalar literal may have."""
    if not _INT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(
            f"expected an integer of at most {MAX_LITERAL_DIGITS} ASCII digits, got {text!r}"
        )
    return int(text)


def _env_seed() -> int:
    text = os.environ.get("CENSTAB_SEED", "0")
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"CENSTAB_SEED must be an integer, got {text!r}")
    return int(text)


def _check_usage(args):
    """The usage checks argparse does not make: counts are non-negative,
    and a missing --seed is read from CENSTAB_SEED."""
    for name in ("ideals", "elements"):
        value = getattr(args, name, 0)
        if value < 0:
            raise ValueError(f"--{name} must be non-negative, got {value}")
    if getattr(args, "seed", 0) is None:
        args.seed = _env_seed()


def _parse_field(text: str):
    t = text.strip()
    if t in ("Q", "q"):
        return RATIONALS
    m = _FIELD_RE.fullmatch(t)
    if m is None:
        raise BadParams(f"bad field {text!r}; use Q, GF:p or GF(p)")
    try:
        return prime_field(int(m.group(1) or m.group(2)))
    except ValueError as exc:
        raise BadParams(str(exc)) from None


def _parse_coords(field, text, dim):
    parts = text.split(",") if text.strip() else []  # blank: the zero-dimensional vector
    if len(parts) != dim:
        raise BadParams(f"expected {dim} coordinates, got {len(parts)}")
    return tuple(field.parse(p) for p in parts)


def _emit(args, command, doc, lines, seconds=None):
    """Write doc with --json, else the human lines, and return 0.  A command
    stamps its name and the version on doc, and a timed one the seconds its
    engine call took; an algebra document (command None) is written as is."""
    if args.json:
        if command is not None:
            doc = {**doc, "command": command, "version": __version__}
        if seconds is not None:
            doc["timings"] = {"seconds": round(seconds, 6)}
        sys.stdout.write(dump_json(doc))
    else:
        for line in lines:
            print(line)
    return 0


def _timed(fn, *args):
    """fn(*args) and the seconds it took."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _check_output_dim(dim):
    # an algebra file is only useful if load_algebra will read it back
    if dim > MAX_DIM:
        raise BadParams(f"the result would have dimension {dim}, above the file limit of {MAX_DIM}")


def _write_algebra(args, alg, summary):
    if not args.out and not args.json:
        raise BadParams("give -o FILE or --json so the result goes somewhere")
    _check_output_dim(alg.dim)
    doc = algebra_to_json(alg)  # before the file opens: a refused scalar leaves it as it was
    if args.out:
        Path(args.out).write_text(dump_json(doc), encoding="utf-8")
    return _emit(args, None, doc, [f"{summary} -> {args.out}"])


# -- subcommand implementations ------------------------------------------------


def _cmd_validate(args):
    alg = load_algebra(args.file)  # raises on any defect
    doc = {
        "ok": True,
        "field": field_to_json(alg.field),
        "dim": alg.dim,
        "associative": True,
        "unital": alg.is_unital,
        "unity": vector_to_json(alg.field, alg.unity) if alg.is_unital else None,
    }
    lines = [
        f"ok: associative algebra of dimension {alg.dim} over {alg.field!r}",
        f"unity: {alg.one()!r}" if alg.is_unital else "unity: none",
    ]
    return _emit(args, "validate", doc, lines)


def _cmd_info(args):
    alg = load_algebra(args.file)
    z = center(alg)
    rad = radical(alg)
    nilp = nilpotency_index(alg)
    doc = {
        "field": field_to_json(alg.field),
        "dim": alg.dim,
        "unital": alg.is_unital,
        "commutative": is_commutative(alg),
        "nilpotent": nilp is not None,
        "nilpotency_index": nilp,
        "center_dim": z.dim,
        "center_basis": rows_to_json(alg.field, z.rows),
        "radical_dim": rad.dim,
        "radical_basis": rows_to_json(alg.field, rad.rows),
    }
    lines = [
        f"dimension {alg.dim} over {alg.field!r}",
        f"unital: {alg.is_unital}   commutative: {doc['commutative']}   "
        f"nilpotent: {doc['nilpotent']}"
        + (f" (index {nilp})" if nilp is not None else ""),
        f"center: dim {z.dim}",
        f"radical: dim {rad.dim}",
    ]
    return _emit(args, "info", doc, lines)


def _cmd_stable(args):
    alg = load_algebra(args.file)
    report, seconds = _timed(algebra_centrally_stable, alg)
    lines = [
        f"verdict: {report.verdict}",
        f"method: {report.method}",
        f"certificate: {report.certificate.kind}",
    ]
    if report.certificate.kind == "UnstableElementWitness":
        el = alg.element(report.certificate.element)
        lines.append(f"non-stable element: {el!r}")
    return _emit(args, "stable", report_to_json(alg, report, command="stable"), lines, seconds)


def _cmd_element(args):
    alg = load_algebra(args.file)
    coords = _parse_coords(alg.field, args.coords, alg.dim)
    report, seconds = _timed(element_centrally_stable, alg.element(coords))
    lines = [f"verdict: {report.verdict}", f"method: {report.method}"]
    if report.verdict == "Stable":
        c = report.certificate
        lines.append(f"central part: {alg.element(c.central_part)!r}")
        lines.append(f"ideal part:   {alg.element(c.ideal_part)!r}")
    return _emit(args, "element", report_to_json(alg, report, command="element"), lines, seconds)


def _quotient(args, alg):
    gens = [
        alg.element(_parse_coords(alg.field, part.strip(), alg.dim))
        for part in args.gens.split(";")
        if part.strip()
    ]
    ideal = ideal_generated(alg, gens)
    what = f"quotient by the dim-{ideal.dim} ideal generated by {len(gens)} element(s)"
    return quotient(alg, ideal).target, what


# Subcommands that write one algebra derived from their input files:
# name -> (help, input files, size, derive), where size(args, *algebras) is
# the dimension of the result (for quotient, a bound on it) and
# derive(args, *algebras) returns the new algebra and a summary of it.
_DERIVED = {
    "quotient": ("quotient by the ideal generated by elements", ("file",),
                 lambda args, a: a.dim, _quotient),
    "tensor": ("tensor product of two algebra files", ("file_a", "file_b"),
               lambda args, a, b: a.dim * b.dim,
               lambda args, a, b: (tensor_product(a, b), "tensor product")),
    "product": ("direct product of two algebra files", ("file_a", "file_b"),
                lambda args, a, b: a.dim + b.dim,
                lambda args, a, b: (direct_product(a, b), "direct product")),
    "unitize": ("adjoin a unity", ("file",),
                lambda args, a: a.dim + 1,
                lambda args, a: (unitization(a), "unitization")),
    "matrix": ("n x n matrices over the algebra", ("file",),
               lambda args, a: a.dim * max(args.n, 0) ** 2,
               lambda args, a: (matrix_algebra(a, args.n), f"matrix algebra M_{args.n}")),
    "opposite": ("reverse the multiplication", ("file",),
                 lambda args, a: a.dim,
                 lambda args, a: (opposite(a), "opposite algebra")),
}


def _cmd_derived(args):
    algebras = [load_algebra(getattr(args, f)) for f in args.files]
    _check_output_dim(args.size(args, *algebras))
    alg, what = args.derive(args, *algebras)
    return _write_algebra(args, alg, f"{what}: dimension {alg.dim}")


def _cmd_construct(args):
    params = {}
    if args.field is not None:
        params["field"] = _parse_field(args.field)
    if args.n is not None:
        params["n"] = args.n
    if args.k is not None:
        params["k"] = args.k
    if args.poly is not None:
        try:
            params["poly"] = tuple(RATIONALS.parse(c) for c in args.poly.split(","))
        except (ParseError, ZeroDivisionError) as exc:
            raise BadParams(f"bad polynomial coefficients: {exc}") from None
    _check_output_dim(catalog_dimension(args.name, **params))
    entry = catalog_build(args.name, **params)
    return _write_algebra(
        args,
        entry.algebra,
        f"{entry.description}: dimension {entry.algebra.dim}, "
        f"expected {entry.expected.verdict}",
    )


def _cmd_fuzz(args):
    alg = load_algebra(args.file)
    rep, seconds = _timed(fuzz_consistency, alg, args.ideals, args.elements, args.seed)
    doc = {
        "algebra_verdict": rep.algebra_verdict,
        "ideal_samples": rep.ideal_samples,
        "element_samples": rep.element_samples,
        "seed": rep.seed,
        "ok": rep.ok,
        "findings": [
            {"kind": f.kind, "sample_index": f.sample_index, "detail": f.detail}
            for f in rep.findings
        ],
    }
    lines = [
        f"algebra verdict: {rep.algebra_verdict}",
        f"{rep.ideal_samples} ideal samples, {rep.element_samples} element samples",
        "no violations" if rep.ok else f"{len(rep.findings)} FATAL findings",
    ]
    lines += [f"  {f.kind} at sample {f.sample_index}: {f.detail}" for f in rep.findings]
    return _emit(args, "fuzz", doc, lines, seconds)


def _cmd_decompose(args):
    alg = load_algebra(args.file)
    n = args.n
    if n < 1:
        raise DimensionMismatch("matrix size must be >= 1")
    _check_output_dim(alg.dim * n * n)
    coords = _parse_coords(alg.field, args.coords, alg.dim * n * n)
    dec, seconds = _timed(decompose_tensor_element, alg, n, coords, args.pivot)
    doc = {
        "n": n,
        "pivot": dec.pivot,
        "tensor_dim": dec.tensor_algebra.dim,
        "diagonal_part": vector_to_json(alg.field, dec.diagonal_part.coords),
        "stable_part": vector_to_json(alg.field, dec.stable_part.coords),
        "checks": dec.checks,
        "diagonal_verdict": dec.diagonal_report.verdict,
        "tensor_element_verdict": dec.full_report.verdict if dec.full_report else None,
    }
    lines = [
        f"t = a(x)1 + s over M_{n}, pivot slot ({dec.pivot},{dec.pivot})",
        f"diagonal part (element of the base algebra): {dec.diagonal_part!r}",
        f"checks: {dec.checks}",
        f"diagonal part verdict: {dec.diagonal_report.verdict}",
    ]
    if dec.full_report is not None:
        lines.append(f"tensor element verdict: {dec.full_report.verdict}")
    return _emit(args, "decompose", doc, lines, seconds)


# -- parser wiring ---------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="censtab", description=__doc__.rsplit("\n\n", 1)[0])
    parser.add_argument("--version", action="version", version=f"censtab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    p = add("validate", _cmd_validate, "check a file: associativity and unity")
    p.add_argument("file")

    p = add("info", _cmd_info, "dimensions, center and radical of an algebra file")
    p.add_argument("file")

    p = add("stable", _cmd_stable, "decide central stability of the whole algebra")
    p.add_argument("file")

    p = add("element", _cmd_element, "decide central stability of one element")
    p.add_argument("file")
    p.add_argument("--coords", required=True, help='comma-separated scalars, e.g. "1,0,-1/2"')

    for name, (help_, files, size, derive) in _DERIVED.items():
        p = add(name, _cmd_derived, help_)
        for f in files:
            p.add_argument(f)
        p.add_argument("-o", "--out")
        p.set_defaults(size=size, derive=derive, files=files)
    sub.choices["quotient"].add_argument("--gens", required=True, help='vectors separated by ";"')
    sub.choices["matrix"].add_argument("--n", type=_ascii_int, required=True)

    p = add("construct", _cmd_construct, "build a named catalog algebra")
    p.add_argument("name", choices=catalog_names())
    p.add_argument("--field", help="Q (default), GF:p or GF(p)")
    p.add_argument("--n", type=_ascii_int)
    p.add_argument("--k", type=_ascii_int)
    p.add_argument("--poly", help='monic polynomial coefficients, low to high: "-2,0,1"')
    p.add_argument("-o", "--out")

    p = add("fuzz", _cmd_fuzz, "randomized consistency checks")
    p.add_argument("file")
    p.add_argument("--ideals", type=_ascii_int, default=50)
    p.add_argument("--elements", type=_ascii_int, default=100)
    p.add_argument("--seed", type=_ascii_int)

    p = add("decompose", _cmd_decompose, "split t in A(x)M_n as a(x)1 + s")
    p.add_argument("file")
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--coords", required=True)
    p.add_argument("--pivot", type=_ascii_int)

    return parser


def _glue_dash_values(argv):
    """Rewrite "--coords -1/2,..." as "--coords=-1/2,..." so argparse does
    not mistake a leading minus sign for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--coords", "--gens", "--poly") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_glue_dash_values(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        _check_usage(args)
    except ValueError as exc:
        print(f"censtab: error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UnsupportedCharacteristic as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal error: {exc}; {_reproduction(argv, args)}", file=sys.stderr)
        return 4


def _reproduction(argv, args) -> str:
    """The command line, the seed and the SHA-256 of every input file."""
    parts = [f"command: {shlex.join(['censtab', *argv])}", f"seed: {getattr(args, 'seed', None)}"]
    for path in filter(None, (getattr(args, name, None) for name in ("file", "file_a", "file_b"))):
        try:
            digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        except OSError:
            digest = "unreadable"
        parts.append(f"sha256 {path}: {digest}")
    return "; ".join(parts)


if __name__ == "__main__":
    sys.exit(main())
