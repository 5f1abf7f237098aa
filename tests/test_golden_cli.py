"""Golden output of every CLI subcommand on a small roster.

The roster is T_3, strict_upper 3, M_2, truncated_poly 3, ema and
scalar_plus_strict_upper 3, over Q and (all but the Q-only ema) over GF(101).
Each case runs one subcommand with `--json` and compares standard output byte
for byte with the stored text in `golden/cli_json.json`, with the `timings`
member cut out of both.  The same cases run again without `--json`, the
commands that write an algebra given `-o TMP/out.json`, and their human
lines are compared with `golden/cli_text.json`, the temporary directory
written as TMP.  `golden/cli_help.json` holds what censtab hands argparse
for `--help`: the description, each subcommand's help, and each argument's
option strings, help, `required`, default and choices (argparse's rendering
of them varies between Python versions).  Refactors of the engine and the
CLI must keep these bytes.  To regenerate the stored files after an
intended change of output:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import argparse
import json
import sys
from pathlib import Path

from censtab.cli import _build_parser, main
from oracle import strip_timings

GOLDEN = Path(__file__).parent / "golden" / "cli_json.json"
GOLDEN_TEXT = Path(__file__).parent / "golden" / "cli_text.json"
GOLDEN_HELP = Path(__file__).parent / "golden" / "cli_help.json"
# the subcommands that write an algebra: given -o in place of --json
WRITERS = ("construct", "quotient", "tensor", "product", "unitize", "matrix", "opposite")

ROSTER = (
    ("T3", "upper_triangular", ("--n", "3")),
    ("N3", "strict_upper", ("--n", "3")),
    ("M2", "matrix_full", ("--n", "2")),
    ("P3", "truncated_poly", ("--k", "3")),
    ("EMA", "ema", ()),
    ("SU3", "scalar_plus_strict_upper", ("--n", "3")),
)
FIELDS = (("Q", "Q"), ("GF101", "GF:101"))


def _vec(dim, entries):
    v = ["0"] * dim
    for i, x in entries:
        v[i % dim] = x
    return ",".join(v)


def _cases(paths, dims, unital):
    """(case id, argv) for every subcommand on every roster entry."""
    out = []
    for fname, _ in FIELDS:
        for key, name, params in ROSTER:
            tag = f"{key}-{fname}"
            if tag not in paths:
                continue
            f, n = paths[tag], dims[tag]
            spec = dict(FIELDS)[fname]
            field_args = () if name == "ema" else ("--field", spec)
            out += [
                (f"construct/{tag}", ["construct", name, *field_args, *params, "--json"]),
                (f"validate/{tag}", ["validate", f, "--json"]),
                (f"info/{tag}", ["info", f, "--json"]),
                (f"stable/{tag}", ["stable", f, "--json"]),
                (f"element-basis/{tag}", ["element", f, "--coords", _vec(n, [(1, "1")]), "--json"]),
                (
                    f"element-mixed/{tag}",
                    ["element", f, "--coords", _vec(n, [(0, "2"), (1, "5"), (n - 1, "3")]), "--json"],
                ),
                (f"quotient/{tag}", ["quotient", f, "--gens", _vec(n, [(1, "1")]), "--json"]),
                (f"tensor/{tag}", ["tensor", f, paths[f"P3-{fname}"], "--json"]),
                (f"product/{tag}", ["product", f, paths[f"M2-{fname}"], "--json"]),
                (f"unitize/{tag}", ["unitize", f, "--json"]),
                (f"matrix/{tag}", ["matrix", f, "--n", "2", "--json"]),
                (f"opposite/{tag}", ["opposite", f, "--json"]),
                (
                    f"fuzz/{tag}",
                    ["fuzz", f, "--ideals", "2", "--elements", "3", "--seed", "4", "--json"],
                ),
            ]
            if unital[tag]:
                coords = _vec(4 * n, [(0, "1"), (1, "2"), (4 * n - 1, "4"), (5, "1")])
                out.append(
                    (f"decompose/{tag}", ["decompose", f, "--n", "2", "--coords", coords, "--json"])
                )
    return out


def _run(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _write_roster(tmp, run):
    paths, dims, unital = {}, {}, {}
    for fname, spec in FIELDS:
        for key, name, params in ROSTER:
            if name == "ema" and fname != "Q":
                continue
            tag = f"{key}-{fname}"
            path = str(tmp / f"{tag}.json")
            field_args = () if name == "ema" else ("--field", spec)
            code, _ = run(["construct", name, *field_args, *params, "-o", path])
            assert code == 0
            doc = json.loads(Path(path).read_text())
            paths[tag] = path
            dims[tag] = doc["dim"]
            code, out = run(["validate", path, "--json"])
            unital[tag] = json.loads(out)["unital"]
    return paths, dims, unital


def _text_argv(argv, out):
    """argv without --json, writing to out if the subcommand writes an algebra."""
    argv = [arg for arg in argv if arg != "--json"]
    return argv + ["-o", out] if argv[0] in WRITERS else argv


def collect(tmp, run, text=False):
    """case id -> standard output: the `--json` text without `timings`, or
    with text=True the human lines, the directory tmp written as TMP."""
    paths, dims, unital = _write_roster(tmp, run)
    outputs = {}
    for case, argv in _cases(paths, dims, unital):
        if text:
            argv = _text_argv(argv, str(tmp / "out.json"))
        code, out = run(argv)
        assert code == 0, case
        outputs[case] = out.replace(str(tmp), "TMP") if text else strip_timings(out)
    return outputs


def _arguments(parser):
    """Each argument censtab adds to parser, as argparse holds it."""
    return [
        {"options": a.option_strings or [a.dest], "help": a.help, "required": a.required,
         "default": a.default, "choices": None if a.choices is None else list(a.choices)}
        for a in parser._actions
        if not isinstance(a, (argparse._HelpAction, argparse._VersionAction, argparse._SubParsersAction))
    ]


def help_spec():
    """What `censtab --help` and each subcommand's `--help` are made from."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {action.dest: action.help for action in sub._choices_actions}
    commands = {name: {"help": helps[name], "arguments": _arguments(p)} for name, p in sub.choices.items()}
    return {"description": parser.description, "arguments": _arguments(parser), "commands": commands}


def test_help_matches_golden():
    assert help_spec() == json.loads(GOLDEN_HELP.read_text())


def test_every_subcommand_is_covered():
    golden = json.loads(GOLDEN.read_text())
    commands = {case.split("/")[0].split("-")[0] for case in golden}
    assert commands == {
        "construct", "validate", "info", "stable", "element", "quotient", "tensor",
        "product", "unitize", "matrix", "opposite", "fuzz", "decompose",
    }


def test_json_output_matches_golden(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    outputs = collect(tmp_path, lambda argv: _run(argv, capsys))
    assert sorted(outputs) == sorted(golden)
    for case, text in outputs.items():
        assert text == golden[case], case


def test_human_output_matches_golden(tmp_path, capsys):
    golden = json.loads(GOLDEN_TEXT.read_text())
    outputs = collect(tmp_path, lambda argv: _run(argv, capsys), text=True)
    assert sorted(outputs) == sorted(golden)
    for case, text in outputs.items():
        assert text == golden[case], case


def test_info_and_stable_report_the_same_center_and_radical(tmp_path, capsys):
    paths, _, _ = _write_roster(tmp_path, lambda argv: _run(argv, capsys))
    for tag, path in paths.items():
        code, out = _run(["info", path, "--json"], capsys)
        assert code == 0, tag
        info = json.loads(out)
        code, out = _run(["stable", path, "--json"], capsys)
        assert code == 0, tag
        bases = json.loads(out)["bases"]
        assert (bases["center"], bases["radical"]) == (info["center_basis"], info["radical_basis"]), tag


def test_strip_timings_keeps_other_bytes():
    doc = {"a": 1, "timings": {"seconds": 0.5, "stages": {"x": [1, 2]}}, "version": "v"}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert strip_timings(text) == json.dumps({"a": 1, "version": "v"}, indent=2, sort_keys=True) + "\n"
    last = json.dumps({"a": 1, "timings": {"seconds": 1}}, indent=2, sort_keys=True) + "\n"
    assert strip_timings(last) == json.dumps({"a": 1}, indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":
    import io
    import tempfile
    from contextlib import redirect_stdout

    def run_captured(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(list(argv))
        return code, buf.getvalue()

    GOLDEN.parent.mkdir(exist_ok=True)
    for path, text in ((GOLDEN, False), (GOLDEN_TEXT, True)):
        with tempfile.TemporaryDirectory() as tmp:
            outputs = collect(Path(tmp), run_captured, text)
        path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(outputs)} cases to {path}", file=sys.stderr)
    GOLDEN_HELP.write_text(json.dumps(help_spec(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote the --help values to {GOLDEN_HELP}", file=sys.stderr)
