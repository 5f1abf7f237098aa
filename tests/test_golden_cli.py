"""Golden `--json` output of every CLI subcommand on a small roster.

The roster is T_3, strict_upper 3, M_2, truncated_poly 3, ema and
scalar_plus_strict_upper 3, over Q and (all but the Q-only ema) over GF(101).
Each case runs one subcommand with `--json` and compares standard output byte
for byte with the stored text, with the `timings` member cut out of both.
Refactors of the engine must keep these bytes.  To regenerate the stored
outputs after an intended change of output:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import json
import sys
from pathlib import Path

from censtab.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_json.json"

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
                (f"stable/{tag}", ["stable", f, "--json", "--seed", "3"]),
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


def strip_timings(text):
    """text with the top-level "timings" member removed, other bytes untouched."""
    key = '\n  "timings": '
    start = text.find(key)
    if start < 0:
        return text
    _, end = json.JSONDecoder().raw_decode(text, start + len(key))
    if text[end] == ",":
        return text[:start] + text[end + 1:]
    # last member: drop the comma that precedes it instead
    return text[: text.rfind(",", 0, start)] + text[end:]


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


def collect(tmp, run):
    paths, dims, unital = _write_roster(tmp, run)
    outputs = {}
    for case, argv in _cases(paths, dims, unital):
        code, out = run(argv)
        assert code == 0, case
        outputs[case] = strip_timings(out)
    return outputs


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

    with tempfile.TemporaryDirectory() as tmp:
        outputs = collect(Path(tmp), run_captured)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} cases to {GOLDEN}", file=sys.stderr)
