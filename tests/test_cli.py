import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

from censtab.cli import main
from censtab.errors import ConsistencyError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_timings(text):
    doc = json.loads(text)
    doc.pop("timings", None)
    return json.dumps(doc, indent=2, sort_keys=True)


def test_construct_stable_element_flow(tmp_path, capsys):
    t3 = str(tmp_path / "t3.json")
    code, out, _ = run(capsys, "construct", "upper_triangular", "--field", "Q", "--n", "3", "-o", t3)
    assert code == 0

    code, out, _ = run(capsys, "stable", t3)
    assert code == 0  # NotStable is still a successful query
    assert "NotStable" in out
    assert "e11" in out  # witness element

    code, out, _ = run(capsys, "element", t3, "--coords", "0,1,0,0,0,0")
    assert code == 0
    assert "Stable" in out.splitlines()[0]

    code, out, _ = run(capsys, "info", t3)
    assert code == 0
    assert "center: dim 1" in out
    assert "radical: dim 3" in out

    code, out, _ = run(capsys, "validate", t3)
    assert code == 0
    assert "ok" in out


def test_json_reports_are_deterministic(tmp_path, capsys):
    t3 = str(tmp_path / "t3.json")
    run(capsys, "construct", "upper_triangular", "--n", "3", "-o", t3)
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "stable", t3, "--json", "--seed", "5")
        assert code == 0
        outs.append(strip_timings(out))
    assert outs[0] == outs[1]
    for _ in range(2):
        code, out, _ = run(
            capsys, "fuzz", t3, "--ideals", "3", "--elements", "3", "--seed", "5", "--json"
        )
        assert code == 0
        outs.append(strip_timings(out))
    assert outs[2] == outs[3]


def test_stable_report_verifies_from_files(tmp_path, capsys):
    from censtab.fileformat import load_algebra, verify_report_json

    path = str(tmp_path / "ema.json")
    run(capsys, "construct", "ema", "-o", path)
    code, out, _ = run(capsys, "stable", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "NotStable"
    assert verify_report_json(load_algebra(path), doc)


def test_constructions_round_trip(tmp_path, capsys):
    p3 = str(tmp_path / "p3.json")
    run(capsys, "construct", "truncated_poly", "--k", "3", "-o", p3)

    m = str(tmp_path / "m.json")
    code, _, _ = run(capsys, "matrix", p3, "--n", "2", "-o", m)
    assert code == 0
    code, out, _ = run(capsys, "stable", m)
    assert "Stable" in out

    t = str(tmp_path / "t.json")
    assert run(capsys, "tensor", p3, p3, "-o", t)[0] == 0
    pr = str(tmp_path / "pr.json")
    assert run(capsys, "product", p3, p3, "-o", pr)[0] == 0
    u = str(tmp_path / "u.json")
    assert run(capsys, "unitize", p3, "-o", u)[0] == 0
    o = str(tmp_path / "o.json")
    assert run(capsys, "opposite", p3, "-o", o)[0] == 0
    q = str(tmp_path / "q.json")
    assert run(capsys, "quotient", p3, "--gens", "0,1,0", "-o", q)[0] == 0

    # every written file loads and validates
    for path in (m, t, pr, u, o, q):
        assert run(capsys, "validate", path)[0] == 0


def test_construct_json_matches_file_bytes(tmp_path, capsys):
    path = tmp_path / "s4.json"
    code, out, _ = run(
        capsys, "construct", "scalar_plus_strict_upper", "--n", "4", "-o", str(path), "--json"
    )
    assert code == 0
    assert out == path.read_text()


def test_decompose_command(tmp_path, capsys):
    p2 = str(tmp_path / "p2.json")
    run(capsys, "construct", "truncated_poly", "--k", "2", "-o", p2)
    coords = ",".join(["1", "0", "0", "0", "0", "1", "0", "0"])
    code, out, _ = run(capsys, "decompose", p2, "--n", "2", "--coords", coords, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]["stable_part_in_own_commutator_ideal"] is True
    assert doc["diagonal_verdict"] == "Stable"


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": "Q", "dim": 1}')
    assert run(capsys, "validate", str(bad))[0] == 2

    nonassoc = tmp_path / "na.json"
    nonassoc.write_text(
        json.dumps(
            {"field": "Q", "dim": 2, "table": [[0, 0, [[1, "1"]]], [0, 1, [[1, "1"]]]]}
        )
    )
    assert run(capsys, "validate", str(nonassoc))[0] == 2

    gf5 = str(tmp_path / "gf5.json")
    run(capsys, "construct", "matrix_full", "--field", "GF:5", "--n", "2", "-o", gf5)
    assert run(capsys, "stable", gf5)[0] == 3
    assert run(capsys, "info", gf5)[0] == 3

    assert run(capsys, "construct", "matrix_full", "--n", "0", "-o", gf5)[0] == 2
    assert main(["no-such-command"]) == 1
    assert main([]) == 1

    # missing file
    assert run(capsys, "validate", str(tmp_path / "absent.json"))[0] == 2

    # bad coordinate count
    t3 = str(tmp_path / "t3.json")
    run(capsys, "construct", "upper_triangular", "--n", "3", "-o", t3)
    assert run(capsys, "element", t3, "--coords", "1,2")[0] == 2


def test_coords_with_leading_minus(tmp_path, capsys):
    t3 = str(tmp_path / "t3.json")
    run(capsys, "construct", "upper_triangular", "--n", "3", "-o", t3)
    # scalar + strictly upper with a negative scalar part: stable
    code, out, _ = run(capsys, "element", t3, "--coords", "-1/2,3,0,-1/2,2/3,-1/2")
    assert code == 0
    assert "verdict: Stable" in out


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    t3 = str(tmp_path / "t3.json")
    run(capsys, "construct", "upper_triangular", "--n", "3", "-o", t3)
    monkeypatch.setenv("CENSTAB_SEED", "77")
    code, out, _ = run(capsys, "stable", t3, "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 77


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "censtab.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "censtab" in proc.stdout


def test_decompose_of_non_unital_algebra_is_invalid_input(tmp_path, capsys):
    n3 = str(tmp_path / "n3.json")
    run(capsys, "construct", "strict_upper", "--n", "3", "-o", n3)
    code, out, err = run(capsys, "decompose", n3, "--n", "2", "--coords", ",".join(["0"] * 12))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "unital" in err


def test_malformed_field_is_rejected(tmp_path, capsys):
    path = str(tmp_path / "m.json")
    for spec in ("GF(7", "GF:7)", "GF(7))", "GF7", "GF:", "GF(x)"):
        code, _, err = run(capsys, "construct", "matrix_full", "--n", "2", "--field", spec, "-o", path)
        assert code == 2, spec
        assert len(err.splitlines()) == 1
    for spec in ("GF(7)", "GF:7", "gf(7)", "Q"):
        assert run(capsys, "construct", "matrix_full", "--n", "1", "--field", spec, "-o", path)[0] == 0


def test_bool_dimension_in_file_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"field": "Q", "dim": True, "table": [[0, 0, [[0, "1"]]]]}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert len(err.splitlines()) == 1


def test_non_integer_seed_env_is_a_usage_error(tmp_path, capsys, monkeypatch):
    t3 = str(tmp_path / "t3.json")
    run(capsys, "construct", "upper_triangular", "--n", "3", "-o", t3)
    monkeypatch.setenv("CENSTAB_SEED", "abc")
    for argv in (("stable", t3), ("fuzz", t3, "--ideals", "1", "--elements", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["censtab: error: CENSTAB_SEED must be an integer, got 'abc'"]
    # an explicit --seed does not read the variable, and validate has no seed
    assert run(capsys, "stable", t3, "--seed", "2")[0] == 0
    assert run(capsys, "validate", t3)[0] == 0


def test_oversized_dimension_is_rejected_at_once(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"field": "Q", "dim": 257, "table": []}))
    start = time.perf_counter()
    code, out, err = run(capsys, "stable", str(path))
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "257" in err
    path.write_text(json.dumps({"field": "Q", "dim": 256, "table": []}))
    assert run(capsys, "validate", str(path))[0] == 0


def test_consistency_error_exits_4_with_a_reproduction_line(tmp_path, capsys, monkeypatch):
    t3 = str(tmp_path / "t3.json")
    run(capsys, "construct", "upper_triangular", "--n", "3", "-o", t3)
    digest = hashlib.sha256(Path(t3).read_bytes()).hexdigest()

    def broken(a):
        raise ConsistencyError("planted fault")

    monkeypatch.setattr("censtab.cli.radical", broken)
    code, out, err = run(capsys, "info", t3, "--json")
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert "planted fault" in err
    assert f"command: censtab info {t3} --json" in err
    assert "seed: None" in err
    assert f"sha256 {t3}: {digest}" in err

    monkeypatch.setattr("censtab.stability.radical", broken)
    code, out, err = run(capsys, "stable", t3, "--seed", "7")
    assert code == 4
    assert len(err.splitlines()) == 1
    assert "seed: 7" in err and digest in err
