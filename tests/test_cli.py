import hashlib
import importlib
import json
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from censtab.cli import main
from censtab.errors import ConsistencyError
from censtab.fileformat import load_algebra
from censtab.linalg import span
from censtab.radical import radical
from censtab.stability import StabilityReport, StableElementWitness, decompose_tensor_element
from oracle import dense_basis, monomial, presented_document, run, strip_timings


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
        code, out, _ = run(capsys, "stable", t3, "--json")
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


@pytest.mark.parametrize(
    "name, n, p, info_code, stable_code",
    [
        ("strict_upper", 3, 5, 0, 0),  # p > dim = 3, though A# has dimension 4
        ("strict_upper", 3, 7, 0, 0),
        ("upper_triangular", 2, 3, 3, 3),
        ("upper_triangular", 2, 5, 0, 0),
    ],
)
def test_characteristic_exit_codes(tmp_path, capsys, name, n, p, info_code, stable_code):
    path = str(tmp_path / "a.json")
    assert run(capsys, "construct", name, "--field", f"GF:{p}", "--n", str(n), "-o", path)[0] == 0
    assert run(capsys, "info", path)[0] == info_code
    assert run(capsys, "stable", path)[0] == stable_code
    if stable_code == 0:
        from censtab.fileformat import load_algebra, verify_report_json

        code, out, _ = run(capsys, "stable", path, "--json")
        assert code == 0 and verify_report_json(load_algebra(path), json.loads(out))


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

    # matrix_full n=2 has dimension 4: refused over GF(3), decided over GF(5)
    gf3 = str(tmp_path / "gf3.json")
    run(capsys, "construct", "matrix_full", "--field", "GF:3", "--n", "2", "-o", gf3)
    assert run(capsys, "stable", gf3)[0] == 3
    assert run(capsys, "info", gf3)[0] == 3
    gf5 = str(tmp_path / "gf5.json")
    run(capsys, "construct", "matrix_full", "--field", "GF:5", "--n", "2", "-o", gf5)
    assert run(capsys, "info", gf5)[0] == 0
    code, out, _ = run(capsys, "stable", gf5, "--json")
    assert code == 0 and json.loads(out)["verdict"] == "Stable"
    from censtab.fileformat import load_algebra, verify_report_json

    assert verify_report_json(load_algebra(gf5), json.loads(out))

    assert run(capsys, "construct", "matrix_full", "--n", "0", "-o", gf5)[0] == 2
    assert main(["no-such-command"]) == 1
    assert main([]) == 1

    # missing file
    assert run(capsys, "validate", str(tmp_path / "absent.json"))[0] == 2

    # bad coordinate count
    t3 = str(tmp_path / "t3.json")
    run(capsys, "construct", "upper_triangular", "--n", "3", "-o", t3)
    assert run(capsys, "element", t3, "--coords", "1,2")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["no-such-command"],
        ["stable"],
        ["stable", "--bogus", "a.json"],
        ["construct", "truncated_poly", "--k", "\u0663"],
        ["construct", "no_such_name"],
    ],
    ids=["unknown-command", "missing-file", "unknown-option", "bad-integer", "bad-name"],
)
def test_every_argparse_refusal_prints_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and ": error: " in err


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
    code, out, _ = run(capsys, "fuzz", t3, "--ideals", "1", "--elements", "1", "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 77
    monkeypatch.setenv("CENSTAB_SEED", "-7")
    code, out, _ = run(capsys, "fuzz", t3, "--ideals", "1", "--elements", "1", "--json")
    assert code == 0 and json.loads(out)["seed"] == -7
    # stable samples nothing, so its report has no seed
    code, out, _ = run(capsys, "stable", t3, "--json")
    assert code == 0 and "seed" not in json.loads(out)


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


def test_blank_coords_are_the_only_vector_of_a_zero_dimensional_algebra(tmp_path, capsys):
    from censtab.fileformat import load_algebra, verify_report_json

    z = str(tmp_path / "z.json")
    Path(z).write_text('{"field": "Q", "dim": 0, "table": []}')
    code, out, err = run(capsys, "element", z, "--coords", "")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "verdict: Stable"
    code, out, _ = run(capsys, "element", z, "--coords", "", "--json")
    assert code == 0 and json.loads(out)["verdict"] == "Stable"
    assert verify_report_json(load_algebra(z), json.loads(out))
    code, out, err = run(capsys, "decompose", z, "--n", "2", "--coords", "")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: tensor decomposition needs a unital left factor"]


def test_decompose_checks_the_matrix_size_before_the_coordinates(tmp_path, capsys):
    p2 = str(tmp_path / "p2.json")
    run(capsys, "construct", "truncated_poly", "--k", "2", "-o", p2)
    for n, coords in (("0", ""), ("-1", "1")):
        code, out, err = run(capsys, "decompose", p2, "--n", n, "--coords", coords)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: matrix size must be >= 1"]


def test_malformed_field_is_rejected(tmp_path, capsys):
    path = str(tmp_path / "m.json")
    for spec in ("GF(7", "GF:7)", "GF(7))", "GF7", "GF:", "GF(x)", "GF:١٠١", "GF(١٠١)", "GF:１０１"):
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
    code, out, err = run(capsys, "fuzz", t3, "--ideals", "1", "--elements", "1")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["censtab: error: CENSTAB_SEED must be an integer, got 'abc'"]
    # an explicit --seed does not read the variable, and stable and validate
    # have no seed
    assert run(capsys, "fuzz", t3, "--ideals", "1", "--elements", "1", "--seed", "2")[0] == 0
    assert run(capsys, "stable", t3)[0] == 0
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
    code, out, err = run(capsys, "fuzz", t3, "--seed", "7")
    assert code == 4
    assert len(err.splitlines()) == 1
    assert "seed: 7" in err and digest in err


def test_a_stable_lift_makes_stable_exit_4(tmp_path, capsys, monkeypatch):
    t3 = str(tmp_path / "t3.json")
    run(capsys, "construct", "upper_triangular", "--n", "3", "-o", t3)
    monkeypatch.setattr(
        "censtab.stability.element_centrally_stable",
        lambda x: StabilityReport("Stable", "ElementCriterion", None),
    )
    code, out, err = run(capsys, "stable", t3, "--json")
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: no lift from Z(A/J) or Z(A/rad)")
    assert f"command: censtab stable {t3} --json" in err


def test_an_inexpressible_stable_element_makes_element_exit_4(tmp_path, capsys, monkeypatch):
    # e_12 of the upper triangular 3 x 3 matrices is stable and not central,
    # so its decision writes it in Z + Id([x, A]); a failure to do so is an
    # engine fault, raised as such also under python -O
    t3 = str(tmp_path / "t3.json")
    run(capsys, "construct", "upper_triangular", "--n", "3", "-o", t3)
    monkeypatch.setattr("censtab.stability.express_in_span", lambda *args: None)
    code, out, err = run(capsys, "element", t3, "--coords", "0,1,0,0,0,0")
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: ") and "Traceback" not in err
    assert f"command: censtab element {t3} --coords 0,1,0,0,0,0" in err


# -- each ConsistencyError site, reached by a fault planted in the step it guards


def _internal_error(capsys, *argv):
    """Run argv, which must exit 4 with one line holding the reproduction."""
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("internal error: ")
    assert f"command: {shlex.join(['censtab', *argv])}; seed: None; sha256 {argv[1]}: " in err
    return err


def test_a_radical_short_of_the_trace_form_kernel_exits_4(tmp_path, capsys, monkeypatch):
    # the kernel of upper_triangular n=3 less its last row, e23, is the ideal
    # (e12, e13): nilpotent, but T_3/(e12, e13) is not semisimple
    t3 = str(tmp_path / "t3.json")
    run(capsys, "construct", "upper_triangular", "--n", "3", "-o", t3)
    module = importlib.import_module("censtab.radical")
    real = module.kernel_of_rows
    monkeypatch.setattr(module, "kernel_of_rows", lambda f, rows, n: span(f, real(f, rows, n).rows[:-1], n))
    with pytest.raises(ConsistencyError, match="quotient by radical candidate is not semisimple"):
        radical(load_algebra(t3))
    assert "is not semisimple" in _internal_error(capsys, "stable", t3)


def test_a_generating_set_failure_with_no_failing_triple_exits_4(tmp_path, capsys, monkeypatch):
    table = [[0, 0, [[1, "1"]]], [0, 1, [[1, "1"]]]]  # (e0 e0) e0 = 0, e0 (e0 e0) = e1
    path = tmp_path / "na.json"
    path.write_text(json.dumps({"field": "Q", "dim": 2, "table": table}))
    assert run(capsys, "validate", str(path))[0] == 2
    monkeypatch.setattr("censtab.algebras._first_failing_triple", lambda a: None)
    with pytest.raises(ConsistencyError, match="no basis triple does"):
        load_algebra(path)
    assert "no basis triple does" in _internal_error(capsys, "validate", str(path))


def test_a_tensor_split_outside_its_commutator_ideal_exits_4(tmp_path, capsys, monkeypatch):
    p2 = str(tmp_path / "p2.json")
    run(capsys, "construct", "truncated_poly", "--k", "2", "-o", p2)
    coords = "1,0,0,0,0,1,0,0"
    monkeypatch.setattr("censtab.stability._in_tensor_commutator_ideal", lambda *args: False)
    with pytest.raises(ConsistencyError, match="tensor decomposition postcondition failed"):
        decompose_tensor_element(load_algebra(p2), 2, [int(c) for c in coords.split(",")])
    err = _internal_error(capsys, "decompose", p2, "--n", "2", "--coords", coords)
    assert "postcondition failed" in err


def test_a_stable_diagonal_part_with_a_non_central_part_exits_4(tmp_path, capsys, monkeypatch):
    # t = e11 (x) E22 over M_2: T = M_4 is simple, so both checks hold for the
    # non-central z = e11 that the planted diagonal decision hands back
    m2 = str(tmp_path / "m2.json")
    run(capsys, "construct", "matrix_full", "--n", "2", "-o", m2)
    coords = ",".join("1" if i == 3 else "0" for i in range(16))

    def non_central(x):
        zero = tuple(0 * c for c in x.coords)
        return StabilityReport("Stable", "ElementCriterion", StableElementWitness(x.coords, x.coords, zero))

    monkeypatch.setattr("censtab.stability.element_centrally_stable", non_central)
    with pytest.raises(ConsistencyError, match="stable diagonal part but unstable tensor element"):
        decompose_tensor_element(load_algebra(m2), 2, [int(c) for c in coords.split(",")])
    err = _internal_error(capsys, "decompose", m2, "--n", "2", "--coords", coords)
    assert "stable diagonal part but unstable tensor element" in err


def test_a_generator_escape_that_no_basis_vector_shows_exits_4(tmp_path, capsys, monkeypatch):
    # the generating-set pass of ideal_witness claims an escape from the
    # ideal (e12) of T_3; the scan over every basis vector finds none
    t3 = str(tmp_path / "t3.json")
    run(capsys, "construct", "upper_triangular", "--n", "3", "-o", t3)
    module = importlib.import_module("censtab.algebras")
    real = module._escape

    def planted(a, red, v, indices):
        return (indices[0], "left") if not isinstance(indices, range) else real(a, red, v, indices)

    monkeypatch.setattr(module, "_escape", planted)
    a = load_algebra(t3)
    ideal = module.ideal_generated(a, [a.basis_element(1)])
    with pytest.raises(ConsistencyError, match="no basis vector does"):
        module.ideal_witness(a, ideal)
    err = _internal_error(capsys, "quotient", t3, "--gens", "0,1,0,0,0,0", "--json")
    assert "no basis vector does" in err


def test_a_composite_characteristic_without_small_factors_is_refused(tmp_path, capsys):
    # 1000036000099 = 1000003 * 1000033 passes trial division by every
    # Miller-Rabin witness, so the witnesses reject it
    path = tmp_path / "m.json"
    code, out, err = run(capsys, "construct", "matrix_full", "--field", "GF:1000036000099", "--n", "2",
                         "-o", str(path))
    assert code == 2 and out == "" and not path.exists()
    assert len(err.splitlines()) == 1 and "1000036000099" in err


def test_a_derived_algebra_with_nowhere_to_go_is_refused(tmp_path, capsys):
    t3 = str(tmp_path / "t3.json")
    run(capsys, "construct", "upper_triangular", "--n", "3", "-o", t3)
    code, out, err = run(capsys, "opposite", t3)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: give -o FILE or --json so the result goes somewhere"]


def test_results_too_large_to_load_are_refused_before_building(tmp_path, capsys):
    out = tmp_path / "out.json"
    start = time.perf_counter()
    code, stdout, err = run(capsys, "construct", "matrix_full", "--n", "17", "-o", str(out))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and stdout == ""
    assert len(err.splitlines()) == 1 and "289" in err
    assert not out.exists()

    m2 = str(tmp_path / "m2.json")
    run(capsys, "construct", "matrix_full", "--n", "2", "-o", m2)
    code, stdout, err = run(capsys, "matrix", m2, "--n", "9", "-o", str(out))
    assert code == 2 and stdout == ""
    assert len(err.splitlines()) == 1 and "324" in err
    assert not out.exists()
    # dimension 256 is still written, and loads
    assert run(capsys, "matrix", m2, "--n", "8", "-o", str(out))[0] == 0
    assert run(capsys, "validate", str(out))[0] == 0


def test_derived_commands_bound_the_exact_output_dimension(tmp_path, capsys, monkeypatch):
    # each command is refused when its output is one above the limit, and
    # runs when the output sits at the limit, so the sizes are exact
    t2, p2 = str(tmp_path / "t2.json"), str(tmp_path / "p2.json")
    run(capsys, "construct", "upper_triangular", "--n", "2", "-o", t2)
    run(capsys, "construct", "truncated_poly", "--k", "2", "-o", p2)
    cases = [
        (["construct", "upper_triangular", "--n", "4"], 10),
        (["construct", "matrix_over_commutative", "--n", "2", "--k", "3"], 12),
        (["construct", "r11_radical", "--n", "2", "--k", "4"], 12),
        (["tensor", t2, p2], 6),
        (["product", t2, p2], 5),
        (["unitize", t2], 4),
        (["matrix", p2, "--n", "3"], 18),
        (["opposite", t2], 3),
    ]
    for argv, dim in cases:
        out = tmp_path / "out.json"
        monkeypatch.setattr("censtab.cli.MAX_DIM", dim - 1)
        code, _, err = run(capsys, *argv, "-o", str(out))
        assert code == 2 and len(err.splitlines()) == 1, argv
        assert not out.exists(), argv
        monkeypatch.setattr("censtab.cli.MAX_DIM", dim)
        assert run(capsys, *argv, "-o", str(out))[0] == 0, argv
        out.unlink()
    # the write itself is bounded too, whatever the size said
    monkeypatch.setattr("censtab.cli.MAX_DIM", 3)
    monkeypatch.setattr("censtab.cli.catalog_dimension", lambda name, **params: 0)
    code, _, err = run(capsys, "construct", "matrix_full", "--n", "2", "-o", str(out))
    assert code == 2 and len(err.splitlines()) == 1 and "dimension 4" in err
    assert not out.exists()


def test_decompose_refuses_a_tensor_algebra_above_the_limit(tmp_path, capsys):
    p3 = str(tmp_path / "p3.json")
    run(capsys, "construct", "truncated_poly", "--k", "3", "-o", p3)
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", p3, "--n", "10", "--coords", ",".join(["1"] * 300))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "300" in err
    # refused before the coordinates are read, whatever their number
    code, _, err = run(capsys, "decompose", p3, "--n", "100", "--coords", "1")
    assert code == 2 and err.splitlines() == [
        "error: the result would have dimension 30000, above the file limit of 256"
    ]


def test_negative_counts_are_usage_errors(tmp_path, capsys):
    t3 = str(tmp_path / "t3.json")
    run(capsys, "construct", "upper_triangular", "--n", "3", "-o", t3)
    cases = [
        (("fuzz", t3, "--ideals", "-5"), "--ideals must be non-negative, got -5"),
        (("fuzz", t3, "--elements", "-2"), "--elements must be non-negative, got -2"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.splitlines() == [f"censtab: error: {message}"]
    # zero is still a count
    assert run(capsys, "fuzz", t3, "--ideals", "0", "--elements", "0")[0] == 0
    # stable has no count, and no seed, to set
    for option in ("--witness-budget", "--seed"):
        code, out, err = run(capsys, "stable", t3, option, "3")
        assert code == 1 and out == ""
        assert f"unrecognized arguments: {option} 3" in err


def test_overlong_scalar_literal_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "long.json"
    for scalar in ('"' + "1" * 5000 + '"', "1" * 5000):  # a string, and a bare JSON number
        path.write_text('{"field": "Q", "dim": 1, "table": [[0, 0, [[0, %s]]]]}' % scalar)
        for argv in (("validate", str(path)), ("stable", str(path))):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert len(err.splitlines()) == 1 and "Traceback" not in err
    t3 = str(tmp_path / "t3.json")
    run(capsys, "construct", "upper_triangular", "--n", "3", "-o", t3)
    code, _, err = run(capsys, "element", t3, "--coords", "1" * 5000 + ",0,0,0,0,0")
    assert code == 2 and len(err.splitlines()) == 1


def test_non_ascii_digit_literal_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "digit.json"
    for field in ('"Q"', '{"GF": 7}'):
        for one in ("\u0661", "\uff11"):  # Arabic-Indic and fullwidth one
            path.write_text('{"field": %s, "dim": 1, "table": [[0, 0, [[0, "%s"]]]]}' % (field, one),
                            encoding="utf-8")
            code, out, err = run(capsys, "validate", str(path))
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1 and "Traceback" not in err
    t3 = str(tmp_path / "t3.json")
    run(capsys, "construct", "upper_triangular", "--n", "3", "-o", t3)
    code, out, err = run(capsys, "element", t3, "--coords", "\u0661,0,0,0,0,0")
    assert code == 2 and out == "" and len(err.splitlines()) == 1


def test_deeply_nested_json_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "nested too deeply" in err


def test_overlong_computed_scalar_is_invalid_input(tmp_path, capsys):
    # exg in a dense basis, then presented on f_i = d_i e_i, d_i = a/b with
    # 80-digit a, b: every table literal is under the limit, but the
    # certificate's are not
    from fractions import Fraction

    from censtab.catalog import build
    from censtab.scalars import MAX_LITERAL_DIGITS

    a, _ = dense_basis(build("exg").algebra, random.Random(5))
    rng = random.Random(5)
    d = [Fraction(rng.randint(10**79, 10**80), rng.randint(10**79, 10**80)) for _ in range(a.dim)]
    doc = presented_document(a, monomial(d, range(a.dim)))
    assert max(len(s) for _, _, pairs in doc["table"] for _, s in pairs) < MAX_LITERAL_DIGITS
    path = tmp_path / "exg.json"
    path.write_text(json.dumps(doc))
    coords = ",".join(["1"] * a.dim)
    for extra in (("--json",), ()):
        code, out, err = run(capsys, "element", str(path), "--coords", coords, *extra)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: a computed scalar exceeds the limit of {MAX_LITERAL_DIGITS} digits per integer"
        ]


# Every number on the command line is ASCII: integer options and CENSTAB_SEED
# are [-]digits, p in GF:p is digits, and --poly coefficients are scalars.
_P2 = ",".join(["1", "0", "0", "0", "0", "1", "0", "0"])
# each option, with an ASCII value it accepts
_INT_OPTIONS = [
    (("construct", "truncated_poly", "--k", "{}"), "3"),
    (("construct", "matrix_full", "--n", "{}"), "2"),
    (("matrix", "{file}", "--n", "{}"), "2"),
    (("fuzz", "{file}", "--ideals", "{}"), "2"),
    (("fuzz", "{file}", "--elements", "{}"), "0"),
    (("fuzz", "{file}", "--seed", "{}"), "-3"),
    (("decompose", "{file}", "--coords", _P2, "--n", "{}"), "2"),
    (("decompose", "{file}", "--n", "2", "--coords", _P2, "--pivot", "{}"), "1"),
]
_IDS = [f"{t[0]}{t[-2]}" for t, _ in _INT_OPTIONS]
_REFUSED = ["arabic-indic", "fullwidth", "plus", "underscore", "space", "decimal", "overlong"]


def _argv(tmp_path, capsys, template, value):
    p2 = str(tmp_path / "p2.json")
    run(capsys, "construct", "truncated_poly", "--k", "2", "-o", p2)
    out = ["-o", str(tmp_path / "out.json")] if template[0] in ("construct", "matrix") else []
    return [a.format(value) if a == "{}" else p2 if a == "{file}" else a for a in template] + out


@pytest.mark.parametrize("template", [t for t, _ in _INT_OPTIONS], ids=_IDS)
@pytest.mark.parametrize("value", ["٣", "１", "+1", "1_0", " 1", "1.0", "9" * 4301], ids=_REFUSED)
def test_a_non_ascii_integer_option_is_a_usage_error(tmp_path, capsys, template, value):
    argv = _argv(tmp_path, capsys, template, value)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.splitlines()[-1].endswith(f"expected an integer of at most 4300 ASCII digits, got {value!r}")


@pytest.mark.parametrize(("template", "value"), _INT_OPTIONS, ids=_IDS)
def test_an_ascii_integer_option_is_accepted(tmp_path, capsys, template, value):
    assert run(capsys, *_argv(tmp_path, capsys, template, value))[0] == 0


@pytest.mark.parametrize("seed", ["٧", "７", "+7", "1_0", " 7", "7.0", "9" * 4301], ids=_REFUSED)
def test_a_non_ascii_seed_env_is_a_usage_error(tmp_path, capsys, monkeypatch, seed):
    t3 = str(tmp_path / "t3.json")
    run(capsys, "construct", "upper_triangular", "--n", "3", "-o", t3)
    monkeypatch.setenv("CENSTAB_SEED", seed)
    code, out, err = run(capsys, "fuzz", t3, "--ideals", "1", "--elements", "1")
    assert code == 1 and out == ""
    assert err.splitlines() == [f"censtab: error: CENSTAB_SEED must be an integer, got {seed!r}"]


@pytest.mark.parametrize("poly", ["1.5,0,1", "1e3,0,1", "1_0,0,1", "-٢,0,1", "-2,0,１", "-2,0,1/0"])
def test_polynomial_coefficients_follow_the_scalar_grammar(tmp_path, capsys, poly):
    path = str(tmp_path / "e.json")
    code, out, err = run(capsys, "construct", "ema", "--poly", poly, "-o", path)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: bad polynomial coefficients: ")


@pytest.mark.parametrize("poly", ["-2,0,1", " -2, 0 ,1", "1/2,0,1", "-3,0,0,1"])
def test_ascii_polynomial_coefficients_are_accepted(tmp_path, capsys, poly):
    assert run(capsys, "construct", "ema", "--poly", poly, "-o", str(tmp_path / "e.json"))[0] == 0


def test_a_bad_literal_is_reported_before_an_earlier_out_of_range_index(tmp_path, capsys):
    path = tmp_path / "two-defects.json"
    path.write_text('{"field": "Q", "dim": 2, "table": [[0, 0, [[5, "1"]]], [0, 1, [[1, "1/0"]]]]}')
    code, out, err = run(capsys, "stable", str(path))
    assert (code, out, err) == (2, "", "error: zero denominator in '1/0'\n")


def test_files_derived_from_a_shuffled_input_are_those_of_its_canonical_form(tmp_path, capsys):
    # entries and pairs out of order, literals unreduced: every file the CLI
    # writes from it has the bytes it writes from the canonical file
    rng = random.Random(5)
    canon = tmp_path / "canon.json"
    run(capsys, "construct", "matrix_over_commutative", "--n", "2", "--k", "3", "-o", str(canon))
    doc = json.loads(canon.read_text())
    rng.shuffle(doc["table"])
    for entry in doc["table"]:
        entry[2] = [[k, f"{2 * int(c)}/2" if "/" not in c else c] for k, c in reversed(entry[2])]
    shuffled = tmp_path / "shuffled.json"
    shuffled.write_text(json.dumps(doc))
    gens = ",".join(["0", "1"] + ["0"] * 10)
    for src in (canon, shuffled):
        for name, args in (("unitize", ()), ("opposite", ()), ("matrix", ("--n", "2")),
                           ("tensor", (str(src),)), ("product", (str(canon),)),
                           ("quotient", ("--gens", gens))):
            out = tmp_path / f"{src.stem}-{name}.json"
            assert run(capsys, name, str(src), *args, "-o", str(out))[0] == 0
    for name in ("unitize", "opposite", "matrix", "tensor", "product", "quotient"):
        assert (tmp_path / f"shuffled-{name}.json").read_bytes() == (tmp_path / f"canon-{name}.json").read_bytes()
