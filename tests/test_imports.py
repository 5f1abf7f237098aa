"""No module imports a name it never uses, and no test module another.

Each module of the package (its `__init__.py` re-exports, so it is left out)
and each test module is parsed with `ast`.  A name an import binds counts as
used when it is read anywhere in the module, as a plain name or as the root
of an attribute chain.  Deleting library code must take its imports along.
Test modules share helpers through `tests/oracle.py` (and the line tracer
`tests/linetrace.py`), never through one another, so that a helper has one
copy and the modules no import cycle.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "censtab").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def _unused_imports(source):
    """(line, name) for each name an import binds and the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_check_finds_an_unused_import():
    source = "import os, sys\nfrom a.b import c as d, e\nimport x.y\nprint(sys.path, e, x.y.z)\n"
    assert _unused_imports(source) == [(1, "os"), (2, "d")]


def test_no_module_imports_a_name_it_never_uses():
    assert len(MODULES) > 20
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for line, name in _unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def _imported_modules(source):
    """(line, top-level module name) for each import, function-local ones too."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module.split(".")[0]))
    return out


def test_no_test_module_imports_another():
    source = "import os\ndef f():\n    from test_x import y\n    import test_z.w\n"
    assert _imported_modules(source) == [(1, "os"), (3, "test_x"), (4, "test_z")]
    tests = sorted((ROOT / "tests").glob("test_*.py"))
    names = {path.stem for path in tests}
    shared = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in tests
        for line, name in _imported_modules(path.read_text(encoding="utf-8"))
        if name in names
    ]
    assert len(names) > 20 and shared == []
