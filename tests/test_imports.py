"""No module imports a name it never uses, no test module another, and no
private function of the package outlives its last caller.

Each module of the package (its `__init__.py` re-exports, so it is left out)
and each test module is parsed with `ast`.  A name an import binds counts as
used when it is read anywhere in the module, as a plain name or as the root
of an attribute chain.  Deleting library code must take its imports along.
Test modules share helpers through `tests/oracle.py` (and the line tracer
`tests/linetrace.py`), never through one another, so that a helper has one
copy and the modules no import cycle.  A private module-level function or
class of the package that no code of the package names is dead: tests alone
do not keep it, since what a test needs of it belongs in `tests/oracle.py`.
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


def _orphans(sources):
    """(module, line, name) for each private module-level function or class
    of sources, {module: source}, that no code in them names: as a plain
    name, an attribute or an imported name.  A docstring does not count."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [
        (module, node.lineno, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in named
    ]


def test_the_check_finds_a_private_function_nothing_calls():
    sources = {
        "a": "def _used():\n    pass\ndef _orphan():\n    \"_orphan is only named here\"\n"
             "class _Held:\n    pass\ndef _imported():\n    pass\ndef public():\n    pass\n",
        "b": "from a import _imported\nimport a\nx = _used(a._Held)\n",
    }
    assert _orphans(sources) == [("a", 3, "_orphan")]


def test_no_private_function_of_the_package_is_left_without_a_caller():
    package = sorted((ROOT / "src" / "censtab").glob("*.py"))
    assert len(package) > 5
    orphans = _orphans({path.name: path.read_text(encoding="utf-8") for path in package})
    assert orphans == []
