"""Every censtab name the benchmark imports or wraps must keep resolving.

perfbench/run.py imports the modules in MODULES, and perfbench/tracing.py
re-binds the functions in WRAPPED to time them; a rename or a move in
`src/` would break `--trace 1` or the benchmark's imports.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_modules_and_wrapped_functions_resolve():
    run = _perfbench_run()
    assert run.MODULES and run.WRAPPED
    for name in run.MODULES:
        mod = importlib.import_module(f"censtab.{name}")
        assert inspect.ismodule(mod), name
    for target in run.WRAPPED:
        mod_name, name = target.split(".")
        assert mod_name in run.MODULES, target
        fn = getattr(importlib.import_module(f"censtab.{mod_name}"), name, None)
        assert inspect.isfunction(fn), target
        assert fn.__module__ == f"censtab.{mod_name}", target
