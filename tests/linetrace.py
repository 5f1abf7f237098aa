"""Which lines of censtab's source a run executes, by a `sys.settrace` line trace.

    PYTHONPATH=src python tests/linetrace.py [pytest arguments]

runs pytest in this process under the trace, then lists, file by file, the
lines of `src/censtab` that hold code and never ran.  Tests started in a
subprocess (the console-script ones) run untraced, so the lines only they
reach are listed too.  A test can call `executed` to check that a given
line runs.  The trace makes a run several times slower.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "censtab"


def executed(fn, *args, root=SRC):
    """The set of (path, line) under root that fn(*args) executes, path
    resolved; a function's first line counts when it is called."""
    root, seen, inside = Path(root).resolve(), set(), {}

    def local(frame, event, arg):
        if event == "line":
            seen.add((inside[frame.f_code.co_filename], frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = Path(name).resolve()
            inside[name] = path if path.is_relative_to(root) else None
        if inside[name] is None:
            return None
        seen.add((inside[name], frame.f_lineno))
        return local

    old = sys.gettrace()
    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(old)
    return seen


def code_lines(path):
    """The lines of the source file path that its code objects name."""
    lines, todo = set(), [compile(Path(path).read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def unexecuted(seen, root=SRC):
    """{path: sorted lines} of the code lines under root outside seen."""
    out = {}
    for path in sorted(Path(root).resolve().rglob("*.py")):
        missed = code_lines(path) - {line for p, line in seen if p == path}
        if missed:
            out[path] = sorted(missed)
    return out


def _ranges(lines):
    """"3, 7-9" for [3, 7, 8, 9]."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def main(argv):
    import pytest

    codes = []
    seen = executed(lambda: codes.append(pytest.main(argv)))
    for path, lines in unexecuted(seen).items():
        print(f"{path.relative_to(SRC.parent)}: {_ranges(lines)}")
    return codes[0]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
