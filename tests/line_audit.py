"""Line audit: the lines of ``src/schubcells`` that the test suite never runs.

Run from anywhere, with pytest's arguments if any (the default is the whole
suite, quietly, from the repository root):

    python tests/line_audit.py [PYTEST_ARGS...]

A ``sys.settrace`` tracer, limited to frames of ``src/schubcells``, is
installed for this thread and for new threads before anything imports the
package, so module-level lines count too.  The suite then runs through
``pytest.main``.  A module's executable lines are the line numbers that
``co_lines`` gives for its code object and every nested one.  The report
lists each executable line that no traced frame reached, with its source.
Lines that run only in a child process, which this tracer does not follow,
are marked: the ``__main__`` guard and the closed-stdout handler of
``cli.py``, which tests reach through a subprocess.

It is a report and gates nothing: the exit status is pytest's.  Tracing
makes the suite about five times slower.
"""

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "schubcells"
PREFIX = f"{SRC}{os.sep}"

hits: dict[str, set[int]] = {}


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(PREFIX):
        return None
    lines = hits.setdefault(filename, set())
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def executable_lines(code: types.CodeType) -> set[int]:
    """The lines of ``code`` and of every code object nested in it."""
    lines = {line for _start, _end, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def subprocess_only_lines(tree: ast.Module) -> set[int]:
    """The lines of the ``if __name__ == "__main__":`` bodies and of the
    ``except BrokenPipeError:`` handlers, which only a child process with a
    real stdout runs."""
    lines = set()
    for node in ast.walk(tree):
        guard = isinstance(node, ast.If) and ast.unparse(node.test) in (
            "__name__ == '__main__'", "'__main__' == __name__")
        pipe = isinstance(node, ast.ExceptHandler) and node.type is not None and (
            ast.unparse(node.type) == "BrokenPipeError")
        if guard or pipe:
            for stmt in node.body:
                lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def report() -> list[str]:
    out = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        missed = executable_lines(compile(source, str(path), "exec")) - hits.get(str(path), set())
        child = subprocess_only_lines(ast.parse(source))
        text = source.splitlines()
        for line in sorted(missed):
            note = "  [runs only in a subprocess]" if line in child else ""
            out.append(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}{note}")
    return out


def main(argv: list[str]) -> int:
    os.chdir(ROOT)  # the suite runs as ``python -m pytest`` from the root does
    sys.path[:0] = [str(SRC.parent), str(ROOT)]
    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        import pytest

        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider",
                                      "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines = report()
    print(f"\n{len(lines)} lines of src/schubcells never run by the tests:")
    for line in lines:
        print(f"  {line}")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
