"""Reach audit: the functions of ``src/schubcells`` that no real caller runs.

Run from anywhere:

    python tests/reach_audit.py

The real callers are the CLI and the benchmark.  A ``sys.setprofile`` hook,
limited to frames of ``src/schubcells``, is installed before anything
imports the package, so calls made at import time count too.  It then runs
every command of ``MATRIX`` in ``tests/test_cli_matrix.py`` in process
through ``cli.main`` (the flag files it names are written to a temporary
directory), and the warm-up ops of the sweep and flags workloads of
``bench/worker.py``, each op with its output check.  The report lists each
named function or method defined in ``src/schubcells`` (no lambda or
comprehension) that no profiled call entered.

A function on the list is reached only by the tests, or by nothing: a
candidate to look at, not to delete, since much of it is library API that
the tests check.  It is a report and gates nothing: the exit status is 0.
"""

import contextlib
import inspect
import io
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "schubcells"
PREFIX = f"{SRC}{os.sep}"

reached: set[tuple[str, int]] = set()


def _profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(PREFIX):
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


def functions(code: types.CodeType):
    """The named function code objects nested in ``code``, at any depth."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield const
            yield from functions(const)


def run_callers() -> None:
    import test_cli_matrix
    import worker

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for command, _sha256 in test_cli_matrix.MATRIX:
            test_cli_matrix.main(test_cli_matrix._argv(command, Path(tmp)))
        for run_op, check, warmups, _groups in worker.WORKLOADS.values():
            for _key, op in warmups():
                check(run_op(worker.NullTracer(), op))


def report() -> list[str]:
    out = []
    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        for fn in sorted(functions(code), key=lambda c: c.co_firstlineno):
            if (str(path), fn.co_firstlineno) not in reached:
                name = getattr(fn, "co_qualname", fn.co_name)
                out.append(f"{path.relative_to(ROOT)}:{fn.co_firstlineno}: {name}")
    return out


def main() -> int:
    sys.path[:0] = [str(SRC.parent), str(ROOT / "tests"), str(ROOT / "bench")]
    sys.setprofile(_profile)
    try:
        run_callers()
    finally:
        sys.setprofile(None)
    lines = report()
    print(f"{len(lines)} functions of src/schubcells that neither a CLI matrix command "
          "nor a bench warm-up op calls:")
    for line in lines:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
