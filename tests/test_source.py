"""Invariants of the package source itself."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import schubcells

SRC = Path(__file__).resolve().parents[1] / "src" / "schubcells"


def test_no_assert_in_the_package():
    """Checks in the package raise typed errors: ``assert`` vanishes under
    ``python -O``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_all_lists_exactly_the_public_names():
    """``__all__`` is sorted, has no duplicates, and names every public
    non-module attribute of the package, so exports cannot drift."""
    exported = schubcells.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    public = {
        name for name, value in vars(schubcells).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public


def test_no_module_imports_dataclasses():
    """Records are plain slotted classes: generating their methods at import
    time costs every cold CLI process."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        or isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
    ]
    assert found == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S: no site-packages .pth file may load them first
    code = "import sys, schubcells.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout == "[]\n"
