"""Invariants of the package source itself."""

import ast
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
