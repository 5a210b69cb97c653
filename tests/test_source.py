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


def _package_imports(tree):
    """The package modules that ``tree`` imports, without the package prefix."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "schubcells"
                                                 or node.module.startswith("schubcells.")):
            if node.module in (None, "schubcells"):
                found += [a.name for a in node.names]
            else:
                found.append(node.module.removeprefix("schubcells."))
        elif isinstance(node, ast.Import):
            found += [a.name.removeprefix("schubcells.") for a in node.names
                      if a.name.startswith("schubcells.")]
    return found


def test_patterns_imports_nothing_from_flags():
    """Realizability lives in ``flags``, which certifies it; ``patterns``
    is the pattern format below it."""
    tree = ast.parse((SRC / "patterns.py").read_text())
    assert "flags" not in _package_imports(tree)


def test_bounds_takes_only_type_a_group_from_flags():
    """The feedback-free minimum is listed from its proof, so ``bounds``
    reads no realizable pattern: ``from .flags import type_a_group`` is its
    one use of ``flags``."""
    imports = [node for node in ast.walk(ast.parse((SRC / "bounds.py").read_text()))
               if isinstance(node, ast.ImportFrom)]
    assert [[a.name for a in node.names] for node in imports
            if node.module in ("flags", "schubcells.flags")] == [["type_a_group"]]
    assert "flags" not in {a.name for node in imports for a in node.names}


def test_only_bruhat_leq_imports_a_package_module_in_its_body():
    """Module-level imports only: a function-local import hides a cycle."""
    found = {
        (path.name, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_package_imports(stmt) for stmt in node.body)
    }
    assert found == {("weyl.py", "bruhat_leq")}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _users(node, names, prefix=""):
    """Qualified names of the functions and methods under ``node`` that call
    or name one of ``names``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _users(child, names, prefix + child.name + ".")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            isinstance(n, ast.Call) and _called_name(n) in names
            or isinstance(n, ast.Name) and n.id in names
            for n in ast.walk(child)
        ):
            yield prefix + child.name


def _package_users(names):
    return {
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in _users(ast.parse(path.read_text()), names)
    }


def test_the_functions_that_enumerate_w_are_pinned():
    """The package never lists W.  The drawn decision tree has |W| leaves
    and is refused over ``TREE_LEAF_CAP``, and listing S_n by
    ``perms.all_perms`` is capped by its caller (n <= 7 for the defining-set
    search), so every other answer is read off orbit tables; a new caller
    shows here."""
    assert _package_users(("TREE_LEAF_CAP", "all_perms")) == {
        ("recognition.py", "_algorithmic_tree"),
        ("bounds.py", "_constraint_families"),
    }


def test_orbit_bfs_walks_only_weight_orbits_and_roots():
    """Each caller of ``orbit_bfs`` walks an orbit W_J omega_k, a suborbit
    of a table, or the positive roots, never the regular orbit W rho."""
    assert _package_users(("orbit_bfs",)) == {
        ("plucker.py", "OrbitTable.__init__"),
        ("plucker.py", "OrbitTable.suborbit"),
        ("weyl.py", "WeylGroup.positive_roots"),
        ("weyl.py", "WeylGroup.parabolic_order"),
    }


def test_weyl_group_has_no_listing():
    """Only the tests list W (``bruhat_oracle.all_elements``)."""
    from schubcells.weyl import WeylGroup, weyl_group

    assert not hasattr(WeylGroup, "elements")
    assert not hasattr(weyl_group("A2"), "elements")
