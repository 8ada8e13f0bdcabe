"""Source-level checks over the package modules."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import unionstab

# pyproject.toml declares numpy as the only dependency
ALLOWED_IMPORTS = set(sys.stdlib_module_names) | {"numpy", "unionstab"}


def _modules() -> list[tuple[Path, ast.Module]]:
    root = Path(unionstab.__file__).parent
    paths = sorted(root.glob("*.py"))
    assert paths
    return [(path, ast.parse(path.read_text(), str(path))) for path in paths]


def test_no_assert_statements_in_package():
    """Checks must raise: ``python -O`` strips every assert statement."""
    found = sorted((path.name, node.lineno)
                   for path, tree in _modules()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Assert))
    assert not found, "assert statements in unionstab: " + ", ".join(
        f"{name}:{line}" for name, line in found)


def _imported_names(node: ast.AST) -> list[str]:
    """Top-level package names an import statement loads; none for a
    relative import, which stays inside unionstab."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_imports_are_stdlib_numpy_or_unionstab():
    """Every import, at any depth, loads the standard library, numpy or
    unionstab itself, so numpy stays the package's one dependency."""
    found = sorted((path.name, node.lineno, name)
                   for path, tree in _modules()
                   for node in ast.walk(tree)
                   for name in _imported_names(node)
                   if name.partition(".")[0] not in ALLOWED_IMPORTS)
    assert not found, "imports outside stdlib, numpy and unionstab: " + \
        ", ".join(f"{name}:{line} ({mod})" for name, line, mod in found)


def test_no_np_unique_in_package():
    """Row and value dedupe goes through gf2.distinct_rows or a sort:
    np.unique(axis=0) is slow on bit rows, and any np.unique imports
    numpy.ma on first use."""
    found = sorted((path.name, node.lineno)
                   for path, tree in _modules()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "unique"
                   and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
    assert not found, "np.unique in unionstab: " + ", ".join(
        f"{name}:{line}" for name, line in found)
