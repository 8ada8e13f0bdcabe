"""Source-level checks over the package modules."""

from __future__ import annotations

import ast
from pathlib import Path

import unionstab


def test_no_assert_statements_in_package():
    """Checks must raise: ``python -O`` strips every assert statement."""
    root = Path(unionstab.__file__).parent
    modules = sorted(root.glob("*.py"))
    assert modules
    found = sorted((path.name, node.lineno)
                   for path in modules
                   for node in ast.walk(ast.parse(path.read_text(), str(path)))
                   if isinstance(node, ast.Assert))
    assert not found, "assert statements in unionstab: " + ", ".join(
        f"{name}:{line}" for name, line in found)
