"""Rules the program's source keeps, checked by parsing it."""

import ast
from pathlib import Path

import ttcosched

SOURCE = Path(ttcosched.__file__).resolve().parent


def test_no_module_guards_an_invariant_with_assert():
    # ``python -O`` strips assert statements, so an invariant they guard
    # would go unchecked; raise an exception instead
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
