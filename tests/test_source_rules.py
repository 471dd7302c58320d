"""Rules the program's source keeps, checked by parsing it."""

import ast
import re
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


# Public names that only tests and oracles call, each with what needs it.
CALLED_FROM_TESTS = {
    "IntervalSet.snap_le",      # tests/search_oracle.py
    "Schedule.from_lists",      # tests/oracle_utils.py, test_validation.py
    "Schedule.from_offsets",    # tests/oracle_utils.py
}


def test_every_public_function_has_a_caller_in_the_program():
    # a public function or method whose name appears nowhere in the source
    # but in its own ``def`` line has no caller; names with a leading
    # underscore are left out, special methods with them, since the
    # interpreter calls those through operators (``in`` calls
    # ``IntervalSet.__contains__``, which test_heuristic.py relies on)
    texts = {path: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    defs = []
    for path, text in texts.items():
        for node in ast.parse(text, str(path)).body:
            if isinstance(node, ast.FunctionDef):
                defs.append((path, node.name, node))
            elif isinstance(node, ast.ClassDef):
                defs += [(path, f"{node.name}.{sub.name}", sub) for sub in node.body
                         if isinstance(sub, ast.FunctionDef)]
    uncalled = []
    for path, qualname, node in defs:
        name = node.name
        if name.startswith("_") or qualname in CALLED_FROM_TESTS:
            continue
        word = re.compile(rf"\b{name}\b")
        uses = sum(len(word.findall(line))
                   for other, text in texts.items()
                   for number, line in enumerate(text.splitlines(), start=1)
                   if (other, number) != (path, node.lineno))
        if not uses:
            uncalled.append(f"{path.name}:{qualname}")
    assert uncalled == []
