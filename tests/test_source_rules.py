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


# Dataclass fields that only tests and the benchmark read, each with its reader.
READ_OUTSIDE_THE_PROGRAM = {
    "HeuristicStats.unschedules",        # perfbench/workloads.py, test_heuristic.py
    "ValidationReport.observed_jitter",  # test_validation.py
    "ValidationReport.chain_latency",    # test_validation.py
}


def _is_dataclass(decorator) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def test_every_dataclass_field_is_read_in_the_program():
    # a field that no attribute read in the source touches is written and
    # never used; ``stats.n += 1`` stores the attribute, it does not read it
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted(SOURCE.glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls.name}.{stmt.target.id}"
              for tree in trees for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef)
              and any(_is_dataclass(d) for d in cls.decorator_list)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
              and stmt.target.id not in read]
    assert sorted(unread) == sorted(READ_OUTSIDE_THE_PROGRAM)
