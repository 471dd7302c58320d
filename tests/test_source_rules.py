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
    "parse_smt_model",          # test_export.py
    "is_zero_jitter",           # test_heuristic.py, test_validation.py
}


def test_every_public_function_has_a_caller_in_the_program():
    # a public function or method whose name appears nowhere in the source
    # but in its own ``def`` line has no caller; names with a leading
    # underscore are left out, special methods with them, since the
    # interpreter calls those through operators (``in`` calls
    # ``IntervalSet.__contains__``, which test_heuristic.py relies on).  A
    # re-export in ``__init__.py`` calls nothing, so that file is not read
    texts = {path: path.read_text() for path in sorted(SOURCE.glob("*.py"))
             if path.name != "__init__.py"}
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


def test_no_module_imports_a_name_it_never_uses():
    # ``__init__.py`` imports names to re-export them; any other module
    # imports a name once, at the top, and uses it
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        seen = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used or name in seen:
                    found.append(f"{path.name}:{node.lineno}:{name}")
                seen.add(name)
    assert found == []


# Defaulted parameters that only tests pass, each with what needs them.
PASSED_FROM_TESTS = {
    "cli.main(argv)",                     # the CLI tests
    "validation.Schedule.from_lists(zj)",  # tests/oracle_utils.py, test_validation.py
}

BENCHMARK = Path(__file__).resolve().parent.parent / "perfbench"


def _passed_parameters(paths) -> dict[str, list[tuple[int, set[str], bool]]]:
    # callee name -> (positional count, keyword names, unpacks) per call
    calls: dict[str, list[tuple[int, set[str], bool]]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            unpacks = (any(isinstance(arg, ast.Starred) for arg in node.args)
                       or any(kw.arg is None for kw in node.keywords))
            calls.setdefault(name, []).append(
                (len(node.args), {kw.arg for kw in node.keywords}, unpacks))
    return calls


def test_every_defaulted_parameter_is_passed_by_the_program():
    # a default that no call in the program or the benchmark overrides is a
    # setting with one value: it belongs in the body.  Calls are matched by
    # name, so a parameter counts as passed if any same-named callee gets it
    modules = sorted(SOURCE.glob("*.py"))
    calls = _passed_parameters(
        modules + [p for p in sorted(BENCHMARK.glob("*.py"))
                   if not p.name.startswith("test_")])
    defs = []
    for path in modules:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{path.stem}.{node.name}", node, False))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{path.stem}.{node.name}.{sub.name}", sub,
                          not any(getattr(d, "id", None) == "staticmethod"
                                  for d in sub.decorator_list))
                         for sub in node.body if isinstance(sub, ast.FunctionDef)]
    unpassed = []
    for qualname, node, bound in defs:
        if node.name.startswith("_"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first_default = len(positional) - len(args.defaults)
        if bound:
            positional, first_default = positional[1:], first_default - 1
        defaulted = [(k, arg.arg) for k, arg in enumerate(positional)
                     if k >= first_default]
        defaulted += [(None, arg.arg) for arg, default
                      in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        for index, param in defaulted:
            if not any(unpacks or param in keywords
                       or (index is not None and count > index)
                       for count, keywords, unpacks in calls.get(node.name, [])):
                unpassed.append(f"{qualname}({param})")
    assert sorted(unpassed) == sorted(PASSED_FROM_TESTS)
