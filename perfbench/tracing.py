"""Per-layer timing and counters, taken from outside the program.

The tracer wraps the public functions and methods of the program's layer
modules by replacing module and class attributes, and puts everything back
on exit.  Nothing in the program changes.  Per wrapped callable it keeps the
number of calls, the inclusive time and the self time (inclusive time minus
the time spent in wrapped callees), and a few counters read from return
values.  Aggregating instead of keeping every span keeps memory flat.
"""

from __future__ import annotations

import functools
import sys
import time
import types

PACKAGE = "ttcosched"
LAYERS = ("generator", "model", "heuristic", "search", "solver", "validation")

# Helpers called once per job, arc or activity inside another wrapped call.
# Wrapping them would multiply the overhead; their time stays in the
# caller's self time.
PER_ELEMENT = frozenset({
    "heuristic.DomainStore.window",
    "search.Engine.add_arc",
    "search.Engine.add_disjunction",
    "model.Platform.port_of",
    "model.Platform.is_core",
    "model.Platform.is_port",
    "model.PrecedenceDAG.has_edge",
    "model.job_count",
    "model.worst_case_slack",
    "model.jitter_critical",
    "model.inherited_jitter",
    "model.message_exec_time",
})

FEASIBILITY_RUNS = ("search.Engine.solve_feasible",
                    "search.Engine.solve_feasible_limited")


class Tracer:
    """Context manager that wraps the layers while it is active."""

    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds]
        self.table: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self._stack = [0.0]
        self._undo: list[tuple[object, str, object]] = []
        self._hooks = {
            "heuristic.run_3ls": self._on_run_3ls,
            "heuristic.sub_model": self._on_sub_model,
            "solver.build_model": self._on_build_model,
            **dict.fromkeys(FEASIBILITY_RUNS, self._on_feasibility_run),
        }

    # -- counters read from return values ------------------------------------

    def _count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _on_run_3ls(self, result) -> None:
        stats = result[1]
        for key in ("level1", "level2", "level3", "unschedules"):
            self._count(key, getattr(stats, key))

    def _on_sub_model(self, result) -> None:
        self._count("sub_model_fail", result is None)

    def _on_feasibility_run(self, result) -> None:
        stats = result[2]
        self._count("nodes", stats.nodes)
        self._count("propagations", stats.propagations)

    def _on_build_model(self, result) -> None:
        self._count("vars", len(result.job_vars))
        self._count("pairs", len(result.pairs))

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        rec = self.table.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
            if hook is not None:
                hook(result)
            return result

        return traced

    def _set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def __enter__(self) -> "Tracer":
        wrapped = {}  # original function -> wrapper
        for short in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    name = f"{short}.{attr}"
                    if name not in PER_ELEMENT:
                        wrapped[obj] = self._wrap(name, obj)
                elif isinstance(obj, type):
                    for meth, fn in list(vars(obj).items()):
                        name = f"{short}.{obj.__name__}.{meth}"
                        if (meth.startswith("_") or name in PER_ELEMENT
                                or not isinstance(fn, types.FunctionType)):
                            continue
                        self._set(obj, meth, self._wrap(name, fn))
        # rebind every module-level alias, so that calls through another
        # module's ``from .x import f`` are traced too
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    # -- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.table.get(name, [0, 0.0, 0.0])[0]

    def inclusive(self, name: str) -> float:
        return self.table.get(name, [0, 0.0, 0.0])[1]

    def own(self, name: str) -> float:
        return self.table.get(name, [0, 0.0, 0.0])[2]

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """The per-layer metrics of BENCHMARK.json, as name -> (value, unit)."""
        c = self.counters.get
        run_3ls_s = self.inclusive("heuristic.run_3ls")
        domains_s = self.inclusive("heuristic.DomainStore.domains")
        sub_calls = self.calls("heuristic.sub_model")
        solve_s = sum(self.inclusive(n) for n in FEASIBILITY_RUNS)
        runs = sum(self.calls(n) for n in FEASIBILITY_RUNS)
        nodes = c("nodes", 0)
        return {
            "heuristic.domains_s": (domains_s, "s"),
            "heuristic.domains_calls": (self.calls("heuristic.DomainStore.domains"), "count"),
            "heuristic.domains_share": (_ratio(domains_s, run_3ls_s), "share"),
            "heuristic.loop_self_s": (self.own("heuristic.run_3ls"), "s"),
            "heuristic.sub_model_s": (self.inclusive("heuristic.sub_model"), "s"),
            "heuristic.sub_model_calls": (sub_calls, "count"),
            "heuristic.sub_model_fail_ratio": (_ratio(c("sub_model_fail", 0), sub_calls), "share"),
            "heuristic.insert_s": (self.inclusive("heuristic.DomainStore.insert"), "s"),
            "heuristic.remove_s": (self.inclusive("heuristic.DomainStore.remove"), "s"),
            "heuristic.remove_calls": (self.calls("heuristic.DomainStore.remove"), "count"),
            "heuristic.level1": (c("level1", 0), "count"),
            "heuristic.level2": (c("level2", 0), "count"),
            "heuristic.level3": (c("level3", 0), "count"),
            "heuristic.unschedules": (c("unschedules", 0), "count"),
            "search.nodes": (nodes, "count"),
            "search.propagations": (c("propagations", 0), "count"),
            "search.nodes_per_s": (_ratio(nodes, solve_s), "1/s"),
            "search.restarts": (max(0, runs - self.calls("solver.solve")), "count"),
            "search.solve_s": (solve_s, "s"),
            "search.solve_share": (_ratio(solve_s, traced_wall), "share"),
            "search.minimize_calls": (self.calls("search.Engine.minimize_sum"), "count"),
            "search.minimize_s": (self.inclusive("search.Engine.minimize_sum"), "s"),
            "solver.build_model_s": (self.inclusive("solver.build_model"), "s"),
            "solver.vars": (c("vars", 0), "count"),
            "solver.pairs": (c("pairs", 0), "count"),
            "generator.scale_s": (self.inclusive("generator.scale_to_utilization"), "s"),
            "model.derive_bounds_s": (self.inclusive("model.derive_bounds"), "s"),
            "validation.validate_s": (self.inclusive("validation.validate"), "s"),
            "trace.wall_s": (traced_wall, "s"),
            "trace.untraced_wall_s": (untraced_wall, "s"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        }

    def summary(self) -> dict:
        """Every wrapped callable that ran: calls, inclusive and self seconds."""
        return {name: {"calls": n, "inclusive_s": round(inc, 6), "self_s": round(own, 6)}
                for name, (n, inc, own) in sorted(self.table.items()) if n}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
