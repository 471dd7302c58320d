"""The constraint lists the exact engine and the 3-LS pair search had before
both took their rules from ``model``, kept as references.

``make_engine`` is the former ``solver._make_engine``: the DAG arcs and the
self arcs of ``_precedence_arcs`` and, for every activity whose job windows
are wider than its jitter, the jitter arcs of ``_jitter_arcs``, each added
on its own.  ``pair_sub_model`` is the former pair branch of
``heuristic.sub_model``: every grid pair of jobs whose domain spans meet,
and both hyper-period wrap pairs, whether their spans meet or not, over the
arcs of the former ``_job_arcs``.  The code is the former code, but for
``jitter_enforced`` and ``_precedence_arcs``, which ``build_model`` kept as
lists, and the pair search's node limit, now a constant.
"""

from __future__ import annotations

from ttcosched.heuristic import PAIR_NODE_LIMIT
from ttcosched.intervals import IntervalSet
from ttcosched.search import INCUMBENT, OPTIMAL, Engine
from ttcosched.solver import JC


def jitter_enforced(model) -> list[int]:
    """Activities whose jitter arcs the former engine added."""
    out = []
    if model.mode == JC:
        for a in model.instance.activities:
            if model.bounds.jobs[a.id] < 2:
                continue
            v1 = model.job_vars[model.var_of[(a.id, 1)]]
            if a.jitter < v1.width:
                out.append(a.id)
    return out


def _jitter_arcs(model, act: int):
    """Difference arcs for the relative-jitter constraints of one activity."""
    a = model.instance.activities[act]
    n = model.bounds.jobs[act]
    hyper = model.bounds.hyper_period
    arcs = []
    for j in range(1, n):
        u = model.var_of[(act, j)]
        v = model.var_of[(act, j + 1)]
        arcs.append((u, v, a.period - a.jitter))
        arcs.append((v, u, -(a.period + a.jitter)))
    if n >= 2:
        u1 = model.var_of[(act, 1)]
        un = model.var_of[(act, n)]
        arcs.append((u1, un, hyper - a.period - a.jitter))
        arcs.append((un, u1, a.period - a.jitter - hyper))
    return arcs


def _precedence_arcs(model):
    """The DAG arcs, then in JC mode each activity's self arcs
    s_{j+1} >= s_j + e with their wrap s_1 + H >= s_n + e."""
    acts = model.instance.activities
    var_of = model.var_of
    arcs = []
    for i, l in sorted(model.instance.dag.edges):
        jobs = 1 if model.mode != JC else model.bounds.jobs[i]
        arcs += [(var_of[(i, j)], var_of[(l, j)], acts[i].exec_time)
                 for j in range(1, jobs + 1)]
    if model.mode == JC:
        hyper = model.bounds.hyper_period
        for a in acts:
            n = model.bounds.jobs[a.id]
            if n < 2:
                continue
            e = a.exec_time
            arcs += [(var_of[(a.id, j)], var_of[(a.id, j + 1)], e)
                     for j in range(1, n)]
            arcs.append((var_of[(a.id, n)], var_of[(a.id, 1)], e - hyper))
    return arcs


def make_engine(model, pairs) -> Engine:
    engine = Engine([IntervalSet.span(v.lb, v.ub) for v in model.job_vars])
    for u, v, c in _precedence_arcs(model):
        engine.add_arc(u, v, c)
    for act in jitter_enforced(model):
        for u, v, c in _jitter_arcs(model, act):
            engine.add_arc(u, v, c)
    for pair in pairs:
        engine.add_disjunction(pair.u, pair.v, pair.a, pair.b)
    return engine


def _job_arcs(a, bounds) -> list[tuple[int, int, int]]:
    n = bounds.jobs[a.id]
    if n < 2:
        return []
    e, p, jit, hyper = a.exec_time, a.period, a.jitter, bounds.hyper_period
    keep_jitter = jit < p + bounds.slack[a.id]
    step = max(e, p - jit) if keep_jitter else e
    arcs = [(j, j + 1, step) for j in range(n - 1)]
    arcs.append((n - 1, 0, step - hyper))
    if keep_jitter:
        arcs.append((0, n - 1, hyper - p - jit))
        arcs += [(j + 1, j, -(p + jit)) for j in range(n - 2, -1, -1)]
    return arcs


def pair_sub_model(instance, bounds, store, a1: int, a2: int,
                   time_limit: float | None = None):
    """``{a1: starts, a2: starts}`` minimising the start-time sum, or None."""
    acts = [a1, a2]
    doms: list[IntervalSet] = []
    index: dict[tuple[int, int], int] = {}
    for act in acts:
        d = store.domains(act)
        for j, dom in enumerate(d, start=1):
            if dom.is_empty():
                return None
            index[(act, j)] = len(doms)
            doms.append(dom)

    engine = Engine(doms)
    hyper = bounds.hyper_period
    for act in acts:
        first = index[(act, 1)]
        for j, k, c in _job_arcs(instance.activities[act], bounds):
            engine.add_arc(first + j, first + k, c)

    x, y = instance.activities[a1], instance.activities[a2]
    for i, l in ((a1, a2), (a2, a1)):
        if instance.dag.has_edge(i, l):
            e_i = instance.activities[i].exec_time
            for j in range(1, bounds.jobs[i] + 1):
                engine.add_arc(index[(i, j)], index[(l, j)], e_i)
    if x.resource == y.resource:
        n1, n2 = bounds.jobs[a1], bounds.jobs[a2]
        for j in range(1, n1 + 1):
            for k in range(1, n2 + 1):
                u, v = index[(a1, j)], index[(a2, k)]
                if (doms[u].min() < doms[v].max() + y.exec_time
                        and doms[v].min() < doms[u].max() + x.exec_time):
                    engine.add_disjunction(u, v, x.exec_time, y.exec_time)
        # first-period (+H) against last-period wrap pairs
        u, v = index[(a1, 1)], index[(a2, n2)]
        engine.add_disjunction(u, v, x.exec_time + hyper, y.exec_time - hyper)
        u, v = index[(a2, 1)], index[(a1, n1)]
        engine.add_disjunction(u, v, y.exec_time + hyper, x.exec_time - hyper)

    status, values, _stats = engine.minimize_sum(
        time_limit=time_limit, node_limit=PAIR_NODE_LIMIT)
    if status not in (OPTIMAL, INCUMBENT):
        return None
    result = {}
    for act in acts:
        n = bounds.jobs[act]
        result[act] = tuple(values[index[(act, j)]] for j in range(1, n + 1))
    return result
