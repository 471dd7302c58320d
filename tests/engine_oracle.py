"""Reference placement of a single activity by the search engine.

``engine_place_one`` is how ``heuristic.sub_model`` placed one activity
before it computed the least placement directly: it builds an ``Engine``
over the job domains with the self, wrap and jitter arcs, each added on its
own, and returns the engine's ``minimize_sum``.
"""

from __future__ import annotations

from ttcosched.heuristic import HeuristicConfig
from ttcosched.search import INCUMBENT, OPTIMAL, Engine


def engine_place_one(instance, bounds, doms, act: int,
                     node_limit: int = HeuristicConfig().pair_node_limit):
    """``{act: starts}`` minimising the start-time sum over ``doms``, or None."""
    if any(dom.is_empty() for dom in doms):
        return None
    a = instance.activities[act]
    n = bounds.jobs[act]
    hyper = bounds.hyper_period
    engine = Engine(doms)
    for j in range(n - 1):
        engine.add_arc(j, j + 1, a.exec_time)
    if n >= 2:
        engine.add_arc(n - 1, 0, a.exec_time - hyper)
    if n >= 2 and a.jitter < a.period + bounds.slack[act]:
        for j in range(n - 1):
            engine.add_arc(j, j + 1, a.period - a.jitter)
            engine.add_arc(j + 1, j, -(a.period + a.jitter))
        engine.add_arc(0, n - 1, hyper - a.period - a.jitter)
        engine.add_arc(n - 1, 0, a.period - a.jitter - hyper)
    status, values, _stats = engine.minimize_sum(node_limit=node_limit)
    if status not in (OPTIMAL, INCUMBENT):
        return None
    return {act: tuple(values)}
