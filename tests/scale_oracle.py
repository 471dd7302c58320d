"""Reference rescaling: ``scale_to_utilization`` as it stood before it kept
each resource's load as an integer over the lcm of its periods.

It sums the load as ``Fraction``s at every nudge and rebuilds every
activity.  ``generator.scale_to_utilization`` must return the same instance,
or raise ``ScaleError`` where this does.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from ttcosched.generator import ScaleError
from ttcosched.model import Instance


def scale_to_utilization(instance: Instance, target: float,
                         tol: float = 0.01) -> Instance:
    """Rescale execution times so every non-empty resource hits ``target``.

    Rounds to whole ticks (>= 1, <= period) and then nudges individual
    activities until each resource is within ``tol`` of the target.
    """
    if not 0 < target <= 1:
        raise ScaleError(f"target utilization {target} not in (0, 1]")
    target_f = Fraction(target).limit_denominator(10**6)
    tol_f = Fraction(tol).limit_denominator(10**6)
    acts = list(instance.activities)
    for res in range(instance.platform.resources):
        members = [a.id for a in acts if a.resource == res]
        if not members:
            continue
        current = sum(acts[i].utilization for i in members)
        factor = target_f / current
        new_e = {i: max(1, min(acts[i].period,
                               round(acts[i].exec_time * factor)))
                 for i in members}

        def load():
            return sum(Fraction(new_e[i], acts[i].period) for i in members)

        guard = 0
        while True:
            gap = load() - target_f
            if abs(gap) <= tol_f:
                break
            guard += 1
            if guard > 100_000:
                raise ScaleError(f"resource {res}: cannot reach {target}")
            if gap < 0:
                cands = [i for i in members if new_e[i] < acts[i].period]
                if not cands:
                    raise ScaleError(f"resource {res}: cannot reach {target}")
                i = max(cands, key=lambda i: (acts[i].period, -i))
                new_e[i] += 1
            else:
                cands = [i for i in members if new_e[i] > 1]
                if not cands:
                    raise ScaleError(f"resource {res}: cannot reach {target}")
                i = max(cands, key=lambda i: (acts[i].period, -i))
                new_e[i] -= 1
        for i in members:
            acts[i] = replace(acts[i], exec_time=new_e[i])
    return instance.with_activities(acts)
