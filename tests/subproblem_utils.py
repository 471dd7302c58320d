"""Random single-activity placement subproblems and their brute-force optimum."""

from __future__ import annotations

import random

from ttcosched.heuristic import DomainStore
from ttcosched.intervals import IntervalSet
from ttcosched.model import Activity, Instance, Platform, PrecedenceDAG, derive_bounds


class ListedDomains(list):
    """Job domains given as a list of IntervalSets, read the way
    ``DomainStore.domains`` is read: ``least`` and ``snap_ge(j, x)``."""

    @property
    def least(self):
        return [None if dom.is_empty() else dom.min() for dom in self]

    def snap_ge(self, j, x):
        return self[j].snap_ge(x)


class FixedDomainStore(DomainStore):
    """DomainStore whose admissible sets are injected by the test."""

    def __init__(self, instance, bounds, fixed):
        super().__init__(instance, bounds)
        self.fixed = fixed

    def domains(self, act):
        return ListedDomains(self.fixed[act])


def random_subproblem(rng: random.Random):
    """(instance, bounds, store, jobs, jitter) with <= 12 jobs, <= 4 pieces."""
    n_jobs = rng.randint(2, 12)
    period = rng.randint(15, 40)
    hyper = n_jobs * period
    e = rng.randint(1, max(1, period // 4))
    jit = rng.randint(0, max(0, period // 2))
    plat = Platform(cores=2)
    acts = (Activity(0, "task", period, e, jit, 0),
            Activity(1, "task", hyper, 1, hyper, 1))
    inst = Instance(acts, plat, PrecedenceDAG(2))
    bounds = derive_bounds(inst)
    doms = []
    for j in range(1, n_jobs + 1):
        lo = (j - 1) * period
        hi = (j + 1) * period - e - 1
        pieces = []
        cursor = lo + rng.randint(0, period // 2)
        for _ in range(rng.randint(1, 4)):
            if cursor > hi:
                break
            width = rng.randint(0, period // 2)
            pieces.append((cursor, min(hi, cursor + width)))
            cursor += width + rng.randint(2, period)
        if not pieces:
            pieces = [(lo, hi)]
        doms.append(IntervalSet(pieces))
    fixed = {0: doms, 1: [IntervalSet.span(0, 2 * hyper - 1)]}
    store = FixedDomainStore(inst, bounds, fixed)
    return inst, bounds, store, doms, jit


def brute_force_min_sum(doms, period, e, jit, hyper):
    """Minimal start-time sum over all domain-point combinations.

    Exhaustive over start points via dynamic programming on the per-job
    deviation from strict periodicity: for each first-job point, state j
    holds every reachable (deviation -> minimal partial sum) under self
    precedence and the consecutive jitter band; the hyper-period wrap pair
    filters the final states.  Purely combinatorial, shares nothing with the
    production search.
    """
    n = len(doms)
    if n == 1:
        return doms[0].min() if not doms[0].is_empty() else None
    best = None
    for first in doms[0].points():
        states = {0: first}  # deviation from first + (j-1)*p -> min sum
        for j in range(1, n):
            base = first + j * period
            nxt: dict[int, int] = {}
            for dev, acc in states.items():
                prev = first + (j - 1) * period + dev
                lo = max(prev + e, prev + period - jit)
                hi = prev + period + jit
                for s in doms[j].points():
                    if s < lo:
                        continue
                    if s > hi:
                        break
                    d2 = s - base
                    if d2 not in nxt or acc + s < nxt[d2]:
                        nxt[d2] = acc + s
            states = nxt
            if not states:
                break
        for dev, acc in states.items():
            last = first + (n - 1) * period + dev
            if last + e > first + hyper:
                continue
            if abs(first + hyper - period - last) > jit:
                continue
            if best is None or acc < best:
                best = acc
    return best
