"""Branch-and-propagate search over difference constraints and disjunctions.

Variables take integer values from interval-union domains.  Constraints are
either arcs ``s_u + c <= s_v`` or disjunctions
``(s_u + a <= s_v) or (s_v + b <= s_u)`` (the resource-pair form).  Bounds
propagation snaps into the domains; committed disjunction sides become
ordinary arcs so they keep propagating.

The key invariant: difference constraints over unary domains are closed
under pointwise minimum, so the propagated lower-bound vector is the least
solution of everything committed.  A lower-bound vector that also satisfies
all uncommitted disjunctions is therefore a concrete feasible assignment,
and its sum bounds the whole subtree from below (bounds only grow during
descent).  Feasibility search returns the first such vector; minimisation
keeps branching with the lower-bound sum as the pruning bound and is exact
when allowed to exhaust.

Only lower bounds are propagated.  When their least fixpoint stays inside
the domains it satisfies every committed arc, so the committed arcs are
feasible; when it leaves a domain, no assignment is.  Upper bounds could
only find the same failures sooner, so they stay the domain maxima.

Committed arcs can close positive-weight cycles whose bound updates would
otherwise crawl across the whole domain one tick at a time.  A decision
adds one arc ``u -> v`` to a propagated fixpoint, so a positive cycle it
closes runs through that arc and shows as soon as propagation raises ``u``
(Cotton and Maler, "Fast and flexible difference constraint propagation for
DPLL(T)", SAT 2006).  Every bound change records the arc that caused it, and
when ``u`` rises a walk back along these reasons decides at once.  Over
contiguous domains every raise follows an arc exactly, so the walk always
finds the cycle; snapping into a gapped domain can raise ``u`` without one,
and then the walk finds none.  Every ``8 n`` raises within one propagation
the walk also runs from the variable just raised: the backstop for the root
propagation, which has no new arc, and for gapped domains.

A side that closed a positive cycle leaves a nogood: the committed sides of
other disjunctions among the cycle's arcs (the rest are fixed arcs).  While
those all stand the side closes the same cycle again, so it fails at once,
without propagating.

Branching is deterministic: the first disjunction violated by the
lower-bound vector is split (callers order disjunctions most-constrained
-first at build time), and the side displacing the vector least is tried
first.  The violated set is kept between nodes: disjunctions are watched
from both their variables, and only those on a variable whose lower bound
rose since the last node are looked at again.  Disjunctions over the same
pair of variables with the same ``a + b`` share one sorted list, so the
violated ones are a slice of it, found by bisection and left alone while
the difference of the two bounds stays in the range where that slice holds.
Changes to the set go on the trail, so backtracking restores it with the
bounds.

With one new arc the least fixpoint of the bounds is unique, and whether
propagation fails does not depend on the order of its steps.  So none of
this changes a decision, a vector or a node count; it only takes fewer steps
to reach them.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .intervals import IntervalSet

SAT = "sat"
UNSAT = "unsat"
TIMEOUT = "timeout"
OPTIMAL = "optimal"
INCUMBENT = "incumbent"  # stopped early but holding a feasible solution


@dataclass
class SearchStats:
    nodes: int = 0
    propagations: int = 0
    wall: float = 0.0
    solutions: int = 0


class Deadline(Exception):
    """Raised inside propagation when the wall limit passes."""


class Engine:
    def __init__(self, domains: list[IntervalSet]):
        self.domains = list(domains)
        self.n = len(self.domains)
        self.lb = [0] * self.n
        self.ub = [0] * self.n
        # fast path: contiguous domains snap by plain clamping
        self.gapped = [False] * self.n
        for i, d in enumerate(self.domains):
            if d.is_empty():
                raise ValueError(f"variable {i} has an empty domain")
            self.lb[i] = d.min()
            self.ub[i] = d.max()
            self.gapped[i] = len(d.intervals) > 1
        self.out_arcs: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        # the disjunctions whose decided sides end out_arcs[u], in order
        self._decided: list[list[int]] = [[] for _ in range(self.n)]
        self.disjunctions: list[tuple[int, int, int, int]] = []
        # beyond any difference of two bounds: the open end of a d range
        self._far = 1 + max(self.ub, default=0) - min(self.lb, default=0)
        self.failed = False
        # positive-cycle detection: the (source, weight, call) of each lower
        # bound's last change
        self._reason = [(-1, 0, 0)] * self.n
        self._call = 0
        self._queued = [False] * self.n

    def add_arc(self, u: int, v: int, c: int):
        """Require s_u + c <= s_v."""
        if u == v:
            if c > 0:
                self.failed = True
            return
        self.out_arcs[u].append((v, c))

    def add_disjunction(self, u: int, v: int, a: int, b: int) -> int:
        """Require s_u + a <= s_v  or  s_v + b <= s_u."""
        idx = len(self.disjunctions)
        self.disjunctions.append((u, v, a, b))
        return idx

    def _group(self):
        """Sort the disjunctions into groups watched from their variables.

        Disjunctions over the same ``u <= v`` with the same ``w = a + b`` form
        a group: with ``d = lb[u] - lb[v]``, disjunction k is violated iff
        ``lo_k < d < lo_k + w``, where ``lo_k = -a_k``.  A group is a run of
        ``_los`` (sorted) and ``_idxs`` from ``_start[g]`` to
        ``_start[g + 1]``, so its violated disjunctions are a slice.  Those
        with ``w <= 0`` are never violated and left out.
        """
        rows = sorted((u, v, a + b, -a, idx) if u <= v else
                      (v, u, a + b, -b, idx)
                      for idx, (u, v, a, b) in enumerate(self.disjunctions)
                      if a + b > 0)
        self._los = [row[3] for row in rows]
        self._idxs = [row[4] for row in rows]
        self._start, self._width = [], []
        # per variable: (group, other variable) where it is u, and where v
        self._u_groups = [[] for _ in range(self.n)]
        self._v_groups = [[] for _ in range(self.n)]
        key = None
        for k, (u, v, w, _lo, _idx) in enumerate(rows):
            if (u, v, w) == key:
                continue
            key = (u, v, w)
            g = len(self._start)
            self._start.append(k)
            self._width.append(w)
            self._u_groups[u].append((g, v))
            if v != u:
                self._v_groups[v].append((g, u))
        self._start.append(len(rows))

    def _first_violated(self, trail):
        """First disjunction the lower-bound vector violates, or None.

        ``_violated`` holds exactly the disjunctions violated at the lower
        bounds the trail held at ``_synced``.  Only the groups on a variable
        whose bound rose on the trail since are looked at again, and of
        those only the ones whose difference of bounds left
        ``[_low[g], _high[g]]``, the range over which their violated slice
        stays the same, are searched again.  Each such change goes on the
        trail, so backtracking restores the set with the bounds and a
        lowered bound is never looked at.  A committed disjunction holds at
        every propagated vector, so it is never in the set, and the least
        index in the set is the first uncommitted violated disjunction.
        """
        lb = self.lb
        low, high = self._low, self._high
        u_groups, v_groups = self._u_groups, self._v_groups
        synced = self._synced
        if synced is None:  # the root: every group is looked at, for good
            moved, log = range(self.n), None
        else:
            moved = {v for v, _old in trail[synced:]
                     if v is not None and v >= 0}
            log = trail
        for x in moved:
            lx = lb[x]
            for g, y in u_groups[x]:
                d = lx - lb[y]
                if not low[g] <= d <= high[g]:
                    self._recheck(g, d, log)
            for g, y in v_groups[x]:
                d = lb[y] - lx
                if not low[g] <= d <= high[g]:
                    self._recheck(g, d, log)
        self._synced = len(trail)
        violated = self._violated
        return min(violated) if violated else None

    def _recheck(self, g, d, trail):
        """Put group ``g``'s violated slice at ``d`` into ``_violated`` and
        keep the range of d over which that slice stays the same; the trail,
        if any, keeps the group's former state under the key ``~g``."""
        los, w = self._los, self._width[g]
        first, last = self._start[g], self._start[g + 1]
        hi_k = bisect_left(los, d, first, last)          # lo_k < d
        lo_k = bisect_right(los, d - w, first, last)     # lo_k + w <= d
        if trail is not None:
            trail.append((~g, (*self._span[g], self._low[g], self._high[g])))
        self._set_span(g, lo_k, hi_k)
        # d can move this far before either count changes
        low = los[hi_k - 1] + 1 if hi_k > first else -self._far
        if lo_k > first and los[lo_k - 1] + w > low:
            low = los[lo_k - 1] + w
        high = los[hi_k] if hi_k < last else self._far
        if lo_k < last and los[lo_k] + w - 1 < high:
            high = los[lo_k] + w - 1
        self._low[g] = low
        self._high[g] = high

    def _set_span(self, g, lo_k, hi_k):
        """Make ``_los[lo_k:hi_k]`` group ``g``'s violated slice."""
        old_lo, old_hi = self._span[g]
        if old_lo != lo_k or old_hi != hi_k:
            idxs = self._idxs
            self._violated.difference_update(idxs[old_lo:old_hi])
            self._violated.update(idxs[lo_k:hi_k])
            self._span[g] = lo_k, hi_k

    def _positive_cycle(self, start) -> bool:
        """Walk bound-update reasons from ``start``; a positive-weight loop of
        committed arcs proves the branch infeasible."""
        reason, call = self._reason, self._call
        pos = {}
        path = []
        x = start
        while True:  # n steps visit n variables, so a loop closes by then
            u, c, stamp = reason[x]
            if stamp != call:
                return False
            if x in pos:
                return sum(path[pos[x]:]) > 0
            pos[x] = len(path)
            path.append(c)
            x = u

    def _propagate(self, seeds, trail, tail=-1) -> bool:
        """Raise the lower bounds to their least fixpoint; False when one
        leaves its domain or a positive cycle closes.

        ``tail`` is the tail of the arc just decided, at a fixpoint of
        everything else: when propagation raises it, the walk back along the
        reasons looks for a positive cycle through the new arc at once,
        instead of letting the bounds go round it.  A failure found either
        way is left in ``_proof`` for ``_learn``.  ``stats.propagations``
        counts the bound changes.
        """
        lb, ub = self.lb, self.ub
        gapped, domains = self.gapped, self.domains
        out_arcs = self.out_arcs
        stats = self._stats
        deadline = self._deadline
        self._call += 1
        call = self._call
        reason = self._reason
        trip = 8 * self.n
        changes = stats.propagations
        walk_at = changes + trip
        queue = list(seeds)
        queued = self._queued
        for u in queue:
            queued[u] = True
        trail_append = trail.append
        try:
            while queue:
                u = queue.pop()
                queued[u] = False
                lbu = lb[u]
                for v, c in out_arcs[u]:
                    cand = lbu + c
                    old = lb[v]
                    if cand > old:
                        if cand > ub[v]:
                            self._proof = u, v, c
                            return False
                        if gapped[v]:
                            cand = domains[v].snap_ge(cand)
                            if cand is None or cand > ub[v]:
                                self._proof = u, v, c
                                return False
                        trail_append((v, old))
                        lb[v] = cand
                        reason[v] = (u, c, call)
                        changes += 1
                        if v == tail and self._positive_cycle(v):
                            self._proof = v, None, 0
                            return False
                        if changes & 1023 == 0:
                            if (deadline is not None
                                    and time.monotonic() > deadline):
                                raise Deadline
                            if changes >= walk_at:
                                walk_at = changes + trip
                                if self._positive_cycle(v):
                                    return False
                        if not queued[v]:
                            queued[v] = True
                            queue.append(v)
            return True
        finally:
            for u in queue:
                queued[u] = False
            stats.propagations = changes

    def _decide(self, idx, side, trail) -> bool:
        u, v, a, b = self.disjunctions[idx]
        su, sv, c = (u, v, a) if side == 1 else (v, u, b)
        sides = self._sides
        nogood = self._nogoods.get(2 * idx + side)
        if nogood is not None and self.lb[su] >= nogood[0] and all(
                sides[j] == s for j, s in nogood[1]):
            return False
        self.out_arcs[su].append((sv, c))
        self._decided[su].append(idx)
        sides[idx] = side
        trail.append((None, idx))
        self._proof = None
        if self._propagate((su,), trail, su):
            return True
        if self._proof is not None:
            self._learn(idx, side, su)
        return False

    def _learn(self, idx, side, tail):
        """Keep the nogood of side ``side`` of disjunction ``idx``, whose arc
        out of ``tail`` just failed.

        ``_proof`` is ``(x, v, c)``: the arc ``x -> v`` of weight ``c``
        raised ``v`` past its domain's maximum or, with ``v`` None, ``x`` is
        ``tail`` and the reasons close a positive cycle through it.  The
        reasons lead back from ``x`` to ``tail`` along arcs present, so the
        side fails again whenever all these arcs stand and ``lb[tail]`` plus
        their weight passes that maximum (or always, for a cycle).  The
        nogood keeps that least ``lb[tail]`` and the arcs that are committed
        sides of other disjunctions; the rest are fixed arcs.
        """
        out_arcs, decided, sides = self.out_arcs, self._decided, self._sides
        reason, call = self._reason, self._call
        x, v, weight = self._proof
        path = [] if v is None else [(x, v, weight)]
        for _ in range(self.n + 1):
            if x == tail and path:
                break
            u, c, stamp = reason[x]
            if stamp != call:
                return
            path.append((u, x, c))
            weight += c
            x = u
        else:
            return
        arcs = []
        for u, x, c in path:
            for (y, w), j in zip(reversed(out_arcs[u]), reversed(decided[u])):
                if y == x and w == c and j != idx:
                    arcs.append((j, sides[j]))
                    break
        least = (-float("inf") if v is None
                 else self.ub[v] - weight + 1)
        self._nogoods[2 * idx + side] = least, arcs

    def _undo(self, trail, mark):
        """Back to the trail's ``mark``, which is always where the violated
        set was last brought up to date."""
        lb, out_arcs, decided = self.lb, self.out_arcs, self._decided
        disjunctions, sides = self.disjunctions, self._sides
        for v, old in reversed(trail[mark:]):
            if v is None:  # (None, idx): the side decided of disjunction idx
                u, w, _a, _b = disjunctions[old]
                tail = u if sides[old] == 1 else w
                out_arcs[tail].pop()
                decided[tail].pop()
                sides[old] = 0
            elif v >= 0:
                lb[v] = old
            else:  # (~g, state): group g's violated slice and range
                g = ~v
                self._set_span(g, old[0], old[1])
                self._low[g] = old[2]
                self._high[g] = old[3]
        del trail[mark:]
        self._synced = mark

    def _side_order(self, idx):
        """Earliest-first: try the side displacing the lower bounds least."""
        u, v, a, b = self.disjunctions[idx]
        push_a = max(0, self.lb[u] + a - self.lb[v])
        push_b = max(0, self.lb[v] + b - self.lb[u])
        return (1, 2) if push_a <= push_b else (2, 1)

    # -- driver --------------------------------------------------------------

    def _run(self, time_limit, minimize, node_limit=None):
        stats = SearchStats()
        self._stats = stats
        t0 = time.monotonic()
        deadline = None if time_limit is None else t0 + time_limit
        self._deadline = deadline
        self._synced = None
        self._sides = [0] * len(self.disjunctions)
        self._nogoods: dict[int, tuple] = {}
        self._violated: set[int] = set()
        self._group()
        groups = len(self._width)
        self._span = [(0, 0)] * groups
        self._low = [1] * groups   # empty ranges: every group is checked
        self._high = [0] * groups
        trail: list = []
        best_sum = None
        best = None
        timed_out = False

        if self.failed:
            stats.wall = time.monotonic() - t0
            return UNSAT, None, stats

        try:
            ok = self._propagate(range(self.n), trail)
            frames: list[list] = []  # [trail mark, disjunction, pending side]
            descending = ok
            ticks = 0
            while True:
                ticks += 1
                if ticks & 63 == 0:
                    if deadline is not None and time.monotonic() > deadline:
                        timed_out = True
                        break
                    if node_limit is not None and stats.nodes > node_limit:
                        timed_out = True
                        break
                if descending:
                    stats.nodes += 1
                    if (minimize and best_sum is not None
                            and sum(self.lb) >= best_sum):
                        descending = False
                        continue
                    idx = self._first_violated(trail)
                    if idx is None:
                        stats.solutions += 1
                        if not minimize:
                            best = list(self.lb)
                            break
                        total = sum(self.lb)
                        if best_sum is None or total < best_sum:
                            best_sum, best = total, list(self.lb)
                        descending = False
                        continue
                    first, second = self._side_order(idx)
                    frames.append([len(trail), idx, second])
                    if not self._decide(idx, first, trail):
                        descending = False
                else:
                    if not frames:
                        break
                    mark, idx, pending = frames.pop()
                    self._undo(trail, mark)
                    if pending is None:
                        continue
                    frames.append([mark, idx, None])
                    if self._decide(idx, pending, trail):
                        descending = True
        except Deadline:
            timed_out = True

        stats.wall = time.monotonic() - t0
        if not minimize:
            if best is not None:
                return SAT, best, stats
            return (TIMEOUT, None, stats) if timed_out else (UNSAT, None, stats)
        if best is not None:
            return (INCUMBENT if timed_out else OPTIMAL), best, stats
        return (TIMEOUT, None, stats) if timed_out else (UNSAT, None, stats)

    def solve_feasible_limited(self, time_limit=None, node_limit=None):
        """First feasible assignment within the wall and node limits:
        (SAT/UNSAT/TIMEOUT, vector, stats)."""
        return self._run(time_limit, minimize=False, node_limit=node_limit)

    def minimize_sum(self, time_limit=None, node_limit=None):
        """Minimal-sum assignment: (OPTIMAL/INCUMBENT/UNSAT/TIMEOUT, vector, stats)."""
        return self._run(time_limit, minimize=True, node_limit=node_limit)
