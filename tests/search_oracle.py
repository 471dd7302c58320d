"""Reference search engine: ``Engine`` as it stood before incremental
violation tracking and the decided-arc cycle check.

It rescans every disjunction for the first violated one at each node, raises
the decided arc's head itself before propagating, and finds positive cycles
only through the hit-count trip.  ``search.Engine`` must explore the same
tree: the same status, vector and node count for every call.
"""

from __future__ import annotations

import time

from ttcosched.intervals import IntervalSet
from ttcosched.search import (INCUMBENT, OPTIMAL, SAT, TIMEOUT, UNSAT,
                              Deadline, SearchStats)


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
        self.in_arcs: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        self.disjunctions: list[tuple[int, int, int, int]] = []
        self.failed = False
        # positive-cycle detection state, versioned per propagation call
        self._reason: list = [None] * self.n
        self._hits = [0] * self.n
        self._stamp = [0] * self.n
        self._reason_ub: list = [None] * self.n
        self._hits_ub = [0] * self.n
        self._stamp_ub = [0] * self.n
        self._call = 0

    def add_arc(self, u: int, v: int, c: int):
        """Require s_u + c <= s_v."""
        if u == v:
            if c > 0:
                self.failed = True
            return
        self.out_arcs[u].append((v, c))
        self.in_arcs[v].append((u, c))

    def add_disjunction(self, u: int, v: int, a: int, b: int) -> int:
        """Require s_u + a <= s_v  or  s_v + b <= s_u."""
        idx = len(self.disjunctions)
        self.disjunctions.append((u, v, a, b))
        return idx

    def _first_violated(self):
        """First uncommitted disjunction the lower-bound vector violates."""
        lb = self.lb
        committed = self._committed
        for idx, (u, v, a, b) in enumerate(self.disjunctions):
            if committed[idx]:
                continue
            if lb[u] + a <= lb[v] or lb[v] + b <= lb[u]:
                continue
            return idx
        return None

    def _positive_cycle(self, start, reason, stamp) -> bool:
        """Walk bound-update reasons from ``start``; a positive-weight loop of
        committed arcs proves the branch infeasible."""
        call = self._call
        pos = {}
        path = []
        x = start
        for _ in range(self.n + 1):
            if stamp[x] != call or reason[x] is None:
                return False
            u, c = reason[x]
            if x in pos:
                return sum(w for _v, w in path[pos[x]:]) > 0
            pos[x] = len(path)
            path.append((x, c))
            x = u
        seen = {}
        for i, (v, _c) in enumerate(path):
            if v in seen:
                return sum(w for _v, w in path[seen[v]:i]) > 0
            seen[v] = i
        return False

    def _propagate(self, seeds, trail) -> bool:
        lb, ub = self.lb, self.ub
        gapped, domains = self.gapped, self.domains
        out_arcs, in_arcs = self.out_arcs, self.in_arcs
        stats = self._stats
        deadline = self._deadline
        self._call += 1
        call = self._call
        reason, hits, stamp = self._reason, self._hits, self._stamp
        reason_ub, hits_ub, stamp_ub = (self._reason_ub, self._hits_ub,
                                        self._stamp_ub)
        trip = self.n + 8
        queue = list(seeds)
        queued = set(queue)
        lbsum = 0
        trail_append = trail.append
        try:
            while queue:
                u = queue.pop()
                queued.discard(u)
                stats.propagations += 1
                if deadline is not None and stats.propagations % 4096 == 0:
                    if time.monotonic() > deadline:
                        raise Deadline
                lbu = lb[u]
                for v, c in out_arcs[u]:
                    cand = lbu + c
                    if cand > lb[v]:
                        if cand > ub[v]:
                            return False
                        if gapped[v]:
                            nv = domains[v].snap_ge(cand)
                            if nv is None or nv > ub[v]:
                                return False
                        else:
                            nv = cand
                        trail_append((v, lb[v], ub[v]))
                        lbsum += nv - lb[v]
                        lb[v] = nv
                        if stamp[v] != call:
                            stamp[v] = call
                            hits[v] = 0
                        reason[v] = (u, c)
                        hits[v] += 1
                        if hits[v] > trip:
                            hits[v] = -trip
                            if self._positive_cycle(v, reason, stamp):
                                return False
                        if v not in queued:
                            queue.append(v)
                            queued.add(v)
                ubu = ub[u]
                for w, c in in_arcs[u]:
                    cand = ubu - c
                    if cand < ub[w]:
                        if cand < lb[w]:
                            return False
                        if gapped[w]:
                            nw = domains[w].snap_le(cand)
                            if nw is None or nw < lb[w]:
                                return False
                        else:
                            nw = cand
                        trail_append((w, lb[w], ub[w]))
                        ub[w] = nw
                        if stamp_ub[w] != call:
                            stamp_ub[w] = call
                            hits_ub[w] = 0
                        reason_ub[w] = (u, c)
                        hits_ub[w] += 1
                        if hits_ub[w] > trip:
                            hits_ub[w] = -trip
                            if self._positive_cycle(w, reason_ub, stamp_ub):
                                return False
                        if w not in queued:
                            queue.append(w)
                            queued.add(w)
            return True
        finally:
            self._lbsum += lbsum

    def _decide(self, idx, side, trail) -> bool:
        self._committed[idx] = side
        trail.append((-1, idx, 0))
        u, v, a, b = self.disjunctions[idx]
        su, sv, c = (u, v, a) if side == 1 else (v, u, b)
        self.out_arcs[su].append((sv, c))
        self.in_arcs[sv].append((su, c))
        trail.append((-2, su, sv))
        cand = self.lb[su] + c
        if cand > self.lb[sv]:
            nv = self.domains[sv].snap_ge(cand) if self.gapped[sv] else cand
            if nv is None or nv > self.ub[sv]:
                return False
            trail.append((sv, self.lb[sv], self.ub[sv]))
            self._lbsum += nv - self.lb[sv]
            self.lb[sv] = nv
        return self._propagate((su, sv), trail)

    def _undo(self, trail, mark):
        lb, ub = self.lb, self.ub
        committed = self._committed
        out_arcs, in_arcs = self.out_arcs, self.in_arcs
        lbsum = 0
        while len(trail) > mark:
            v, x, y = trail.pop()
            if v == -1:
                committed[x] = 0
            elif v == -2:
                out_arcs[x].pop()
                in_arcs[y].pop()
            else:
                lbsum += x - lb[v]
                lb[v], ub[v] = x, y
        self._lbsum += lbsum

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
        self._committed = [0] * len(self.disjunctions)
        self._lbsum = sum(self.lb)
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
                            and self._lbsum >= best_sum):
                        descending = False
                        continue
                    idx = self._first_violated()
                    if idx is None:
                        if not minimize:
                            best = list(self.lb)
                            break
                        if best_sum is None or self._lbsum < best_sum:
                            best_sum, best = self._lbsum, list(self.lb)
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

    def solve_feasible(self, time_limit=None):
        """First feasible assignment: (SAT/UNSAT/TIMEOUT, vector, stats)."""
        return self._run(time_limit, minimize=False)

    def solve_feasible_limited(self, time_limit, node_limit):
        """Feasibility attempt bounded by nodes as well as wall time."""
        return self._run(time_limit, minimize=False, node_limit=node_limit)

    def minimize_sum(self, time_limit=None, node_limit=None):
        """Minimal-sum assignment: (OPTIMAL/INCUMBENT/UNSAT/TIMEOUT, vector, stats)."""
        return self._run(time_limit, minimize=True, node_limit=node_limit)
