"""Three-level constructive scheduler.

Activities are inserted one at a time in priority order, each placed by a
sub-model that minimises the sum of its job start times over the admissible
start-time domains left by the already-scheduled set.  When an activity does
not fit, level 1 unschedules a victim and retries; level 2 co-schedules the
two repeat offenders as a pair; level 3 restarts from an almost-empty
schedule keeping only previously level-3-scheduled activities and the
predecessors of the pair, or of the activity alone when no victim is left.
Each pair or lone activity may enter level 3 only once, which bounds the loop.

A single activity is placed without a search ``Engine``: its least placement
is the least fixpoint of lower-bound propagation over its arcs, computed by
alternating passes over its jobs.  That reads only each job's least member
and ``snap_ge``, which walk the store's busy blocks and wrap rows in place:
no object is built per job and no row list is merged.  Gaps are listed only
for a pair, which still builds an Engine and searches.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .intervals import IntervalSet
from .model import (Activity, DerivedBounds, Instance, _job_arcs, _job_pairs,
                    _job_window, derive_bounds)
from .search import INCUMBENT, OPTIMAL, Engine
from .validation import Schedule, validate

# node budget of one pair search
PAIR_NODE_LIMIT = 100_000
# a run stops after this many iterations per activity (plus 1000)
ITERATION_LIMIT_FACTOR = 50


@dataclass
class HeuristicStats:
    level1: int = 0
    level2: int = 0
    level3: int = 0
    unschedules: int = 0
    wall: float = 0.0
    status: str = "ok"


class DomainStore:
    """Admissible start-time domains derived from the scheduled set.

    Per resource it keeps the busy time as merged blocks ``[S, E)``: two
    parallel sorted lists of block starts and ends.  Rows on a resource never
    overlap (``insert`` raises ValueError for one that would), so ``insert``
    merges a job's row with at most two adjacent blocks and ``remove`` splits
    its block into at most two.  A job with execution time ``e`` fits in the
    gap between blocks ``[S_k, E_k)`` and ``[S_{k+1}, E_{k+1})`` at the
    starts ``[E_k, S_{k+1} - e]``, so a job's domain needs only the blocks
    inside its window.  The first- and last-job rows of the scheduled
    activities are kept sorted per resource too: through the hyper-period
    wrap they also constrain the last and the first job of the activity
    asked about.  ``domains`` reads all these lists in place.
    """

    def __init__(self, instance: Instance, bounds: DerivedBounds):
        self.instance = instance
        self.bounds = bounds
        self.sched: dict[int, tuple[int, ...]] = {}
        resources = range(instance.platform.resources)
        # per resource: (block starts, block ends)
        self._blocks: dict[int, tuple[list[int], list[int]]] = {
            r: ([], []) for r in resources}
        # per resource: sorted (start, end) rows of first and of last jobs
        self._firsts: dict[int, list[tuple[int, int]]] = {r: [] for r in resources}
        self._lasts: dict[int, list[tuple[int, int]]] = {r: [] for r in resources}

    def insert(self, act: int, starts) -> None:
        a = self.instance.activities[act]
        e = a.exec_time
        starts = tuple(starts)
        bs, be = self._blocks[a.resource]
        for s in starts:
            t = s + e
            i = bisect_right(bs, s)
            if (i and be[i - 1] > s) or (i < len(bs) and bs[i] < t):
                raise ValueError(
                    f"activity {act}: job at {s} overlaps the scheduled set")
            joins_left = i and be[i - 1] == s
            joins_right = i < len(bs) and bs[i] == t
            if joins_left and joins_right:
                be[i - 1] = be[i]
                del bs[i], be[i]
            elif joins_left:
                be[i - 1] = t
            elif joins_right:
                bs[i] = s
            else:
                bs.insert(i, s)
                be.insert(i, t)
        insort(self._firsts[a.resource], (starts[0], starts[0] + e))
        insort(self._lasts[a.resource], (starts[-1], starts[-1] + e))
        self.sched[act] = starts

    def remove(self, acts) -> None:
        for act in set(acts):
            starts = self.sched.pop(act, None)
            if starts is None:
                continue
            a = self.instance.activities[act]
            e = a.exec_time
            bs, be = self._blocks[a.resource]
            for s in starts:
                t = s + e
                i = bisect_right(bs, s) - 1
                block_start, block_end = bs[i], be[i]
                if block_start == s and block_end == t:
                    del bs[i], be[i]
                elif block_start == s:
                    bs[i] = t
                elif block_end == t:
                    be[i] = s
                else:
                    be[i] = s
                    bs.insert(i + 1, t)
                    be.insert(i + 1, block_end)
            for rows, s in ((self._firsts[a.resource], starts[0]),
                            (self._lasts[a.resource], starts[-1])):
                del rows[bisect_left(rows, (s, s + e))]

    def window(self, act: int, job: int) -> tuple[int, int]:
        """Initial admissible interval of job ``job`` (1-based).

        It is the model's job window less its last start (the ``- 1``):
        the 3-LS placements that the tests and the benchmark's fingerprints
        pin rest on these windows.  The exact model and the validator admit
        that last start too.
        """
        lo, hi = _job_window(self.instance.activities[act], self.bounds, job)
        return lo, hi - 1

    def domains(self, act: int) -> _JobDomains:
        """The domains of every job of ``act`` given the scheduled set.

        One ``_JobDomains`` view over the resource's blocks and wrap rows.
        Each job's window start after the predecessor trim and its least
        member are found here; its gaps are listed only when the job is read
        by index, as a pair's Engine does, so placing a single activity
        lists none.
        """
        inst = self.instance
        a = inst.activities[act]
        e, p, res = a.exec_time, a.period, a.resource
        n = self.bounds.jobs[act]
        bs, be = self._blocks[res]
        preds = [(self.sched[w], inst.activities[w].exec_time)
                 for w in inst.dag.pred[act] if w in self.sched]
        lo1, hi1 = self.window(act, 1)
        doms = _JobDomains(bs, be, self._firsts[res], self._lasts[res],
                           self.bounds.hyper_period, e, p, hi1, n)
        lows, least = doms.lows, doms.least
        nb, width = len(bs), hi1 - lo1
        for j, x in enumerate(range(lo1, lo1 + n * p, p)):
            hi = x + width
            for pred_starts, pred_e in preds:
                if pred_starts[j] + pred_e > x:
                    x = pred_starts[j] + pred_e
            lows.append(x)
            # blocks ending by x do not reach a start >= x
            k = bisect_right(be, x)
            while k < nb and bs[k] - e < x:
                x = be[k]
                k += 1
            least.append(x if x <= hi else None)
        # the wrap rows constrain the first and the last job too
        for j in {0, n - 1}:
            if least[j] is not None:
                least[j] = doms.snap_ge(j, least[j])
        return doms


class _JobDomains:
    """The domains of the ``n`` jobs of one activity of ``e`` ticks.

    Job ``j`` (0-based) may start in ``[lows[j], hi1 + j * p]`` where it
    meets none of the busy blocks ``[bs[k], be[k])``.  Through the
    hyper-period wrap, the first job also meets none of the last-job rows
    moved by -H, and the last job none of the first-job rows moved by +H.
    The view holds the store's lists by reference, so it describes the
    store as it stands: nothing holds one across ``insert`` or ``remove``.
    ``least[j]`` is job ``j``'s least member, or None; ``snap_ge`` walks
    the blocks and rows, and ``self[j]`` lists the gaps as an IntervalSet.
    """

    __slots__ = ("bs", "be", "e", "p", "hi1", "n", "wrap", "lows", "least")

    def __init__(self, bs, be, firsts, lasts, hyper, e, p, hi1, n):
        self.bs, self.be, self.e, self.p, self.hi1, self.n = bs, be, e, p, hi1, n
        # the sorted, disjoint row lists, with their shift, that the first
        # and the last job meet through the wrap; a lone job meets both
        self.wrap = {0: [(lasts, -hyper)]}
        self.wrap.setdefault(n - 1, []).append((firsts, hyper))
        self.lows: list[int] = []
        self.least: list[int | None] = []

    def snap_ge(self, j: int, x: int):
        """Least member of job ``j``'s domain >= x, or None."""
        if x < self.lows[j]:
            x = self.lows[j]
        hi = self.hi1 + j * self.p
        bs, be, e = self.bs, self.be, self.e
        rows = self.wrap.get(j, ())
        while x <= hi:
            # blocks ending by x do not reach a start >= x
            k = bisect_right(be, x)
            while k < len(bs) and bs[k] - e < x:
                x = be[k]
                k += 1
            y = x
            for row, shift in rows:
                # the row before the first starting at y or later may still
                # end after y
                for k in range(max(bisect_left(row, (y - shift,)) - 1, 0),
                               len(row)):
                    s, t = row[k]
                    if s + shift - e >= y:
                        break
                    if t + shift > y:
                        y = t + shift
            if y == x:
                break
            x = y
        return x if x <= hi else None

    def __getitem__(self, j: int) -> IntervalSet:
        # a member x meets nothing, so the first block and the first row
        # that end after x start at x + e or later and bound its gap
        hi = self.hi1 + j * self.p
        bs, be, e = self.bs, self.be, self.e
        rows = self.wrap.get(j, ())
        ivs = []
        x = self.least[j]
        while x is not None:
            k = bisect_right(be, x)
            top = bs[k] - e if k < len(bs) and bs[k] - e < hi else hi
            for row, shift in rows:
                k = bisect_left(row, (x - shift + 1,))
                if k < len(row) and row[k][0] + shift - e < top:
                    top = row[k][0] + shift - e
            ivs.append((x, top))
            x = self.snap_ge(j, top + 1)
        return IntervalSet(ivs)

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return (self[j] for j in range(self.n))

    def __eq__(self, other) -> bool:
        return list(self) == list(other)


def sub_model(instance: Instance, bounds: DerivedBounds, store: DomainStore,
              a1: int, a2: int | None = None,
              time_limit: float | None = None):
    """Place all jobs of ``a1`` (and ``a2``) minimising the start-time sum.

    Returns ``{act: starts}`` or None.  Each activity's jobs are joined by
    the arcs of ``_own_arcs``.  A single activity takes the least solution
    of its arcs, found by ``_least_starts`` without an Engine from the
    domains' least members and ``snap_ge``, which list no gaps.  A pair adds
    the mutual precedence arcs and the resource disjunctions of
    ``model._job_pairs`` over the domains' spans, and an Engine over the gap
    lists of both activities' domains searches it within ``time_limit`` and
    ``PAIR_NODE_LIMIT`` nodes.
    """
    if a2 is None:
        starts = _least_starts(store.domains(a1),
                               _own_arcs(instance.activities[a1], bounds))
        return None if starts is None else {a1: tuple(starts)}

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
    for act in acts:
        first = index[(act, 1)]
        for j, k, c in _own_arcs(instance.activities[act], bounds):
            engine.add_arc(first + j, first + k, c)

    x, y = instance.activities[a1], instance.activities[a2]
    for i, l in ((a1, a2), (a2, a1)):
        if instance.dag.has_edge(i, l):
            e_i = instance.activities[i].exec_time
            for j in range(1, bounds.jobs[i] + 1):
                engine.add_arc(index[(i, j)], index[(l, j)], e_i)
    if x.resource == y.resource:
        spans = [(dom.min(), dom.max()) for dom in doms]
        n1 = bounds.jobs[a1]
        for (i, j), (l, k), shift in _job_pairs(x, y, spans[:n1], spans[n1:],
                                                bounds.hyper_period):
            engine.add_disjunction(index[(i, j)], index[(l, k)],
                                   instance.activities[i].exec_time + shift,
                                   instance.activities[l].exec_time - shift)

    status, values, _stats = engine.minimize_sum(
        time_limit=time_limit, node_limit=PAIR_NODE_LIMIT)
    if status not in (OPTIMAL, INCUMBENT):
        return None
    result = {}
    for act in acts:
        n = bounds.jobs[act]
        result[act] = tuple(values[index[(act, j)]] for j in range(1, n + 1))
    return result


def _own_arcs(a: Activity, bounds: DerivedBounds) -> list[tuple[int, int, int]]:
    """``model._job_arcs`` of ``a``, with the jitter band kept by the width
    of the model's job windows."""
    lo, hi = _job_window(a, bounds, 1)
    return _job_arcs(a, bounds, hi - lo)


def _least_starts(doms: _JobDomains, arcs) -> list[int] | None:
    """The least starts over ``doms`` that satisfy ``arcs``, or None.

    The solutions of difference arcs over unary domains are closed under
    pointwise minimum, so a least one exists whenever any does (Dechter,
    Meiri and Pearl, "Temporal constraint networks", 1991).  Raising lower
    bounds from each domain's least member along the arcs, snapping into
    the domains, until none moves reaches it; a bound that snaps past its
    domain's top proves there is none.  Bounds only rise within finite
    domains, so the passes stop; no cycle of ``_job_arcs`` weighs more than
    0, so no bound creeps up a cycle tick by tick.
    """
    lb = list(doms.least)
    if None in lb:
        return None
    moved = True
    while moved:
        moved = False
        for j, k, c in arcs:
            need = lb[j] + c
            if need > lb[k]:
                need = doms.snap_ge(k, need)
                if need is None:
                    return None
                lb[k] = need
                moved = True
    return lb


def choose_unschedule(instance: Instance, bounds: DerivedBounds,
                      sched: dict, a_c: int, thresh: int):
    """Pick the victim activity per the three-step rule, or None."""
    acts = instance.activities
    res = acts[a_c].resource
    banned = instance.dag.pred_closure[a_c]
    cands = [x for x in sched if acts[x].resource == res and x not in banned]
    if not cands:
        return None
    sched_succs = {x: sum(1 for s in instance.dag.succ_closure[x] if s in sched)
                   for x in cands}
    slack = bounds.slack
    step1 = [x for x in cands if sched_succs[x] == 0 and acts[x].jitter >= thresh]
    if step1:
        return min(step1, key=lambda x: (-slack[x], x))
    step2 = [x for x in cands if acts[x].jitter >= thresh]
    if step2:
        return min(step2, key=lambda x: (sched_succs[x], -slack[x], x))
    return min(cands, key=lambda x: (-bounds.inherited_jitter[x], -slack[x], x))


def run_3ls(instance: Instance, bounds: DerivedBounds | None = None,
            time_limit: float | None = None):
    """Run the heuristic; returns (Schedule | None, HeuristicStats).

    ``time_limit`` bounds the whole run, pair searches included: a run past
    it ends with status ``timeout``.
    """
    t0 = time.monotonic()
    if bounds is None:
        bounds = derive_bounds(instance)
    stats = HeuristicStats()
    n = instance.n
    store = DomainStore(instance, bounds)

    key = {a.id: (min(bounds.slack[a.id], bounds.inherited_jitter[a.id]),
                  max(bounds.slack[a.id], bounds.inherited_jitter[a.id]),
                  a.id)
           for a in instance.activities}
    thresh = min(a.period for a in instance.activities)
    pred, succ = instance.dag.pred, instance.dag.succ
    pending = set(range(n))
    # per activity: how many of its predecessors are pending
    waiting = [len(pred[x]) for x in range(n)]
    # keys (each ending with its activity id) of activities that were ready
    # when pushed; stale ones are dropped when they reach the top
    ready = [key[x] for x in range(n) if not waiting[x]]
    heapify(ready)
    problematic: set[int] = set()
    scratch: set[int] = set()
    level3_sets: set[frozenset] = set()   # the activities of each level 3
    retry: int | None = None
    iteration_limit = ITERATION_LIMIT_FACTOR * n + 1000

    def fail(reason: str):
        stats.status = reason
        stats.wall = time.monotonic() - t0
        return None, stats

    def out_of_time() -> bool:
        return time_limit is not None and time.monotonic() - t0 > time_limit

    def remaining():
        """Seconds left for a pair search, or None without a time limit."""
        if time_limit is None:
            return None
        return max(0.0, time_limit - (time.monotonic() - t0))

    def next_ready():
        """The pending activity with no pending predecessor and least key."""
        while ready:
            x = ready[0][-1]
            if x in pending and not waiting[x]:
                return x
            heappop(ready)
        return None

    def do_insert(placements: dict):
        for act, starts in placements.items():
            store.insert(act, starts)
            pending.remove(act)
            for s in succ[act]:
                waiting[s] -= 1
                if not waiting[s] and s in pending:
                    heappush(ready, key[s])

    def release(acts):
        """Unschedule the scheduled ``acts`` and make them pending again."""
        store.remove(acts)
        pending.update(acts)
        for act in acts:
            for s in succ[act]:
                waiting[s] += 1
        for act in acts:
            if not waiting[act]:
                heappush(ready, key[act])

    def do_unschedule(act: int):
        victims = {act} | {s for s in instance.dag.succ_closure[act]
                           if s in store.sched}
        release(victims)
        stats.unschedules += 1

    iterations = 0
    while len(store.sched) < n:
        iterations += 1
        if iterations > iteration_limit:
            return fail("iteration_limit")
        if out_of_time():
            return fail("timeout")

        a_c = retry if retry is not None and retry in pending else next_ready()
        retry = None
        if a_c is None:
            return fail("no_ready_activity")

        placement = sub_model(instance, bounds, store, a_c)
        if placement is not None:
            do_insert(placement)
            stats.level1 += 1
            continue

        a_u = choose_unschedule(instance, bounds, store.sched, a_c, thresh)
        problematic.add(a_c)
        if a_u is not None:
            do_unschedule(a_u)
            if a_u not in problematic:
                retry = a_c   # try a_c again without a_u in the way
                continue

            # level 2: co-schedule the two problematic activities
            placement = sub_model(instance, bounds, store, a_c, a_u,
                                  remaining())
            if placement is not None:
                do_insert(placement)
                stats.level2 += 1
                continue
            if out_of_time():
                return fail("timeout")

        # level 3: almost from scratch, for a_c alone when no victim is left
        acts = (a_c,) if a_u is None else (a_c, a_u)
        if frozenset(acts) in level3_sets:
            return fail("level3_exhausted")
        level3_sets.add(frozenset(acts))
        stats.level3 += 1
        if stats.level3 > n * n:
            raise RuntimeError("level-3 invocation bound exceeded")
        keep = scratch.union(*(instance.dag.pred_closure[x] for x in acts))
        release([x for x in store.sched if x not in keep])
        placement = sub_model(instance, bounds, store, *acts,
                              time_limit=remaining())
        if placement is None:
            return fail("timeout" if out_of_time() else "fail")
        do_insert(placement)
        scratch = keep | set(acts)

    rows = [store.sched[i] for i in range(n)]
    zj = tuple(a.jitter == 0 for a in instance.activities)
    schedule = Schedule(tuple(tuple(r) for r in rows), zj)
    report = validate(instance, schedule)
    if not report.ok:
        raise RuntimeError(
            f"heuristic produced an invalid schedule: {report.violations[:3]}")
    stats.wall = time.monotonic() - t0
    return schedule, stats
