"""Reference start-time domains computed from occupied rows.

``row_domains`` computes what ``DomainStore.domains`` must return with no
incremental state: it rebuilds the sorted occupied rows of the resource from
``store.sched``, turns every row that reaches into a job window into a
forbidden start range, sorts the ranges and complements them within the
window.  The wrap jobs add the first- and last-job rows shifted by the
hyper-period.  ``fresh_blocks`` is the busy time of every resource merged
from scratch, which the store's incremental blocks must equal.
"""

from __future__ import annotations

from bisect import bisect_left

from ttcosched.intervals import IntervalSet


def _collect(forb, spans, lo, hi, e_self, shift, max_exec):
    """Append forbidden start ranges from occupied ``spans`` (shifted)."""
    if not spans:
        return
    # span (s, end) forbids starts in [s - e_self + 1, end - 1]; spans are
    # sorted by start and end - s <= max_exec, so begin just left of lo.
    k = bisect_left(spans, (lo - shift - max_exec, 0, 0))
    for s, end, _act in spans[k:]:
        s += shift
        end += shift
        if end - 1 < lo:
            continue
        if s - e_self + 1 > hi:
            break
        forb.append((s - e_self + 1, end - 1))


def _complement(lo, hi, forb):
    """Admissible set [lo, hi] minus the forbidden ranges, in one sweep."""
    out = []
    cur = lo
    forb.sort()
    for s, e in forb:
        if e < cur:
            continue
        if s > hi:
            break
        if s > cur:
            out.append((cur, s - 1))
        if e + 1 > cur:
            cur = e + 1
        if cur > hi:
            break
    if cur <= hi:
        out.append((cur, hi))
    return IntervalSet(out)


def row_domains(store, act: int) -> list[IntervalSet]:
    """The domain of every job of ``act`` from the store's scheduled set."""
    inst, sched = store.instance, store.sched
    a = inst.activities[act]
    n = store.bounds.jobs[act]
    hyper = store.bounds.hyper_period
    same = [x for x in sched if inst.activities[x].resource == a.resource]
    exec_of = {x: inst.activities[x].exec_time for x in same}
    occ = sorted((s, s + exec_of[x], x) for x in same for s in sched[x])
    firsts = sorted((sched[x][0], sched[x][0] + exec_of[x], x) for x in same)
    lasts = sorted((sched[x][-1], sched[x][-1] + exec_of[x], x) for x in same)
    max_exec = max((b.exec_time for b in inst.activities
                    if b.resource == a.resource), default=1)
    preds = [w for w in inst.dag.pred[act] if w in sched]
    out = []
    for j in range(1, n + 1):
        lo, hi = store.window(act, j)
        for w in preds:
            lo = max(lo, sched[w][j - 1] + inst.activities[w].exec_time)
        forb: list[tuple[int, int]] = []
        _collect(forb, occ, lo, hi, a.exec_time, 0, max_exec)
        if j == 1:
            _collect(forb, lasts, lo, hi, a.exec_time, -hyper, max_exec)
        if j == n:
            _collect(forb, firsts, lo, hi, a.exec_time, hyper, max_exec)
        out.append(_complement(lo, hi, forb))
    return out


def fresh_blocks(store) -> dict[int, list[tuple[int, int]]]:
    """Busy time per resource as merged ``[start, end)`` blocks."""
    inst = store.instance
    rows: dict[int, list[tuple[int, int]]] = {
        r: [] for r in range(inst.platform.resources)}
    for x, starts in store.sched.items():
        a = inst.activities[x]
        rows[a.resource].extend((s, s + a.exec_time) for s in starts)
    blocks = {}
    for r, spans in rows.items():
        merged: list[tuple[int, int]] = []
        for s, t in sorted(spans):
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(t, merged[-1][1]))
            else:
                merged.append((s, t))
        blocks[r] = merged
    return blocks
