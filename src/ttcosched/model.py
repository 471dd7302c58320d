"""Problem representation and derived quantities.

Activities (tasks on cores, messages on crossbar input ports) are scheduled
non-preemptively with integer start times on a tick grid (default 1 us per
tick).  This module holds the immutable instance model plus everything that
can be derived from it before solving: hyper-period, job counts, precedence
window bounds, worst-case slack and inherited jitter.

It also states, once, the three rules the exact model (``solver``) and the
3-LS heuristic (``heuristic``) build their constraints from: a job's start
window (``_job_window``), the arcs among an activity's own jobs with the
jitter band (``_job_arcs``), and the job pairs of two same-resource
activities that need a resource disjunction (``_job_pairs``).  The
independent validator shares none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

TICK_MAX = 2**64 - 1

TASK = "task"
MESSAGE = "message"


class CycleError(ValueError):
    """The precedence relation contains a cycle."""


class ShapeError(ValueError):
    """A schedule does not match the instance's job structure."""


@dataclass(frozen=True)
class Activity:
    """One schedulable entity: a task or a message.

    Times are integer ticks.  ``resource`` indexes the platform resource the
    activity is mapped to (core for tasks, input port for messages).
    """

    id: int
    kind: str
    period: int
    exec_time: int
    jitter: int
    resource: int
    size: int | None = None
    sender: int | None = None
    receiver: int | None = None

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"activity {self.id}: period must be >= 1")
        if not 1 <= self.exec_time <= self.period:
            raise ValueError(
                f"activity {self.id}: exec_time must be in [1, period], "
                f"got e={self.exec_time}, p={self.period}"
            )
        if self.jitter < 0:
            raise ValueError(f"activity {self.id}: jitter must be >= 0")
        if self.kind not in (TASK, MESSAGE):
            raise ValueError(f"activity {self.id}: unknown kind {self.kind!r}")

    @property
    def utilization(self) -> Fraction:
        return Fraction(self.exec_time, self.period)


@dataclass(frozen=True)
class Platform:
    """m/2 homogeneous cores plus m/2 crossbar input ports.

    Resource indexing: cores are 0..cores-1, the input port of core c is
    cores + c.  ``mem_latency_us`` may be fractional (e.g. 50 cycles of a
    200 MHz crossbar = 0.25 us); message times are rounded up to whole ticks.
    """

    cores: int = 3
    core_freq_hz: int = 125_000_000
    mem_bandwidth: int = 400_000_000  # bytes/second
    mem_latency_us: float = 0.25
    granularity_us: int = 1

    def __post_init__(self):
        if self.cores < 1:
            raise ValueError("at least one core required")
        if self.mem_bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.granularity_us < 1:
            raise ValueError("granularity must be >= 1 us")

    @property
    def resources(self) -> int:
        return 2 * self.cores

    def port_of(self, core: int) -> int:
        return self.cores + core

    def is_core(self, resource: int) -> bool:
        return 0 <= resource < self.cores

    def is_port(self, resource: int) -> bool:
        return self.cores <= resource < self.resources


class PrecedenceDAG:
    """Adjacency over activity ids with cached transitive closures."""

    def __init__(self, n: int, edges=()):
        self.n = n
        self.edges = frozenset((int(i), int(l)) for i, l in edges)
        self.succ: list[list[int]] = [[] for _ in range(n)]
        self.pred: list[list[int]] = [[] for _ in range(n)]
        for i, l in sorted(self.edges):
            if not (0 <= i < n and 0 <= l < n):
                raise ValueError(f"edge ({i},{l}) out of range")
            if i == l:
                raise CycleError(f"self loop on activity {i}")
            self.succ[i].append(l)
            self.pred[l].append(i)
        self.topo_order = self._toposort()
        self.pred_closure = self._closure(self.pred)
        self.succ_closure = self._closure(self.succ)

    def _toposort(self) -> list[int]:
        indeg = [len(self.pred[v]) for v in range(self.n)]
        stack = sorted(v for v in range(self.n) if indeg[v] == 0)
        order = []
        ready = list(reversed(stack))
        while ready:
            v = ready.pop()
            order.append(v)
            for w in self.succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        if len(order) != self.n:
            raise CycleError("precedence relation is cyclic")
        return order

    def _closure(self, adj: list[list[int]]) -> list[frozenset[int]]:
        out: list[set[int]] = [set() for _ in range(self.n)]
        # reverse topological order when following pred edges, forward otherwise
        order = self.topo_order if adj is self.pred else reversed(self.topo_order)
        for v in order:
            acc: set[int] = set()
            for w in adj[v]:
                acc.add(w)
                acc |= out[w]
            out[v] = acc
        return [frozenset(s) for s in out]

    def has_edge(self, i: int, l: int) -> bool:
        return (i, l) in self.edges


@dataclass(frozen=True)
class Instance:
    """A complete scheduling problem: activities, platform, precedence, chains."""

    activities: tuple[Activity, ...]
    platform: Platform
    dag: PrecedenceDAG
    chains: tuple[tuple[int, ...], ...] = ()
    name: str = "instance"

    def __post_init__(self):
        n = len(self.activities)
        for idx, a in enumerate(self.activities):
            if a.id != idx:
                raise ValueError("activity ids must be dense 0..n-1 in order")
            if not 0 <= a.resource < self.platform.resources:
                raise ValueError(f"activity {a.id}: resource out of range")
            if a.kind == TASK and not self.platform.is_core(a.resource):
                raise ValueError(f"task {a.id} must map to a core")
            if a.kind == MESSAGE:
                if not self.platform.is_port(a.resource):
                    raise ValueError(f"message {a.id} must map to an input port")
                if not all(x is not None and 0 <= x < n and self.activities[x].kind == TASK
                           for x in (a.sender, a.receiver)):
                    raise ValueError(f"message {a.id}: sender and receiver must be tasks")
                if self.activities[a.sender].period != a.period:
                    raise ValueError(f"message {a.id}: period differs from sender")
        if self.dag.n != n:
            raise ValueError("DAG size does not match activity count")
        for i, l in self.dag.edges:
            if self.activities[i].period != self.activities[l].period:
                raise ValueError(f"edge ({i},{l}) joins different periods")
        for chain in self.chains:
            for a, b in zip(chain, chain[1:]):
                if not self.dag.has_edge(a, b):
                    raise ValueError(f"chain {chain} is not a path in the DAG")

    @property
    def n(self) -> int:
        return len(self.activities)

    def periods(self) -> list[int]:
        return [a.period for a in self.activities]

    def hyper_period(self) -> int:
        return hyper_period(self.periods())

    def with_activities(self, activities) -> "Instance":
        return replace(self, activities=tuple(activities))

    def with_jitter(self, jit_of) -> "Instance":
        """New instance with jitter bounds set by ``jit_of(activity) -> int``."""
        return self.with_activities(
            replace(a, jitter=int(jit_of(a))) for a in self.activities
        )


@dataclass(frozen=True)
class DerivedBounds:
    """Per-instance derived quantities used by both solvers."""

    hyper_period: int
    jobs: tuple[int, ...]            # n_i = H / p_i
    before: tuple[int, ...]          # refined by same-resource predecessor sums
    after: tuple[int, ...]
    slack: tuple[int, ...]           # p - (before + after + e); may be negative
    inherited_jitter: tuple[int, ...]

    @property
    def total_jobs(self) -> int:
        return sum(self.jobs)


def hyper_period(periods) -> int:
    """Least common multiple of all periods, guarded against 64-bit overflow."""
    acc = 1
    for p in periods:
        if p < 1:
            raise ValueError("periods must be >= 1")
        acc = math.lcm(acc, int(p))
        if acc > TICK_MAX:
            raise OverflowError("hyper-period exceeds the 64-bit tick range")
    return acc


def job_count(activity: Activity, hyper: int) -> int:
    if hyper % activity.period:
        raise ValueError("hyper-period not divisible by period")
    return hyper // activity.period


def message_exec_time(size: int, platform: Platform) -> int:
    """Ticks needed to write ``size`` bytes through the crossbar into memory.

    Evaluates size/bandwidth + latency exactly and rounds up to the timer
    granularity; never less than one tick.
    """
    if size < 0:
        raise ValueError("size must be >= 0")
    us = Fraction(size) * 1_000_000 / platform.mem_bandwidth + Fraction(
        platform.mem_latency_us
    )
    ticks = math.ceil(us / platform.granularity_us)
    return max(1, ticks)


def longest_path_bounds(instance: Instance) -> tuple[list[int], list[int]]:
    """Execution-time sums along the longest predecessor/successor chains."""
    dag = instance.dag
    e = [a.exec_time for a in instance.activities]
    before = [0] * instance.n
    after = [0] * instance.n
    for v in dag.topo_order:
        for w in dag.pred[v]:
            before[v] = max(before[v], before[w] + e[w])
    for v in reversed(dag.topo_order):
        for w in dag.succ[v]:
            after[v] = max(after[v], after[w] + e[w])
    return before, after


def chain_bounds(instance: Instance) -> tuple[list[int], list[int]]:
    """Mandatory execution before/after each activity.

    Longest-chain sums refined by the total execution time of same-resource
    predecessors (resp. successors), which must all fit in the same window.
    """
    path_b, path_a = longest_path_bounds(instance)
    dag = instance.dag
    acts = instance.activities
    before, after = [], []
    for a in acts:
        same_b = sum(acts[l].exec_time for l in dag.pred_closure[a.id]
                     if acts[l].resource == a.resource)
        same_a = sum(acts[l].exec_time for l in dag.succ_closure[a.id]
                     if acts[l].resource == a.resource)
        before.append(max(same_b, path_b[a.id]))
        after.append(max(same_a, path_a[a.id]))
    return before, after


def worst_case_slack(activity: Activity, before: int, after: int) -> int:
    """p - (t_before + t_after + e); negative values flag likely infeasibility."""
    return activity.period - (before + after + activity.exec_time)


def inherited_jitter(activity: Activity, dag: PrecedenceDAG, jitters) -> int:
    """Tightest jitter bound over the activity and its transitive successors.

    A loose activity feeding a jitter-critical successor must itself be placed
    carefully, so the successors' requirements propagate backwards.
    """
    best = activity.jitter
    for l in dag.succ_closure[activity.id]:
        if jitters[l] < best:
            best = jitters[l]
    return best


def derive_bounds(instance: Instance) -> DerivedBounds:
    acts = instance.activities
    hyper = instance.hyper_period()
    jobs = tuple(job_count(a, hyper) for a in acts)
    before, after = chain_bounds(instance)
    slack = tuple(worst_case_slack(a, before[a.id], after[a.id]) for a in acts)
    jitters = [a.jitter for a in acts]
    inherited = tuple(inherited_jitter(a, instance.dag, jitters) for a in acts)
    return DerivedBounds(
        hyper_period=hyper,
        jobs=jobs,
        before=tuple(before),
        after=tuple(after),
        slack=slack,
        inherited_jitter=inherited,
    )


def _job_window(a: Activity, bounds: DerivedBounds, job: int,
                improvements: bool = True) -> tuple[int, int]:
    """Start window ``[lo, hi]`` of job ``job`` (1-based) of ``a``.

    The job may start from the beginning of its own period until it ends
    by the end of the next one.  With ``improvements`` the window loses the
    execution that must run before and after ``a`` in the same period
    (``bounds.before/after``).
    """
    if improvements:
        tb, ta = bounds.before[a.id], bounds.after[a.id]
    else:
        tb = ta = 0
    return (job - 1) * a.period + tb, (job + 1) * a.period - a.exec_time - ta


def _job_arcs(a: Activity, bounds: DerivedBounds,
              width: int) -> list[tuple[int, int, int]]:
    """Arcs ``(j, k, c)``, meaning s_k >= s_j + c, between the jobs
    ``0..n-1`` of activity ``a``.

    They are the self arcs s_{j+1} >= s_j + e and their wrap
    s_0 + H >= s_{n-1} + e, and the jitter band
    p - jit <= s_{j+1} - s_j <= p + jit with its boundary pair between s_0
    and s_{n-1}.  The band is kept iff ``jit < width``, the width of the
    job windows: windows no wider than jit already keep every deviation
    from the period within jit, and ``width`` 0 gives the self arcs alone.
    A self arc and the jitter arc on the same jobs are one arc of the
    larger weight.  They come as a forward pass, the wrap and boundary
    arcs, then a backward pass.
    """
    n = bounds.jobs[a.id]
    if n < 2:
        return []
    e, p, jit, hyper = a.exec_time, a.period, a.jitter, bounds.hyper_period
    keep_jitter = jit < width
    step = max(e, p - jit) if keep_jitter else e
    arcs = [(j, j + 1, step) for j in range(n - 1)]
    arcs.append((n - 1, 0, step - hyper))
    if keep_jitter:
        arcs.append((0, n - 1, hyper - p - jit))
        arcs += [(j + 1, j, -(p + jit)) for j in range(n - 2, -1, -1)]
    return arcs


def _job_pairs(x: Activity, y: Activity, win_x, win_y, hyper: int,
               prune: bool = True) -> list[tuple]:
    """The job pairs of two activities on one resource that need a resource
    disjunction, as ``((act, j), (act, k), shift)``: job j of the first,
    started ``shift`` later, and job k of the second must not overlap.

    They are every job of ``x`` against every job of ``y`` (shift 0), row
    by row, then the hyper-period wrap: the first job of each, shifted by H,
    against the last job of the other.  ``win_x[j - 1]`` is the start
    window ``(lo, hi)`` of job j of ``x``.  With ``prune`` a pair whose
    windows keep the two jobs apart is left out: one side of its
    disjunction always holds.
    """
    ex, ey = x.exec_time, y.exec_time
    pairs = []
    for j, (lo1, hi1) in enumerate(win_x, 1):
        for k, (lo2, hi2) in enumerate(win_y, 1):
            if not prune or (lo1 < hi2 + ey and lo2 < hi1 + ex):
                pairs.append(((x.id, j), (y.id, k), 0))
    for (f, wf), (s, ws) in (((x, win_x), (y, win_y)), ((y, win_y), (x, win_x))):
        (lo1, hi1), (lo2, hi2) = wf[0], ws[-1]
        if not prune or (lo1 + hyper < hi2 + s.exec_time
                         and lo2 < hi1 + hyper + f.exec_time):
            pairs.append(((f.id, 1), (s.id, len(ws)), hyper))
    return pairs
