"""Independent schedule checker and metrics.

This is the oracle everything else is measured against: it re-derives every
constraint directly from the instance (two-period windows, resource exclusivity
including the first/last-period wrap pairs, self precedence, DAG precedence,
relative jitter with the hyper-period boundary) and shares no code with the
solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .model import Instance, ShapeError

WINDOW = "Window"
RESOURCE_OVERLAP = "ResourceOverlap"
SELF_ORDER = "SelfOrder"
DAG_ORDER = "DagOrder"
JITTER = "Jitter"


@dataclass(frozen=True)
class Schedule:
    """Start times per activity and per job (job index 0-based internally).

    ``zj`` records the storage form: True means the activity is stored as a
    single offset (zero-jitter), which drives the memory accounting.
    """

    starts: tuple[tuple[int, ...], ...]
    zj: tuple[bool, ...]

    @classmethod
    def from_lists(cls, starts, zj=None) -> "Schedule":
        starts_t = tuple(tuple(int(s) for s in row) for row in starts)
        if zj is None:
            zj = tuple(False for _ in starts_t)
        return cls(starts_t, tuple(bool(z) for z in zj))

    @classmethod
    def from_offsets(cls, instance: Instance, offsets) -> "Schedule":
        """Expand one offset per activity into the full zero-jitter schedule."""
        hyper = instance.hyper_period()
        rows = []
        for a, off in zip(instance.activities, offsets):
            n = hyper // a.period
            rows.append(tuple(off + j * a.period for j in range(n)))
        return cls(tuple(rows), tuple(True for _ in rows))


@dataclass(frozen=True)
class Violation:
    kind: str
    activity: int
    job: int
    detail: str


@dataclass
class ValidationReport:
    ok: bool
    violations: list[Violation]
    utilization: list[float]
    observed_jitter: list[int]
    memory_bytes: int
    chain_latency: list[int] = field(default_factory=list)

    def count(self, kind: str) -> int:
        return sum(1 for v in self.violations if v.kind == kind)


def _check_shape(instance: Instance, schedule: Schedule):
    hyper = instance.hyper_period()
    if len(schedule.starts) != instance.n or len(schedule.zj) != instance.n:
        raise ShapeError("schedule activity count mismatch")
    for a in instance.activities:
        if len(schedule.starts[a.id]) != hyper // a.period:
            raise ShapeError(f"activity {a.id}: wrong job count")
    return hyper


def is_zero_jitter(instance: Instance, schedule: Schedule) -> list[bool]:
    """True per activity iff consecutive starts differ by exactly the period."""
    _check_shape(instance, schedule)
    out = []
    for a in instance.activities:
        row = schedule.starts[a.id]
        out.append(all(b - x == a.period for x, b in zip(row, row[1:])))
    return out


def utilization(instance: Instance) -> list[float]:
    """Sum of e/p per resource."""
    acc = [Fraction(0)] * instance.platform.resources
    for a in instance.activities:
        acc[a.resource] += a.utilization
    return [float(u) for u in acc]


def schedule_memory_bytes(instance: Instance, schedule: Schedule) -> int:
    """8 bytes per stored entry: one offset for ZJ activities, n_i otherwise."""
    _check_shape(instance, schedule)
    entries = 0
    for a in instance.activities:
        entries += 1 if schedule.zj[a.id] else len(schedule.starts[a.id])
    return 8 * entries


def chain_latencies(instance: Instance, schedule: Schedule) -> list[int]:
    """Max over periods of (finish of last chain activity) - (period start)."""
    out = []
    for chain in instance.chains:
        if not chain:
            out.append(0)
            continue
        first, last = chain[0], chain[-1]
        p = instance.activities[first].period
        e_last = instance.activities[last].exec_time
        worst = 0
        for j, s in enumerate(schedule.starts[last]):
            worst = max(worst, s + e_last - j * p)
        out.append(worst)
    return out


def validate(instance: Instance, schedule: Schedule) -> ValidationReport:
    """Check a schedule against every model constraint and compute metrics."""
    hyper = _check_shape(instance, schedule)
    acts = instance.activities
    violations: list[Violation] = []

    # (a) release/deadline window: (j-1)p <= s <= (j+1)p - e, job j 1-based.
    for a in acts:
        for j0, s in enumerate(schedule.starts[a.id]):
            lo = j0 * a.period
            hi = (j0 + 2) * a.period - a.exec_time
            if not lo <= s <= hi:
                violations.append(Violation(
                    WINDOW, a.id, j0 + 1,
                    f"start {s} outside [{lo}, {hi}]"))

    # (b) resource exclusivity, half-open occupancy [s, s+e).
    for res in range(instance.platform.resources):
        jobs = []
        for a in acts:
            if a.resource != res:
                continue
            for j0, s in enumerate(schedule.starts[a.id]):
                jobs.append((s, s + a.exec_time, a.id, j0 + 1))
        jobs.sort()
        run_end, run_owner = None, None
        for s, end, aid, j in jobs:
            if run_end is not None and s < run_end:
                violations.append(Violation(
                    RESOURCE_OVERLAP, aid, j,
                    f"overlaps activity {run_owner[0]} job {run_owner[1]} "
                    f"on resource {res}"))
            if run_end is None or end > run_end:
                run_end, run_owner = end, (aid, j)
        # wrap pairs: first-period job shifted +H against last-period jobs.
        lasts = []
        for a in acts:
            if a.resource != res:
                continue
            s_last = schedule.starts[a.id][-1]
            lasts.append((s_last, s_last + a.exec_time, a.id))
        lasts.sort()
        for a in acts:
            if a.resource != res:
                continue
            s1 = schedule.starts[a.id][0] + hyper
            e1 = s1 + a.exec_time
            for ls, lend, lid in lasts:
                if lid == a.id or lend <= s1:
                    continue
                if ls >= e1:
                    break
                violations.append(Violation(
                    RESOURCE_OVERLAP, a.id, 1,
                    f"first job (+H) overlaps activity {lid} last job "
                    f"on resource {res}"))

    # (c) self-precedence including the hyper-period wrap.
    for a in acts:
        row = schedule.starts[a.id]
        for j0 in range(len(row) - 1):
            if row[j0] + a.exec_time > row[j0 + 1]:
                violations.append(Violation(
                    SELF_ORDER, a.id, j0 + 1,
                    f"job finish {row[j0] + a.exec_time} > next start {row[j0 + 1]}"))
        if row[-1] + a.exec_time > row[0] + hyper:
            violations.append(Violation(
                SELF_ORDER, a.id, len(row),
                "last job runs into the first job of the next hyper-period"))

    # (d) DAG precedence, per period.
    for i, l in sorted(instance.dag.edges):
        e_i = acts[i].exec_time
        for j0, (si, sl) in enumerate(zip(schedule.starts[i], schedule.starts[l])):
            if si + e_i > sl:
                violations.append(Violation(
                    DAG_ORDER, l, j0 + 1,
                    f"starts at {sl} before predecessor {i} finishes at {si + e_i}"))

    # (e) relative jitter, consecutive periods plus the boundary pair.
    observed = []
    for a in acts:
        row = schedule.starts[a.id]
        worst = 0
        for j0 in range(1, len(row)):
            dev = abs(row[j0] - (row[j0 - 1] + a.period))
            worst = max(worst, dev)
            if dev > a.jitter:
                violations.append(Violation(
                    JITTER, a.id, j0 + 1,
                    f"relative jitter {dev} > bound {a.jitter}"))
        dev = abs(row[0] + hyper - a.period - row[-1])
        worst = max(worst, dev)
        if dev > a.jitter:
            violations.append(Violation(
                JITTER, a.id, 1,
                f"boundary jitter {dev} > bound {a.jitter}"))
        observed.append(worst)

    return ValidationReport(
        ok=not violations,
        violations=violations,
        utilization=utilization(instance),
        observed_jitter=observed,
        memory_bytes=schedule_memory_bytes(instance, schedule),
        chain_latency=chain_latencies(instance, schedule),
    )
