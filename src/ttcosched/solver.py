"""Complete feasibility solver for the job-start constraint system.

Builds the constraint model over integer job start times in either mode:

* ``jc`` - one variable per job, relative jitter bounded per activity;
* ``zj`` - one variable per activity, later jobs pinned at offset multiples.

With ``improvements`` enabled the build (a) tightens variable bounds by the
precedence-derived before/after sums, (b) drops resource pairs whose
occupancy windows cannot overlap, (c) restricts zero-jitter pairs to the lcm
of the two periods, and (d) keeps explicit jitter constraints only for
jitter-critical activities.  None of these changes the set of feasible
schedules, so verdicts match the plain model.

The job windows, the resource pairs and the arcs among an activity's own
jobs come from the rules in ``model`` that 3-LS uses too.  The jitter rule
lives in ``model._job_arcs``: the native search keeps the jitter band of
every activity whose job windows are wider than its jitter, also when
improvement (d) left the activity out of ``jitter_kept``, because the
dropped rows are only redundant within one-period windows while the
variables range over two periods.  This keeps every returned schedule
consistent with the independent validator.  The exports still write
jitter rows for ``jitter_kept`` only, so the model they carry can be looser
than the one the native search solves.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .intervals import IntervalSet
from .model import (DerivedBounds, Instance, _job_arcs, _job_pairs, _job_window,
                    derive_bounds)
from .search import SAT, UNSAT, Engine, SearchStats
from .validation import Schedule, validate

ZJ = "zj"
JC = "jc"

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
TIMED_OUT = "timeout"


class ModelInfeasible(ValueError):
    """A variable window is already empty at build time."""


@dataclass(frozen=True)
class JobVar:
    act: int
    job: int          # 1-based period index; ZJ mode always 1
    lb: int
    ub: int

    @property
    def width(self) -> int:
        return self.ub - self.lb


@dataclass(frozen=True)
class OrderingPair:
    """One resource disjunction: (u + a <= v) or (v + b <= u) over var indices."""

    u: int
    v: int
    a: int
    b: int
    wrap: bool
    jobs: tuple[tuple[int, int], tuple[int, int]]  # ((i, j), (l, k))


@dataclass
class BuiltModel:
    instance: Instance
    bounds: DerivedBounds
    mode: str
    improvements: bool
    job_vars: list[JobVar]
    var_of: dict[tuple[int, int], int]
    pairs: list[OrderingPair]
    prec_arcs: list[tuple[int, int, int, str]]  # (u, v, c, kind)
    jitter_kept: list[int]       # activities whose jitter rows stay in the model

    def var_expr(self, act: int, job: int) -> tuple[int, int]:
        """(variable index, constant offset) for the start of job ``job``."""
        if self.mode == ZJ:
            p = self.instance.activities[act].period
            return self.var_of[(act, 1)], (job - 1) * p
        return self.var_of[(act, job)], 0


@dataclass
class SolveResult:
    status: str
    schedule: Schedule | None
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def build_model(instance: Instance, bounds: DerivedBounds | None = None,
                mode: str = JC, improvements: bool = True) -> BuiltModel:
    if mode not in (ZJ, JC):
        raise ValueError(f"unknown mode {mode!r}")
    if bounds is None:
        bounds = derive_bounds(instance)
    acts = instance.activities
    model = BuiltModel(instance=instance, bounds=bounds, mode=mode,
                       improvements=improvements, job_vars=[], var_of={},
                       pairs=[], prec_arcs=[], jitter_kept=[])
    job_vars, var_of = model.job_vars, model.var_of

    windows = [[_job_window(a, bounds, j, improvements)
                for j in range(1, bounds.jobs[a.id] + 1)] for a in acts]
    for a in acts:
        for j, (lb, ub) in enumerate(windows[a.id][:1] if mode == ZJ
                                     else windows[a.id], start=1):
            if lb > ub:
                raise ModelInfeasible(
                    f"activity {a.id} job {j}: window [{lb}, {ub}] is empty")
            var_of[(a.id, j)] = len(job_vars)
            job_vars.append(JobVar(a.id, j, lb, ub))

    exprs = [[model.var_expr(a.id, j) for j in range(1, bounds.jobs[a.id] + 1)]
             for a in acts]
    for res in range(instance.platform.resources):
        group = [a for a in acts if a.resource == res]
        for x, a in enumerate(group):
            for b in group[x + 1:]:
                # zero-jitter constraints repeat every lcm of the two periods:
                # jobs at the same relative offset share one constraint on
                # the two offset variables, so the grid keeps one per offset
                seen: set[int] = set()
                for (i, j), (l, k), shift in _job_pairs(
                        a, b, windows[a.id], windows[b.id],
                        bounds.hyper_period, prune=improvements):
                    (u, ou), (v, ov) = exprs[i][j - 1], exprs[l][k - 1]
                    if mode == ZJ and not shift:
                        if ou - ov in seen:
                            continue
                        seen.add(ou - ov)
                    model.pairs.append(OrderingPair(
                        u=u, v=v,
                        a=acts[i].exec_time + ou + shift - ov,
                        b=acts[l].exec_time + ov - ou - shift,
                        wrap=bool(shift),
                        jobs=((i, j), (l, k))))

    prec_arcs = model.prec_arcs
    for i, l in sorted(instance.dag.edges):
        e_i = acts[i].exec_time
        if mode == ZJ:
            prec_arcs.append((var_of[(i, 1)], var_of[(l, 1)], e_i, "dag"))
        else:
            for j in range(1, bounds.jobs[i] + 1):
                prec_arcs.append((var_of[(i, j)], var_of[(l, j)], e_i, "dag"))
    if mode == JC:
        for a in acts:
            first = var_of[(a.id, 1)]
            prec_arcs += [(first + j, first + k, c, "self" if k > j else "self_wrap")
                          for j, k, c in _job_arcs(a, bounds, 0)]
            if bounds.jobs[a.id] >= 2 and (
                    not improvements or bounds.jitter_critical[a.id]):
                model.jitter_kept.append(a.id)
    return model


def _decode(model: BuiltModel, assignment: list[int]) -> Schedule:
    inst = model.instance
    rows = []
    for a in inst.activities:
        exprs = (model.var_expr(a.id, j)
                 for j in range(1, model.bounds.jobs[a.id] + 1))
        rows.append(tuple(assignment[v] + off for v, off in exprs))
    zj = tuple(model.mode == ZJ or a.jitter == 0 for a in inst.activities)
    return Schedule(tuple(rows), zj)


def _pair_sort_key(model: BuiltModel):
    vars_ = model.job_vars
    acts = model.instance.activities

    def key(pair: OrderingPair):
        wu, wv = vars_[pair.u].width, vars_[pair.v].width
        (i, j), (l, k) = pair.jobs
        return (min(wu, wv), min(acts[i].period, acts[l].period),
                pair.wrap, i, j, l, k)

    return key


def _make_engine(model: BuiltModel, pairs) -> Engine:
    engine = Engine([IntervalSet.span(v.lb, v.ub) for v in model.job_vars])
    for u, v, c, kind in model.prec_arcs:
        if kind == "dag":
            engine.add_arc(u, v, c)
    if model.mode == JC:
        for a in model.instance.activities:
            first = model.var_of[(a.id, 1)]
            width = model.job_vars[first].width
            for j, k, c in _job_arcs(a, model.bounds, width):
                engine.add_arc(first + j, first + k, c)
    for pair in pairs:
        engine.add_disjunction(pair.u, pair.v, pair.a, pair.b)
    return engine


def solve(model: BuiltModel, time_limit: float | None = None) -> SolveResult:
    """Depth-first search over ordering decisions with bounds propagation.

    Chronological search can get stuck behind one early misordering, so the
    node budget doubles across deterministic restarts that rotate which
    disjunctions are branched first.  Restarts never change the constraint
    set: SAT and UNSAT answers stay exact, and the wall limit caps the total.
    """
    pairs = sorted(model.pairs, key=_pair_sort_key(model))
    deadline = None if time_limit is None else time.monotonic() + time_limit
    rotations = random.Random(0x7734).sample(range(max(1, len(pairs))),
                                             k=min(64, max(1, len(pairs))))
    total = SearchStats()
    budget = 2048
    attempt = 0
    while True:
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            return SolveResult(TIMED_OUT, None, total)
        rot = 0 if attempt == 0 else rotations[attempt % len(rotations)]
        engine = _make_engine(model, pairs[rot:] + pairs[:rot])
        status, assignment, stats = engine.solve_feasible_limited(
            remaining, budget)
        total.nodes += stats.nodes
        total.propagations += stats.propagations
        total.wall += stats.wall
        if status == SAT:
            schedule = _decode(model, assignment)
            report = validate(model.instance, schedule)
            if not report.ok:
                raise RuntimeError(
                    f"solver produced an invalid schedule: {report.violations[:3]}")
            return SolveResult(FEASIBLE, schedule, total)
        if status == UNSAT:
            return SolveResult(INFEASIBLE, None, total)
        attempt += 1
        budget *= 2


def solve_instance(instance: Instance, mode: str = JC, improvements: bool = True,
                   time_limit: float | None = None,
                   bounds: DerivedBounds | None = None) -> SolveResult:
    """Build + solve, mapping an empty window straight to infeasible."""
    try:
        model = build_model(instance, bounds, mode, improvements)
    except ModelInfeasible:
        return SolveResult(INFEASIBLE, None)
    return solve(model, time_limit)
