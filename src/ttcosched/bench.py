"""Experiment drivers: utilization sweeps and the published study protocols.

A sweep walks the per-resource utilization target up from 10% in 1% steps
and records the last point at which the chosen method still finds a schedule
(the stop-at-first-failure rule).  Every point counted as feasible carries a
schedule that passed the independent validator.

Feasibility witnesses are carried between related configurations: a schedule
valid under a tight jitter bound remains valid under a looser one, so sweeps
run tightest-first and revalidate cached witnesses before solving.  This
keeps reported maxima monotone across jitter relaxations by construction and
saves most of the solve time.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .generator import GenParams, ScaleError, ems_case_study, generate, scale_to_utilization
from .heuristic import run_3ls
from .model import Instance, derive_bounds
from .solver import FEASIBLE, INFEASIBLE, JC, TIMED_OUT, ZJ, solve_instance
from .validation import Schedule, schedule_memory_bytes, validate

EXACT = "exact"
HEURISTIC = "3ls"

# mode strings: "zj", "jc:p2", "jc:p5", "jc:p10", "jc:frac<percent>"
JITTER_SWEEP_MODES = ("zj", "jc:p10", "jc:p5", "jc:p2")
# the share of zero-jitter jobs, swept down in 5% steps
ZJ_FRACTION_MODES = tuple(f"jc:frac{p}" for p in range(100, -1, -5))


def jitter_for(policy: str, period: int) -> int:
    if policy.startswith("p") and policy[1:].isdigit():
        return period // int(policy[1:])
    raise ValueError(f"unknown jitter policy {policy!r}")


def apply_mode(instance: Instance, mode: str) -> Instance:
    """Instance with jitter bounds set for the given mode string."""
    if mode == ZJ:
        return instance.with_jitter(lambda a: 0)
    kind, _, policy = mode.partition(":")
    if kind != JC:
        raise ValueError(f"unknown mode {mode!r}")
    if policy.startswith("frac"):
        return apply_zj_fraction(instance, int(policy[4:]))
    return instance.with_jitter(lambda a: jitter_for(policy, a.period))


def apply_zj_fraction(instance: Instance, percent: int) -> Instance:
    """Force jit=0 on activities covering >= percent of all jobs.

    Activities are selected by descending job count; the rest get jitter
    period/5, as under ``jc:p5``.  This mirrors the memory-versus-utilization
    study where the share of zero-jitter jobs is swept in 5% steps.
    """
    hyper = instance.hyper_period()
    jobs = {a.id: hyper // a.period for a in instance.activities}
    total = sum(jobs.values())
    want = total * percent / 100.0
    chosen: set[int] = set()
    acc = 0
    for aid in sorted(jobs, key=lambda i: (-jobs[i], i)):
        if acc >= want:
            break
        chosen.add(aid)
        acc += jobs[aid]
    return instance.with_jitter(
        lambda a: 0 if a.id in chosen
        else jitter_for("p5", a.period))


@dataclass
class SweepLimits:
    time_limit: float = 60.0
    u_start: int = 10
    u_max: int = 100


@dataclass
class PointRecord:
    u: int
    status: str       # feasible / infeasible / timeout / scale-error
    source: str       # witness / search / heuristic / none
    wall: float


@dataclass
class SweepResult:
    instance_name: str
    method: str
    mode: str
    max_util: int                 # 0 when no point was feasible
    points: list[PointRecord] = field(default_factory=list)
    witnesses: dict[int, Schedule] = field(default_factory=dict)


def solve_point(instance: Instance, method: str, mode: str,
                time_limit: float | None):
    """(feasible, status, schedule, via_heuristic) for one scaled,
    mode-applied instance; ``via_heuristic`` says whether 3-LS decided it."""
    if method == EXACT:
        # a constructive schedule is a valid feasibility certificate and is
        # much cheaper than search at high utilization; verdicts other than
        # feasible always come from the complete search
        t0 = time.monotonic()
        seed_limit = None if time_limit is None else min(10.0, time_limit / 2)
        schedule, _stats = run_3ls(instance, time_limit=seed_limit)
        if schedule is not None and validate(instance, schedule).ok:
            return True, FEASIBLE, schedule, True
        remaining = None if time_limit is None else max(
            0.5, time_limit - (time.monotonic() - t0))
        solver_mode = ZJ if mode == ZJ else JC
        res = solve_instance(instance, mode=solver_mode, time_limit=remaining)
        return res.feasible, res.status, res.schedule, False
    if method == HEURISTIC:
        schedule, stats = run_3ls(instance, time_limit=time_limit)
        if schedule is None:
            status = TIMED_OUT if stats.status == "timeout" else INFEASIBLE
            return False, status, None, False
        return True, FEASIBLE, schedule, True
    raise ValueError(f"unknown method {method!r}")


def max_util_sweep(base: Instance, method: str, mode: str,
                   limits: SweepLimits | None = None,
                   witnesses: dict[int, Schedule] | None = None) -> SweepResult:
    """Ascending 1%-step sweep, stopping at the first non-feasible point.

    The mode is applied once: jitter bounds depend on the periods alone, and
    scaling changes only execution times.
    """
    limits = limits or SweepLimits()
    result = SweepResult(base.name, method, mode, max_util=0)
    moded = apply_mode(base, mode)
    u = limits.u_start
    while u <= limits.u_max:
        t0 = time.monotonic()
        try:
            scaled = scale_to_utilization(moded, u / 100.0)
        except ScaleError:
            result.points.append(PointRecord(u, "scale-error", "none",
                                             time.monotonic() - t0))
            break
        feasible, status, schedule, source = False, INFEASIBLE, None, "none"
        witness = (witnesses or {}).get(u)
        if witness is not None and validate(scaled, witness).ok:
            feasible, status, schedule, source = True, FEASIBLE, witness, "witness"
        else:
            feasible, status, schedule, via_heuristic = solve_point(
                scaled, method, mode, limits.time_limit)
            source = "heuristic" if via_heuristic else "search"
        result.points.append(PointRecord(u, status, source,
                                         time.monotonic() - t0))
        if not feasible:
            break
        result.max_util = u
        result.witnesses[u] = schedule
        u += 1
    return result


@dataclass
class ExperimentSpec:
    experiment: str                         # jitter-sweep | zj-fraction-sweep |
    sets: tuple[int, ...] = (1,)            # period-study | ems
    seeds: tuple[int, ...] = (0,)
    methods: tuple[str, ...] = (EXACT,)
    limits: SweepLimits = field(default_factory=SweepLimits)


PERIOD_VARIANTS = {
    "mono": {1: 10, 2: 10, 5: 10, 10: 10},
    "harmonic": {1: 1, 2: 5, 5: 5, 10: 10},
    "initial": {1: 1, 2: 2, 5: 5, 10: 10},
    "non-harmonic": {1: 2, 2: 5, 5: 7, 10: 12},
}


def rewrite_periods(instance: Instance, variant: str) -> Instance:
    """Map each period through the study's menu rewrite (values in ms)."""
    table = {1000 * a: 1000 * b for a, b in PERIOD_VARIANTS[variant].items()}
    acts = [replace(a, period=table[a.period]) for a in instance.activities]
    return instance.with_activities(acts)


def _mode_ladder(base: Instance, method: str, modes, limits):
    """Sweep related modes tightest-first, carrying witnesses upward."""
    witnesses: dict[int, Schedule] = {}
    out = []
    for mode in modes:
        res = max_util_sweep(base, method, mode, limits, witnesses)
        witnesses = dict(res.witnesses)
        out.append(res)
    return out


def sweep_rows(set_id, seed, sweeps):
    rows = []
    for res in sweeps:
        for pt in res.points:
            rows.append({
                "set": set_id, "seed": seed, "instance": res.instance_name,
                "method": res.method, "mode": res.mode, "u": pt.u,
                "status": pt.status, "source": pt.source,
                "wall_s": f"{pt.wall:.3f}", "max_util": res.max_util,
            })
    return rows


def run_experiment(spec: ExperimentSpec, outdir) -> dict[str, Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if spec.experiment == "ems":
        return _run_ems(spec, outdir)
    # (period variant or None, the modes swept tightest-first)
    if spec.experiment == "jitter-sweep":
        variants = [(None, JITTER_SWEEP_MODES)]
    elif spec.experiment == "zj-fraction-sweep":
        variants = [(None, ZJ_FRACTION_MODES)]
    elif spec.experiment == "period-study":
        variants = [(v, ("zj", "jc:p5")) for v in PERIOD_VARIANTS]
    else:
        raise ValueError(f"unknown experiment {spec.experiment!r}")

    rows: list[dict] = []
    for set_id in spec.sets:
        for seed in spec.seeds:
            base = generate(GenParams.from_set(set_id, seed))
            for variant, modes in variants:
                inst = base if variant is None else replace(
                    rewrite_periods(base, variant), name=f"{base.name}-{variant}")
                for method in spec.methods:
                    sweeps = _mode_ladder(inst, method, modes, spec.limits)
                    for row in sweep_rows(set_id, seed, sweeps):
                        if variant is not None:
                            row["variant"] = variant
                        rows.append(row)

    points_path = outdir / "points.csv"
    write_csv(points_path, rows)
    summary_path = outdir / "summary.csv"
    write_csv(summary_path, _summarise(rows))
    return {"points": points_path, "summary": summary_path}


def _run_ems(spec: ExperimentSpec, outdir: Path) -> dict[str, Path]:
    inst = ems_case_study(spec.seeds[0])
    inst_jc = apply_mode(inst, "jc:p5")
    bounds = derive_bounds(inst_jc)
    t0 = time.monotonic()
    schedule, stats = run_3ls(inst_jc, bounds,
                              time_limit=spec.limits.time_limit or None)
    wall = time.monotonic() - t0
    lines = [
        f"activities,{inst.n}",
        f"jobs,{bounds.total_jobs}",
        f"hyper_period_us,{bounds.hyper_period}",
        f"solved,{int(schedule is not None)}",
        f"wall_s,{wall:.1f}",
        f"heuristic_status,{stats.status}",
    ]
    if schedule is not None:
        lines.append(f"memory_bytes_jc,{schedule_memory_bytes(inst_jc, schedule)}")
    path = outdir / "ems.csv"
    path.write_text("\n".join(lines) + "\n")
    return {"ems": path}


def write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        path.write_text("")
        return
    fields = sorted({k for row in rows for k in row})
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _summarise(rows: list[dict]) -> list[dict]:
    # per group, the maximum of each sweep (every row of a sweep carries it)
    groups: dict[tuple, dict[tuple, int]] = {}
    for row in rows:
        key = (row["set"], row["method"], row["mode"], row.get("variant", ""))
        sweeps = groups.setdefault(key, {})
        sweeps.setdefault((row["seed"], row["instance"]), int(row["max_util"]))
    out = []
    for (set_id, method, mode, variant), sweeps in sorted(groups.items()):
        vals = list(sweeps.values())
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        out.append({
            "set": set_id, "method": method, "mode": mode, "variant": variant,
            "n": len(vals), "mean": f"{statistics.mean(vals):.2f}",
            "q1": f"{q[0]:.1f}", "median": f"{q[1]:.1f}", "q3": f"{q[2]:.1f}",
            "min": min(vals), "max": max(vals),
        })
    return out
