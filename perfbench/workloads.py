"""The workloads: set-up, timed passes, output checks and fingerprint.

Each workload calls the program through module attributes looked up at call
time (``bench.max_util_sweep``, ``solver.solve_instance``), so the tracer's wrappers see the calls when it is
active.  Checks run after the timed passes and outside the tracer.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

from ttcosched import bench, generator, heuristic, solver
from ttcosched.generator import GenParams
from ttcosched.validation import validate

import protocol

clock = time.perf_counter


class Checks:
    """Counts checks made on the program's outputs and keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


@dataclass
class Measurement:
    """The end-to-end figures of a workload, and what the checks need.

    Every pass does the same deterministic work, so each point's time is its
    fastest over the passes: load from other programs only ever adds time.
    """

    point_times: list[float]   # each timed point's fastest seconds
    median_times: list[float]  # the times the median ranks
    tail_beyond: int           # samples the tail leaves above it
    decided: int
    pass_walls: list[float]
    peak_rss_mb: float         # through set-up and the first pass
    payload: list              # one entry per pass
    retimed: list = field(default_factory=list)   # single points run again

    @property
    def wall_s(self) -> float:
        """Time of the fixed work: the sum of the point times."""
        return sum(self.point_times)


def fastest(per_pass: list[list[float]]) -> list[float]:
    """Each point's fastest time over the passes."""
    return [min(samples) for samples in zip(*per_pass)]


def tail(values: list[float], beyond: int = protocol.TAIL_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile that still has
    ``beyond`` samples above it; the minimum when there are too few."""
    ordered = sorted(values)
    k = max(0, len(ordered) - beyond - 1)
    return ordered[k], 100.0 * k / max(1, len(ordered) - 1), len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class _Pass:
    wall_s: float
    result: object


def repeat(seconds: float, run_once) -> tuple[list, float]:
    """Run ``run_once`` once, then again while another run still fits in
    ``seconds``; every result has a ``wall_s``.  Returns the runs and the
    peak memory after the first."""
    start = clock()
    runs = [run_once()]
    rss = peak_rss_mb()
    while clock() - start + runs[-1].wall_s <= seconds:
        runs.append(run_once())
    return runs, rss


@contextlib.contextmanager
def recording(module, attr: str):
    """Keep every return value of ``module.attr`` while the block runs."""
    original = getattr(module, attr)
    log: list = []

    def probe(*args, **kwargs):
        out = original(*args, **kwargs)
        log.append(out)
        return out

    setattr(module, attr, probe)
    try:
        yield log
    finally:
        setattr(module, attr, original)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _error(exc: Exception) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _bases(pairs) -> dict:
    return {(s, seed): generator.generate(GenParams.from_set(s, seed))
            for s, seed in dict.fromkeys(pairs)}


def _label(s: int, seed: int, mode: str) -> str:
    return f"set{s}-seed{seed}/{mode}"


class SweepWorkload:
    """3-LS max-utilisation sweeps, the paper's protocol, no witness carry."""

    name = "sweep-3ls"

    def __init__(self, seeds, sets=protocol.SETS):
        self.items = [(s, seed, mode) for s in sets for seed in seeds
                      for mode in protocol.MODES]

    def setup(self):
        return _bases((s, seed) for s, seed, _mode in self.items)

    def _pass(self, bases, order):
        sweeps = {}
        t0 = clock()
        for s, seed, mode in order:
            with recording(bench, "run_3ls") as log:
                try:
                    res = bench.max_util_sweep(bases[(s, seed)], "3ls", mode)
                except Exception as exc:  # a failed sweep is counted, not fatal
                    res = exc
            sweeps[(s, seed, mode)] = (res, [out[1] for out in log])
        return _Pass(clock() - t0, sweeps)

    def _point(self, base, mode: str, u: int):
        """One sweep point again, as ``max_util_sweep`` runs it."""
        t0 = clock()
        try:
            inst = bench.apply_mode(generator.scale_to_utilization(base, u / 100.0), mode)
            out = bench.solve_point(inst, "3ls", mode, bench.SweepLimits().time_limit)
        except Exception as exc:  # a failed point is counted, not fatal
            out = exc
        return out, clock() - t0

    def measure(self, bases, order, seconds) -> Measurement:
        """Whole passes while they fit; then the slowest points, on which the
        tail rests, again while time is left.  Each point's time is its
        fastest run."""
        start = clock()
        runs, rss = repeat(seconds, lambda: self._pass(bases, order))
        points = [(key, pt) for key, (res, _) in runs[0].result.items()
                  if not isinstance(res, Exception) for pt in res.points]
        times = fastest([[pt.wall for res, _ in run.result.values()
                          if not isinstance(res, Exception) for pt in res.points]
                         for run in runs])
        slow = sorted(range(len(times)), key=times.__getitem__)[-protocol.TAIL_RETIMED:]
        retimed = []
        estimate = sum(times[i] for i in slow)
        while slow and clock() - start + estimate <= seconds:
            t0 = clock()
            for i in slow:
                (s, seed, mode), pt = points[i]
                out, wall = self._point(bases[(s, seed)], mode, pt.u)
                times[i] = min(times[i], wall)
                retimed.append((s, seed, mode, pt, out))
            estimate = clock() - t0
        first = runs[0].result.values()
        return Measurement(
            point_times=times,
            median_times=times,
            tail_beyond=protocol.TAIL_BEYOND,
            decided=sum(pt.status in (solver.FEASIBLE, solver.INFEASIBLE)
                        for res, _ in first if not isinstance(res, Exception)
                        for pt in res.points),
            pass_walls=[run.wall_s for run in runs],
            peak_rss_mb=rss,
            payload=[run.result for run in runs],
            retimed=retimed)

    def check(self, bases, m: Measurement, checks: Checks) -> None:
        for s, seed, mode, pt, out in m.retimed:
            label = f"{_label(s, seed, mode)} at {pt.u}%, run again"
            if isinstance(out, Exception):
                checks.record(False, f"{label}: {_error(out)}")
                continue
            feasible, status, schedule, _via = out
            checks.record(status == pt.status, f"{label}: status {status}, was {pt.status}")
            if feasible:
                inst = bench.apply_mode(generator.scale_to_utilization(
                    bases[(s, seed)], pt.u / 100.0), mode)
                checks.record(validate(inst, schedule).ok,
                              f"{label}: schedule fails validation")
        for sweeps in m.payload:
            for (s, seed, mode), (res, _stats) in sweeps.items():
                label = _label(s, seed, mode)
                if isinstance(res, Exception):
                    checks.record(False, f"{label}: {_error(res)}")
                    continue
                for pt in res.points:
                    if pt.status != solver.FEASIBLE:
                        checks.record(pt.status == solver.INFEASIBLE and pt is res.points[-1],
                                      f"{label} at {pt.u}%: status {pt.status}")
                        continue
                    inst = bench.apply_mode(generator.scale_to_utilization(
                        bases[(s, seed)], pt.u / 100.0), mode)
                    checks.record(validate(inst, res.witnesses[pt.u]).ok,
                                  f"{label} at {pt.u}%: schedule fails validation")

    def fingerprint(self, state, m: Measurement) -> dict:
        fp = {}
        for (s, seed, mode), (res, stats) in sorted(m.payload[0].items()):
            if isinstance(res, Exception):
                continue
            fp[_label(s, seed, mode)] = {
                "max_util": res.max_util,
                "points": len(res.points),
                "level1": sum(st.level1 for st in stats),
                "level2": sum(st.level2 for st in stats),
                "level3": sum(st.level3 for st in stats),
                "unschedules": sum(st.unschedules for st in stats),
                "end": stats[-1].status if stats else None,
                "schedule": _digest(res.witnesses.get(res.max_util)),
            }
        return fp

    @staticmethod
    def figures(fp: dict) -> dict:
        """Mean maximum utilisation, and the (set, seed) pairs where the
        looser jc:p5 mode reaches less than zj (the relaxation order)."""
        maxima = {label: entry["max_util"] for label, entry in fp.items()}
        pairs = {label.split("/")[0] for label in maxima}
        violations = sorted(p for p in pairs
                            if f"{p}/zj" in maxima and f"{p}/jc:p5" in maxima
                            and maxima[f"{p}/jc:p5"] < maxima[f"{p}/zj"])
        return {
            "max_util_mean_pct": statistics.mean(maxima.values()) if maxima else None,
            "monotone_violations": len(violations),
            "monotone_violation_pairs": violations,
        }


@dataclass(frozen=True)
class ExactPoint:
    set: int
    seed: int
    mode: str
    u: int
    fixed: bool   # a fixed utilisation, not a frontier point

    @property
    def label(self) -> str:
        return f"{_label(self.set, self.seed, self.mode)}@{self.u}"


class ExactWorkload:
    """The exact model at fixed utilisations and at the frozen 3-LS frontier."""

    name = "exact-points"

    def __init__(self, seeds, sets=protocol.EXACT_SETS, cap=protocol.EXACT_CAP_S):
        self.cap = cap
        self.items = []
        for s in sets:
            for seed in seeds:
                for mode, frontier in zip(protocol.MODES, protocol.FRONTIER[(s, seed)]):
                    self.items += [ExactPoint(s, seed, mode, u, True)
                                   for u in protocol.EXACT_UTILS]
                    self.items.append(ExactPoint(s, seed, mode, frontier, False))

    def setup(self):
        bases = _bases((pt.set, pt.seed) for pt in self.items)
        return {pt: bench.apply_mode(generator.scale_to_utilization(
                    bases[(pt.set, pt.seed)], pt.u / 100.0), pt.mode)
                for pt in self.items}

    def _solve(self, inst, pt: ExactPoint):
        t0 = clock()
        try:
            res = solver.solve_instance(inst, mode=_solver_mode(pt.mode),
                                        time_limit=self.cap)
        except Exception as exc:  # a failed point is counted, not fatal
            res = exc
        return res, clock() - t0

    def _verdict_time(self, res, wall: float) -> float:
        """A timed-out point counts at the cap."""
        return wall if _decided(res) else self.cap

    def measure(self, insts, order, seconds) -> Measurement:
        """All points once; then the decided points again while time is left,
        taking each point's fastest run.  Timed-out points would only repeat
        the cap, so the timed points are the decided ones, and the tail is
        their maximum.  The median is the verdict time of the fixed points."""
        start = clock()
        runs = {pt: [self._solve(insts[pt], pt)] for pt in order}
        rss = peak_rss_mb()
        pass_walls = [clock() - start]
        decided = [pt for pt in order if _decided(runs[pt][0][0])]
        estimate = sum(runs[pt][0][1] for pt in decided)
        while decided and clock() - start + estimate <= seconds:
            t0 = clock()
            for pt in decided:
                runs[pt].append(self._solve(insts[pt], pt))
            estimate = clock() - t0
            pass_walls.append(estimate)
        return Measurement(
            point_times=[min(w for _r, w in runs[pt]) for pt in decided],
            median_times=[min(self._verdict_time(r, w) for r, w in runs[pt])
                          for pt in order if pt.fixed],
            tail_beyond=0,
            decided=len(decided),
            pass_walls=pass_walls,
            peak_rss_mb=rss,
            payload=[runs])

    def check(self, insts, m: Measurement, checks: Checks) -> None:
        checks.record(m.decided > 0, "no exact point decided within the cap")
        for pt, runs in m.payload[0].items():
            verdicts = set()
            for res, _wall in runs:
                if isinstance(res, Exception):
                    checks.record(False, f"{pt.label}: {_error(res)}")
                    continue
                if res.status == solver.FEASIBLE:
                    checks.record(validate(insts[pt], res.schedule).ok,
                                  f"{pt.label}: exact schedule fails validation")
                elif res.status == solver.INFEASIBLE:
                    checks.record(not _heuristic_schedules(insts[pt]),
                                  f"{pt.label}: infeasible, but 3-LS holds a valid schedule")
                else:
                    checks.record(res.status == solver.TIMED_OUT,
                                  f"{pt.label}: status {res.status}")
                if _decided(res):
                    verdicts.add(res.status)
            checks.record(len(verdicts) <= 1, f"{pt.label}: verdict changed between passes")

    def fingerprint(self, state, m: Measurement) -> dict:
        """Counters of each decided point; timed-out points carry none."""
        fp = {}
        for pt, runs in sorted(m.payload[0].items(), key=lambda kv: kv[0].label):
            res = runs[0][0]
            if not _decided(res):
                continue
            entry = {"verdict": res.status, "nodes": res.stats.nodes}
            try:
                model = solver.build_model(state[pt], mode=_solver_mode(pt.mode))
            except solver.ModelInfeasible:
                entry.update(vars=None, pairs=None)
            else:
                entry.update(vars=len(model.job_vars), pairs=len(model.pairs))
            fp[pt.label] = entry
        return fp

    @staticmethod
    def figures(fp: dict) -> dict:
        return {}


def _solver_mode(mode: str) -> str:
    return solver.ZJ if mode == solver.ZJ else solver.JC


def _decided(res) -> bool:
    return not isinstance(res, Exception) and res.status in (solver.FEASIBLE,
                                                             solver.INFEASIBLE)


def _heuristic_schedules(inst) -> bool:
    """Whether 3-LS finds a schedule that the validator accepts."""
    schedule, _stats = heuristic.run_3ls(inst)
    return schedule is not None and validate(inst, schedule).ok
