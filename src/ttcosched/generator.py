"""Synthetic benchmark instances.

Five parameter sets mirror the published generator table (task counts 20 to
500, period menus in ms, variable accesses and chain budgets).  Execution
times and variable sizes are drawn log-uniformly from fixed ranges and every
activity gets jitter period/5.  These are constants, not settings: the
original tool's internals are not public, and every experiment rescales the
execution times to its per-resource utilisation target and sets jitter by
its mode, so their absolute magnitudes are immaterial.  The
engine-management case study builds a 2000-task instance with automotive
period shares, a 100 ms folded hyper-period and instruction-count execution
times at three cycles per instruction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .mapping import map_greedy
from .model import (MESSAGE, TASK, Activity, Instance, Platform,
                    PrecedenceDAG, message_exec_time)

# set id -> (tasks, period menu [ms], variable accesses per task, chains)
SET_TABLE = {
    1: (20, (1, 2, 5, 10), 4, 4),
    2: (30, (1, 2, 5, 10), 4, 6),
    3: (50, (1, 2, 5, 10, 20, 50, 100), 4, 8),
    4: (100, (1, 2, 5, 10, 20, 50, 100), 4, 15),
    5: (500, (1, 2, 5, 10, 20, 50, 100), 8, 50),
}

# share of the access budget that targets another task; tuned so activity
# totals land in the published per-set ranges
COMM_PROB = {1: 0.24, 2: 0.18, 3: 0.31, 4: 0.28, 5: 0.41}

ACTIVITY_RANGES = {1: (30, 45), 2: (50, 65), 3: (90, 130),
                   4: (180, 250), 5: (1500, 2000)}

CORES = 3
EXEC_RANGE_US = (5, 500)
SIZE_RANGE_BYTES = (4, 4096)
JITTER_DIVISOR = 5  # jit = p/5 until the bench layer applies a mode
SCALE_TOLERANCE = Fraction(1, 100)


class ParamError(ValueError):
    pass


class ScaleError(ValueError):
    pass


@dataclass
class GenParams:
    """A published parameter set and a seed.  ``SET_TABLE`` and
    ``COMM_PROB`` give the set's task count, period menu, accesses, chains
    and share of communicating accesses; the rest is fixed above."""

    set_id: int
    seed: int = 0

    @classmethod
    def from_set(cls, set_id: int, seed: int = 0) -> "GenParams":
        if set_id not in SET_TABLE:
            raise ParamError(f"unknown set id {set_id}")
        return cls(set_id, seed)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _period_pools(periods: list[int]) -> list[list[int]]:
    """Task ids by period, in order of first appearance, for each period
    that at least two tasks share."""
    by_period: dict[int, list[int]] = {}
    for tid, p in enumerate(periods):
        by_period.setdefault(p, []).append(tid)
    return [g for g in by_period.values() if len(g) >= 2]


def _draw_chain(rng: random.Random, pool: list[int]) -> tuple[int, ...]:
    length = rng.randint(2, min(11, len(pool)))
    return tuple(sorted(rng.sample(pool, length)))


def _chain_accesses(chain_tasks, draw_size) -> list[tuple[int, int, int, bool]]:
    """One in-chain access per distinct consecutive pair, sized in order."""
    accesses = []
    seen = set()
    for chain in chain_tasks:
        for wa, wb in zip(chain, chain[1:]):
            if (wa, wb) not in seen:
                seen.add((wa, wb))
                accesses.append((wa, wb, draw_size(), True))
    return accesses


def _other_task(rng: random.Random, n_tasks: int, tid: int) -> int:
    other = rng.randrange(n_tasks - 1)
    return other + 1 if other >= tid else other


def _build_instance(periods, execs, accesses, chain_tasks, platform, name):
    """Map the tasks greedily to cores and assemble the activities,
    materialising messages for cross-core accesses.

    accesses: list of (writer, reader, size, in_chain); chain_tasks: list of
    task-id tuples.
    """
    utils = [Fraction(e, p) for e, p in zip(execs, periods)]
    cores = map_greedy(utils, platform.cores).assignment
    acts = [Activity(id=tid, kind=TASK, period=p, exec_time=e,
                     jitter=p // JITTER_DIVISOR, resource=core)
            for tid, (p, e, core) in enumerate(zip(periods, execs, cores))]
    edges: set[tuple[int, int]] = set()
    link: dict[tuple[int, int], int] = {}  # (writer, reader) -> hop activity
    for writer, reader, size, in_chain in accesses:
        if cores[writer] == cores[reader]:
            if in_chain:
                edges.add((writer, reader))
                link[(writer, reader)] = reader
            continue
        if in_chain and (writer, reader) in link:
            continue
        p = periods[writer]
        mid = len(acts)
        acts.append(Activity(id=mid, kind=MESSAGE, period=p,
                             exec_time=min(p, message_exec_time(size, platform)),
                             jitter=p // JITTER_DIVISOR,
                             resource=platform.port_of(cores[reader]),
                             size=size, sender=writer, receiver=reader))
        if in_chain:
            edges.add((writer, mid))
            edges.add((mid, reader))
            link[(writer, reader)] = mid

    chains = []
    for tasks_in_chain in chain_tasks:
        seq: list[int] = []
        for t in tasks_in_chain:
            if seq:
                hop = link[(seq[-1], t)]
                if hop != t:
                    seq.append(hop)
            seq.append(t)
        chains.append(tuple(seq))

    dag = PrecedenceDAG(len(acts), edges)
    return Instance(tuple(acts), platform, dag, tuple(chains), name=name)


def generate(params: GenParams) -> Instance:
    """One synthetic instance; byte-identical for a fixed seed."""
    rng = random.Random(("ttcosched", params.set_id, params.seed).__repr__())
    n_tasks, menu, accesses_per_task, n_chains = SET_TABLE[params.set_id]
    periods = [1000 * rng.choice(menu) for _ in range(n_tasks)]
    execs = [max(1, min(p, round(_log_uniform(rng, *EXEC_RANGE_US))))
             for p in periods]

    # spread chains across period pools and bias lengths short, so merged
    # chains do not pile mandatory execution onto one period
    pools = sorted(_period_pools(periods), key=lambda g: -len(g))
    chain_tasks = [_draw_chain(rng, pools[c % len(pools)])
                   for c in range(n_chains if pools else 0)]

    def draw_size():
        return round(_log_uniform(rng, *SIZE_RANGE_BYTES))

    accesses = _chain_accesses(chain_tasks, draw_size)
    # exactly the set's share of the access budget reaches another task; the
    # rest stay local and never appear on an input port
    slots = [(tid, k) for tid in range(n_tasks) for k in range(accesses_per_task)]
    k_comm = round(len(slots) * COMM_PROB[params.set_id])
    for tid, _k in sorted(rng.sample(slots, k_comm)):
        other = _other_task(rng, n_tasks, tid)
        accesses.append((tid, other, draw_size(), False))

    return _build_instance(periods, execs, accesses, chain_tasks,
                           Platform(cores=CORES),
                           f"set{params.set_id}-seed{params.seed}")


def _round_half_even(num: int, den: int) -> int:
    """``round(Fraction(num, den))`` for ``den > 0``, without the Fraction."""
    q, r = divmod(num, den)
    return q + (2 * r > den or (2 * r == den and q % 2 == 1))


def scale_to_utilization(instance: Instance, target: float) -> Instance:
    """Rescale execution times so every non-empty resource hits ``target``.

    Rounds to whole ticks (>= 1, <= period, half to even) and then nudges
    individual activities, the longest period first, until each resource is
    within ``SCALE_TOLERANCE`` (1%) of the target.  A resource's load is kept
    exactly, as an integer number of ticks over the lcm of its periods.
    """
    if not 0 < target <= 1:
        raise ScaleError(f"target utilization {target} not in (0, 1]")
    target_f = Fraction(target).limit_denominator(10**6)
    acts = list(instance.activities)
    by_resource: dict[int, list[Activity]] = {}
    for a in acts:
        by_resource.setdefault(a.resource, []).append(a)
    for res in range(instance.platform.resources):
        members = by_resource.get(res)
        if not members:
            continue
        span = math.lcm(*(a.period for a in members))
        weight = [span // a.period for a in members]
        load = sum(a.exec_time * w for a, w in zip(members, weight))
        # e * target / (load / span), rounded half to even
        num = target_f.numerator * span
        den = target_f.denominator * load
        new_e = [max(1, min(a.period, _round_half_even(a.exec_time * num, den)))
                 for a in members]
        # (load - target) * span * target's denominator, and its allowance
        excess = (sum(e * w for e, w in zip(new_e, weight))
                  * target_f.denominator - target_f.numerator * span)
        allowed = SCALE_TOLERANCE.numerator * span * target_f.denominator
        order = sorted(range(len(members)),
                       key=lambda k: (-members[k].period, members[k].id))
        guard = 0
        while abs(excess) * SCALE_TOLERANCE.denominator > allowed:
            guard += 1
            if guard > 100_000:
                raise ScaleError(f"resource {res}: cannot reach {target}")
            if excess < 0:
                k = next((k for k in order if new_e[k] < members[k].period),
                         None)
                step = 1
            else:
                k = next((k for k in order if new_e[k] > 1), None)
                step = -1
            if k is None:
                raise ScaleError(f"resource {res}: cannot reach {target}")
            new_e[k] += step
            excess += step * weight[k] * target_f.denominator
        for a, e in zip(members, new_e):
            if e != a.exec_time:
                acts[a.id] = replace(a, exec_time=e)
    return instance.with_activities(acts)


# automotive period shares (period ms -> weight); 200 and 1000 ms fold to 100
EMS_PERIOD_SHARES = ((1, 3), (2, 2), (5, 2), (10, 25), (20, 25),
                     (50, 3), (100, 20), (200, 1), (1000, 4))
EMS_HYPER_MS = 100
EMS_CYCLES_PER_INSTRUCTION = 3
EMS_TARGET_CORE_UTIL = 0.896


def ems_case_study(seed: int = 0) -> Instance:
    """Engine-management-scale instance: 2000 tasks, ~10^5 jobs, 3 cores."""
    rng = random.Random(("ttcosched-ems", seed).__repr__())
    platform = Platform(cores=3, core_freq_hz=125_000_000,
                        mem_bandwidth=400_000_000, mem_latency_us=0.25)
    n_tasks = 2000
    menu = [p for p, _w in EMS_PERIOD_SHARES]
    weights = [w for _p, w in EMS_PERIOD_SHARES]
    periods = []
    for _ in range(n_tasks):
        p_ms = rng.choices(menu, weights=weights)[0]
        p_ms = min(p_ms, EMS_HYPER_MS)  # fold 200/1000 ms into the hyper-period
        periods.append(1000 * p_ms)

    # draw task utilisations, rescale to the published total core load, then
    # express execution times as instruction counts at 3 cycles/instruction;
    # a second pass compensates the tick-rounding bias
    raw = [_log_uniform(rng, 1e-4, 6e-3) for _ in range(n_tasks)]
    target_total = EMS_TARGET_CORE_UTIL * platform.cores
    cycles_per_us = platform.core_freq_hz / 1e6

    def to_ticks(instructions):
        return math.ceil(instructions * EMS_CYCLES_PER_INSTRUCTION
                         / cycles_per_us)

    scale = target_total / sum(raw)
    execs = periods
    for _ in range(2):
        instr = [max(1, round(u * scale * p * cycles_per_us
                              / EMS_CYCLES_PER_INSTRUCTION))
                 for u, p in zip(raw, periods)]
        execs = [max(1, min(p, to_ticks(i))) for i, p in zip(instr, periods)]
        achieved = sum(e / p for e, p in zip(execs, periods))
        scale *= target_total / achieved

    pools = _period_pools(periods)
    pool_weights = [len(g) for g in pools]
    chain_tasks = [_draw_chain(rng, rng.choices(pools, weights=pool_weights)[0])
                   for _ in range(60)]

    def draw_size():
        return rng.randint(1, 350)

    accesses = _chain_accesses(chain_tasks, draw_size)
    for tid in range(n_tasks):
        for _ in range(rng.randint(1, 12)):
            other = _other_task(rng, n_tasks, tid)
            accesses.append((tid, other, draw_size(), False))

    return _build_instance(periods, execs, accesses, chain_tasks, platform,
                           f"ems-seed{seed}")
