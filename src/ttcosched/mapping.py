"""Task-to-core assignment and derived message placement.

The exact mapper minimises the sum of utilisation differences between
consecutive cores (the load-balance objective) by branch and bound over
exact rational loads; the greedy mapper is longest-processing-time-first.
Messages always go to the input port of the receiving core, and co-located
communication disappears from the scheduling problem entirely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .model import MESSAGE, TASK, Instance, PrecedenceDAG


@dataclass
class Mapping:
    assignment: tuple[int, ...]     # task index -> core
    objective: Fraction
    optimal: bool


def _objective(loads) -> Fraction:
    return sum((abs(loads[j] - loads[j + 1]) for j in range(len(loads) - 1)),
               Fraction(0))


def map_greedy(utils, cores: int) -> Mapping:
    """Longest-processing-time-first onto the currently least-loaded core."""
    if cores < 1:
        raise ValueError("need at least one core")
    utils = [Fraction(u) for u in utils]
    order = sorted(range(len(utils)), key=lambda i: (-utils[i], i))
    loads = [Fraction(0)] * cores
    assignment = [0] * len(utils)
    for i in order:
        core = min(range(cores), key=lambda j: (loads[j], j))
        assignment[i] = core
        loads[core] += utils[i]
    return Mapping(tuple(assignment), _objective(loads), optimal=(cores == 1))


def map_exact(utils, cores: int, time_limit: float | None = None) -> Mapping:
    """Branch and bound on the consecutive-core balance objective.

    Seeds the incumbent with the greedy assignment; on timeout the best
    assignment found so far is returned flagged non-optimal.
    """
    if cores < 1:
        raise ValueError("need at least one core")
    utils = [Fraction(u) for u in utils]
    n = len(utils)
    order = sorted(range(n), key=lambda i: (-utils[i], i))
    remaining = [Fraction(0)] * (n + 1)
    for pos in range(n - 1, -1, -1):
        remaining[pos] = remaining[pos + 1] + utils[order[pos]]

    greedy = map_greedy(utils, cores)
    best = list(greedy.assignment)
    best_obj = greedy.objective
    loads = [Fraction(0)] * cores
    assignment = [0] * n
    deadline = None if time_limit is None else time.monotonic() + time_limit
    timed_out = False

    def lower_bound(pos) -> Fraction:
        # final per-core loads only grow; the spread can shrink by at most
        # what is still unassigned.
        spread = max(loads) - (min(loads) + remaining[pos])
        return spread if spread > 0 else Fraction(0)

    stack = [(0, 0, None)]  # (position in order, core to try, undo core)
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            timed_out = True
            break
        pos, core, undo = stack.pop()
        if undo is not None:
            loads[undo] -= utils[order[pos]]
        if core >= cores:
            continue
        if pos == n:
            continue
        task = order[pos]
        loads[core] += utils[task]
        assignment[task] = core
        stack.append((pos, core + 1, core))
        if pos + 1 == n:
            obj = _objective(loads)
            if obj < best_obj:
                best_obj = obj
                best = list(assignment)
        elif lower_bound(pos + 1) < best_obj:
            stack.append((pos + 1, 0, None))
    return Mapping(tuple(best), best_obj, optimal=not timed_out)


def derive_message_mapping(instance: Instance, task_cores: dict[int, int]):
    """Resource per activity given a task->core map.

    Inter-core messages land on the receiving core's input port; co-located
    communication is dropped (returned separately) since it happens through
    local memory.
    """
    resource: dict[int, int] = {}
    dropped: set[int] = set()
    for a in instance.activities:
        if a.kind == TASK:
            resource[a.id] = task_cores[a.id]
    for a in instance.activities:
        if a.kind != MESSAGE:
            continue
        src = task_cores[a.sender]
        dst = task_cores[a.receiver]
        if src == dst:
            dropped.add(a.id)
        else:
            resource[a.id] = instance.platform.port_of(dst)
    return resource, dropped


def remap_instance(instance: Instance, method: str = "greedy",
                   time_limit: float | None = None):
    """Re-map an instance's tasks and rebuild it (dropping local messages)."""
    tasks = [a for a in instance.activities if a.kind == TASK]
    utils = [a.utilization for a in tasks]
    if method == "exact":
        mapping = map_exact(utils, instance.platform.cores, time_limit)
    elif method == "greedy":
        mapping = map_greedy(utils, instance.platform.cores)
    else:
        raise ValueError(f"unknown mapping method {method!r}")
    task_cores = {t.id: mapping.assignment[i] for i, t in enumerate(tasks)}
    resource, dropped = derive_message_mapping(instance, task_cores)

    keep = [a for a in instance.activities if a.id not in dropped]
    new_id = {a.id: i for i, a in enumerate(keep)}
    acts = []
    for a in keep:
        acts.append(replace(
            a, id=new_id[a.id], resource=resource[a.id],
            sender=new_id.get(a.sender) if a.sender is not None else None,
            receiver=new_id.get(a.receiver) if a.receiver is not None else None))

    edges = set()
    for i, l in instance.dag.edges:
        if i in dropped or l in dropped:
            continue
        edges.add((new_id[i], new_id[l]))
    # re-bridge chains across dropped messages: task -> (local msg) -> task
    for i, l in instance.dag.edges:
        if l in dropped:
            for l2 in instance.dag.succ[l]:
                if l2 not in dropped:
                    edges.add((new_id[i], new_id[l2]))
    chains = []
    for chain in instance.chains:
        chains.append(tuple(new_id[x] for x in chain if x not in dropped))

    dag = PrecedenceDAG(len(acts), edges)
    inst = Instance(tuple(acts), instance.platform, dag, tuple(chains),
                    name=instance.name)
    return inst, mapping
