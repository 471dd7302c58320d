import itertools
import random
from fractions import Fraction

from ttcosched.mapping import (derive_message_mapping, map_exact, map_greedy,
                               remap_instance)
from ttcosched.model import Activity, Instance, Platform, PrecedenceDAG
from ttcosched.validation import utilization


def _enumerate_best(utils, cores):
    utils = [Fraction(u) for u in utils]
    best = None
    for combo in itertools.product(range(cores), repeat=len(utils)):
        loads = [Fraction(0)] * cores
        for i, c in enumerate(combo):
            loads[c] += utils[i]
        obj = sum((abs(loads[j] - loads[j + 1]) for j in range(cores - 1)),
                  Fraction(0))
        if best is None or obj < best:
            best = obj
    return best


def test_symmetric_pair():
    m = map_exact([Fraction(1, 2), Fraction(1, 2)], 2)
    assert m.objective == 0 and m.optimal
    assert m.assignment[0] != m.assignment[1]


def test_single_task_many_cores():
    m = map_exact([Fraction(1, 2)], 3)
    assert m.objective == Fraction(1, 2)  # one pairwise difference


def test_perfect_split():
    utils = [Fraction(4, 10), Fraction(3, 10), Fraction(2, 10), Fraction(1, 10)]
    m = map_exact(utils, 2)
    assert m.objective == 0
    g = map_greedy(utils, 2)
    assert g.objective == 0
    loads = [sum(u for u, c in zip(utils, g.assignment) if c == j)
             for j in range(2)]
    assert loads == [Fraction(1, 2), Fraction(1, 2)]


def test_greedy_cases():
    assert map_greedy([Fraction(1, 4)] * 4, 2).objective == 0
    one_core = map_greedy([Fraction(1, 3), Fraction(1, 5)], 1)
    assert one_core.assignment == (0, 0) and one_core.objective == 0


def test_exact_matches_enumeration():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 7)
        cores = rng.randint(1, 3)
        utils = [Fraction(rng.randint(1, 12), 24) for _ in range(n)]
        m = map_exact(utils, cores)
        assert m.optimal
        assert m.objective == _enumerate_best(utils, cores)


def test_exact_never_worse_than_greedy():
    rng = random.Random(12)
    for _ in range(15):
        n = rng.randint(2, 8)
        cores = rng.randint(2, 3)
        utils = [Fraction(rng.randint(1, 20), 40) for _ in range(n)]
        assert map_exact(utils, cores).objective <= map_greedy(utils, cores).objective


def test_mapping_total_and_single_valued():
    rng = random.Random(13)
    utils = [Fraction(rng.randint(1, 9), 20) for _ in range(9)]
    for m in (map_exact(utils, 3), map_greedy(utils, 3)):
        assert len(m.assignment) == 9
        assert all(0 <= c < 3 for c in m.assignment)


def _comm_instance():
    plat = Platform(cores=3)
    acts = (
        Activity(0, "task", 10, 1, 0, 0),
        Activity(1, "task", 10, 1, 0, 2),
        Activity(2, "task", 10, 1, 0, 1),
        Activity(3, "message", 10, 1, 0, 5, size=64, sender=0, receiver=1),
        Activity(4, "message", 10, 1, 0, 4, size=64, sender=0, receiver=2),
    )
    dag = PrecedenceDAG(5, [(0, 3), (3, 1), (0, 4), (4, 2)])
    return Instance(acts, plat, dag, ((0, 3, 1), (0, 4, 2)))


def test_derive_message_mapping_targets_receiver_port():
    inst = _comm_instance()
    resource, dropped = derive_message_mapping(inst, {0: 0, 1: 2, 2: 1})
    assert resource[3] == inst.platform.port_of(2)
    assert resource[4] == inst.platform.port_of(1)
    assert not dropped


def test_colocated_message_dropped():
    inst = _comm_instance()
    resource, dropped = derive_message_mapping(inst, {0: 0, 1: 0, 2: 1})
    assert 3 in dropped and 4 not in dropped


def test_remap_instance_bridges_chains():
    inst = _comm_instance()
    # force everything onto one core: all messages drop, edges bridge
    remapped, mapping = remap_instance(inst, method="greedy")
    if all(c == mapping.assignment[0] for c in mapping.assignment):
        assert all(a.kind == "task" for a in remapped.activities)
        assert all(u == 0.0 for u in utilization(remapped)[3:])
    # exact remap keeps a valid instance regardless
    remapped2, _ = remap_instance(inst, method="exact")
    assert remapped2.n >= 3
