import random

import pytest

from ttcosched.model import (Activity, CycleError, Instance, Platform,
                             PrecedenceDAG, chain_bounds, derive_bounds,
                             hyper_period, inherited_jitter, job_count,
                             longest_path_bounds, message_exec_time,
                             worst_case_slack)


def test_hyper_period():
    assert hyper_period([9, 6]) == 18
    assert hyper_period([10]) == 10
    assert hyper_period([1000, 2000, 5000, 10000]) == 10000


def test_hyper_period_overflow():
    primes = [2147483647, 2147483629, 2147483587]
    with pytest.raises(OverflowError):
        hyper_period(primes)
    with pytest.raises(ValueError):
        hyper_period([0])


def test_job_count():
    assert job_count(Activity(0, "task", 9, 1, 0, 0), 18) == 2
    assert job_count(Activity(0, "task", 6, 1, 0, 0), 18) == 3
    assert job_count(Activity(0, "task", 18, 1, 0, 0), 18) == 1
    with pytest.raises(ValueError):
        job_count(Activity(0, "task", 7, 1, 0, 0), 18)


def test_message_exec_time():
    plat = Platform(cores=3, mem_bandwidth=400_000_000, mem_latency_us=0.25)
    assert message_exec_time(400, plat) == 2  # 1.0 + 0.25 us, ceil -> 2
    assert message_exec_time(0, Platform(mem_latency_us=0.0)) == 1
    assert message_exec_time(4000, Platform(mem_latency_us=0.0)) == 10


def test_message_exec_time_monotone():
    plat = Platform()
    prev = 0
    for sz in range(0, 20000, 257):
        e = message_exec_time(sz, plat)
        assert e >= 1 and e >= prev
        prev = e


def _fig3_instance():
    """Reconstruction of the worked precedence example, single core.

    ids: 0..4 period 9 (0 -> 4 -> 1, plus 6 -> 1 and 7 -> 1),
    ids 2,3,5,8 period 6 (2 -> 5, 5 -> 3, 5 -> 8), id 9 period 18 isolated.
    """
    plat = Platform(cores=1)
    p9, p6, p18 = 9, 6, 18
    periods = {0: p9, 1: p9, 2: p6, 3: p6, 4: p9, 5: p6, 6: p9, 7: p9,
               8: p6, 9: p18}
    acts = tuple(Activity(i, "task", periods[i], 1, 0, 0) for i in range(10))
    edges = [(0, 4), (4, 1), (6, 1), (7, 1), (2, 5), (5, 3), (5, 8)]
    return Instance(acts, plat, PrecedenceDAG(10, edges))


def test_longest_path_bounds_match_worked_example():
    inst = _fig3_instance()
    before, after = longest_path_bounds(inst)
    assert before[0] == 0 and after[0] == 2
    assert before[5] == 1 and after[5] == 1
    assert before[1] == 2 and after[1] == 0


def test_chain_bounds_single_core_refinement():
    inst = _fig3_instance()
    before, after = chain_bounds(inst)
    assert before[0] == 0 and after[0] == 2
    assert before[5] == 1 and after[5] == 2
    assert before[1] == 4 and after[1] == 0


def test_chain_bounds_isolated():
    inst = _fig3_instance()
    before, after = chain_bounds(inst)
    assert before[9] == 0 and after[9] == 0


def test_worst_case_slack():
    a = Activity(0, "task", 9, 1, 0, 0)
    assert worst_case_slack(a, 4, 0) == 4
    b = Activity(0, "task", 10, 10, 0, 0)
    assert worst_case_slack(b, 0, 0) == 0
    c = Activity(0, "task", 5, 2, 0, 0)
    assert worst_case_slack(c, 3, 2) == -2  # reported, not raised


def test_inherited_jitter():
    plat = Platform(cores=1)
    acts = (Activity(0, "task", 6, 1, 100, 0),
            Activity(1, "task", 6, 1, 50, 0),
            Activity(2, "task", 6, 1, 10, 0))
    inst = Instance(acts, plat, PrecedenceDAG(3, [(0, 1), (1, 2)]))
    jits = [a.jitter for a in acts]
    assert inherited_jitter(acts[0], inst.dag, jits) == 10
    assert inherited_jitter(acts[2], inst.dag, jits) == 10
    solo = Instance((Activity(0, "task", 6, 1, 5, 0),), plat, PrecedenceDAG(1))
    assert inherited_jitter(solo.activities[0], solo.dag, [5]) == 5
    zero = (Activity(0, "task", 6, 1, 100, 0), Activity(1, "task", 6, 1, 0, 0))
    inst0 = Instance(zero, plat, PrecedenceDAG(2, [(0, 1)]))
    assert inherited_jitter(zero[0], inst0.dag, [100, 0]) == 0


def test_cycle_detection():
    with pytest.raises(CycleError):
        PrecedenceDAG(2, [(0, 1), (1, 0)])
    with pytest.raises(CycleError):
        PrecedenceDAG(1, [(0, 0)])


def test_derive_bounds_consistency():
    inst = _fig3_instance()
    b = derive_bounds(inst)
    assert b.hyper_period == 18
    assert sum(b.jobs) == b.total_jobs
    for a in inst.activities:
        assert b.hyper_period % a.period == 0
        assert b.slack[a.id] == a.period - (b.before[a.id] + b.after[a.id]
                                            + a.exec_time)


def test_chain_bounds_monotone_under_edges():
    rng = random.Random(42)
    plat = Platform(cores=2)
    for _ in range(25):
        n = rng.randint(3, 7)
        p = rng.choice([6, 12])
        acts = tuple(Activity(i, "task", p, rng.randint(1, 2), 0,
                              rng.randrange(2)) for i in range(n))
        pool = [(i, l) for i in range(n) for l in range(i + 1, n)]
        rng.shuffle(pool)
        edges: list = []
        inst = Instance(acts, plat, PrecedenceDAG(n, edges))
        tb, ta = chain_bounds(inst)
        for edge in pool[:4]:
            edges.append(edge)
            inst2 = Instance(acts, plat, PrecedenceDAG(n, edges))
            tb2, ta2 = chain_bounds(inst2)
            assert all(x2 >= x for x, x2 in zip(tb, tb2))
            assert all(x2 >= x for x, x2 in zip(ta, ta2))
            tb, ta = tb2, ta2
        # refinement never loosens the longest-path bound
        pb, pa = longest_path_bounds(inst2)
        assert all(x >= y for x, y in zip(tb, pb))
        assert all(x >= y for x, y in zip(ta, pa))


def test_inherited_jitter_brute_force():
    rng = random.Random(3)
    plat = Platform(cores=1)
    for _ in range(20):
        n = rng.randint(2, 7)
        acts = tuple(Activity(i, "task", 12, 1, rng.randrange(0, 30), 0)
                     for i in range(n))
        edges = [(i, l) for i in range(n) for l in range(i + 1, n)
                 if rng.random() < 0.3]
        inst = Instance(acts, plat, PrecedenceDAG(n, edges))
        jits = [a.jitter for a in acts]

        def closure_min(i):
            best = jits[i]
            stack = list(inst.dag.succ[i])
            seen = set()
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                best = min(best, jits[v])
                stack.extend(inst.dag.succ[v])
            return best

        for a in acts:
            got = inherited_jitter(a, inst.dag, jits)
            assert got == closure_min(a.id)
            assert got <= a.jitter


def test_instance_validation():
    plat = Platform(cores=2)
    with pytest.raises(ValueError):  # message on a core
        Instance((Activity(0, "task", 5, 1, 0, 0),
                  Activity(1, "message", 5, 1, 0, 1, sender=0, receiver=0)),
                 plat, PrecedenceDAG(2))
    with pytest.raises(ValueError):  # edge between different periods
        Instance((Activity(0, "task", 5, 1, 0, 0),
                  Activity(1, "task", 10, 1, 0, 1)),
                 plat, PrecedenceDAG(2, [(0, 1)]))
    with pytest.raises(ValueError):  # message period differs from sender
        Instance((Activity(0, "task", 5, 1, 0, 0),
                  Activity(1, "task", 10, 1, 0, 1),
                  Activity(2, "message", 10, 1, 0, 2, sender=0, receiver=1)),
                 plat, PrecedenceDAG(3))
