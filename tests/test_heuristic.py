import dataclasses
import itertools
import random
import time

import pytest

from engine_oracle import engine_place_one
from oracle_utils import fig1_witness, random_tiny_instance
from rowstore_oracle import fresh_blocks, row_domains
from subproblem_utils import brute_force_min_sum, random_subproblem
from ttcosched import bench, generator, heuristic, search
from ttcosched.bench import apply_mode
from ttcosched.generator import GenParams
from ttcosched.heuristic import (DomainStore, choose_unschedule, run_3ls,
                                 sub_model)
from ttcosched.intervals import IntervalSet
from ttcosched.model import (Activity, Instance, Platform, PrecedenceDAG,
                             _job_window, derive_bounds)
from ttcosched.validation import is_zero_jitter, validate


def test_window_two_period_matches_worked_example():
    # p=9, before=4, after=0, e=1: first job window [4, 16]
    plat = Platform(cores=1)
    acts = [Activity(i, "task", 9, 1, 50, 0) for i in range(5)]
    acts.append(Activity(5, "task", 6, 1, 50, 0))  # stretch H to 18
    edges = [(i, 4) for i in range(4)]              # four predecessors
    inst = Instance(tuple(acts), plat, PrecedenceDAG(6, edges))
    bounds = derive_bounds(inst)
    assert bounds.before[4] == 4
    store = DomainStore(inst, bounds)
    assert store.window(4, 1) == (4, 16)


def test_window_ends_one_tick_before_the_model_window():
    plat = Platform(cores=1)
    # execution fills the period: a job may start anywhere in its own period
    solo = Instance((Activity(0, "task", 10, 10, 50, 0),), plat, PrecedenceDAG(1))
    assert DomainStore(solo, derive_bounds(solo)).window(0, 1) == (0, 9)
    inst, bounds = _running_example()
    store = DomainStore(inst, bounds)
    for a in inst.activities:
        for j in range(1, bounds.jobs[a.id] + 1):
            lo, hi = _job_window(a, bounds, j)
            assert store.window(a.id, j) == (lo, hi - 1)


def _running_example():
    """Single core, H=18; the target activity has four unit predecessors."""
    plat = Platform(cores=1)
    acts = (
        Activity(0, "task", 9, 1, 50, 0),   # pred
        Activity(1, "task", 9, 1, 50, 0),   # pred
        Activity(2, "task", 9, 1, 50, 0),   # pred
        Activity(3, "task", 9, 1, 50, 0),   # pred
        Activity(4, "task", 9, 1, 50, 0),   # the activity under test
        Activity(5, "task", 18, 1, 50, 0),  # co-mapped blocker @4
        Activity(6, "task", 18, 1, 50, 0),  # co-mapped blocker @6
        Activity(7, "task", 6, 1, 50, 0),   # stretches H to 18
    )
    edges = [(0, 4), (1, 4), (2, 4), (3, 4)]
    inst = Instance(acts, plat, PrecedenceDAG(8, edges))
    return inst, derive_bounds(inst)


def test_insert_carves_domains_like_worked_example():
    inst, bounds = _running_example()
    assert bounds.before[4] == 4
    store = DomainStore(inst, bounds)
    store.insert(5, (4,))
    store.insert(6, (6,))
    dom = store.domains(4)[0]
    assert dom.intervals == [(5, 5), (7, 16)]


def test_greedy_picks_first_admissible_point():
    inst, bounds = _running_example()
    store = DomainStore(inst, bounds)
    store.insert(5, (4,))
    store.insert(6, (6,))
    placement = sub_model(inst, bounds, store, 4)
    assert placement is not None
    assert placement[4][0] == 5


def test_single_job_earliest():
    plat = Platform(cores=1)
    inst = Instance((Activity(0, "task", 12, 1, 50, 0),), plat, PrecedenceDAG(1))
    bounds = derive_bounds(inst)

    class Fixed(DomainStore):
        def domains(self, act):
            return [IntervalSet([(3, 9)])]

    store = Fixed(inst, bounds)
    placement = sub_model(inst, bounds, store, 0)
    assert placement[0] == (3,)


def test_zero_jitter_pair_min_sum():
    # jit=0, two jobs, domains [0,4] and [12,16] with p=10: optimum (2, 12)
    plat = Platform(cores=2)
    inst = Instance((Activity(0, "task", 10, 1, 0, 0),
                     Activity(1, "task", 20, 1, 50, 1)),
                    plat, PrecedenceDAG(2))
    bounds = derive_bounds(inst)

    class Fixed(DomainStore):
        def domains(self, act):
            if act == 0:
                return [IntervalSet([(0, 4)]), IntervalSet([(12, 16)])]
            return [IntervalSet([(0, 39)])]

    store = Fixed(inst, bounds)
    placement = sub_model(inst, bounds, store, 0)
    assert placement[0] == (2, 12)
    # brute-force minimum over the same domains
    best = min((s1 + s2) for s1 in range(0, 5) for s2 in range(12, 17)
               if s2 - s1 == 10)
    assert sum(placement[0]) == best


def test_insert_unit_point_removal_and_pred_trim():
    plat = Platform(cores=1)
    acts = (Activity(0, "task", 10, 1, 50, 0), Activity(1, "task", 10, 1, 50, 0),
            Activity(2, "task", 10, 2, 50, 0))
    inst = Instance(acts, plat, PrecedenceDAG(3, [(0, 1)]))
    bounds = derive_bounds(inst)
    store = DomainStore(inst, bounds)
    store.insert(0, (4,))
    # co-mapped unit activity loses exactly point 4
    assert 4 not in store.domains(2)[0].points()
    dom1 = store.domains(1)[0]
    assert 4 not in dom1
    # successor trimmed below the predecessor finish
    assert dom1.min() == 5
    # wider activity also loses starts that would overlap: [3, 4]
    dom2 = store.domains(2)[0]
    assert 3 not in dom2 and 4 not in dom2 and 2 in dom2 and 5 in dom2


def test_choose_unschedule_steps():
    plat = Platform(cores=1)
    # thresh = min period = 6
    acts = (
        Activity(0, "task", 6, 1, 50, 0),    # A: jit >= thresh, slack high
        Activity(1, "task", 6, 1, 50, 0),    # B: jit >= thresh, lower slack via chain
        Activity(2, "task", 6, 1, 2, 0),     # low-jit
        Activity(3, "task", 6, 1, 50, 0),    # failing activity
        Activity(4, "task", 6, 1, 2, 0),     # successor of B (scheduled)
    )
    inst = Instance(acts, plat, PrecedenceDAG(5, [(1, 4)]))
    bounds = derive_bounds(inst)
    sched = {0: (0,), 1: (1,), 2: (2,), 4: (3,)}
    # step 1: only A has no scheduled successors and jit >= thresh
    assert choose_unschedule(inst, bounds, sched, 3, 6) == 0
    # step 2: with A removed, B qualifies on jitter despite its scheduled succ
    sched2 = {1: (1,), 2: (2,), 4: (3,)}
    assert choose_unschedule(inst, bounds, sched2, 3, 6) == 1
    # step 3: only low-jit candidates left -> max inherited jitter, then slack
    sched3 = {2: (2,), 4: (3,)}
    assert choose_unschedule(inst, bounds, sched3, 3, 6) in (2, 4)
    # empty candidate set
    assert choose_unschedule(inst, bounds, {}, 3, 6) is None


def test_run_3ls_packs_independent_unit_tasks():
    plat = Platform(cores=1)
    acts = tuple(Activity(i, "task", 10, 2, 50, 0) for i in range(5))
    inst = Instance(acts, plat, PrecedenceDAG(5))
    schedule, stats = run_3ls(inst)
    assert schedule is not None
    assert stats.level1 == 5 and stats.level2 == 0 and stats.level3 == 0
    starts = sorted(row[0] for row in schedule.starts)
    assert starts == [0, 2, 4, 6, 8]


def test_run_3ls_motivating_example():
    inst = fig1_witness()
    schedule, stats = run_3ls(inst)
    assert schedule is not None
    assert validate(inst, schedule).ok
    zj_inst = inst.with_jitter(lambda a: 0)
    schedule_zj, _ = run_3ls(zj_inst)
    assert schedule_zj is None  # instance is zero-jitter infeasible


def test_run_3ls_zero_jitter_outputs_are_strictly_periodic():
    rng = random.Random(9)
    solved = 0
    for _ in range(15):
        inst = random_tiny_instance(rng).with_jitter(lambda a: 0)
        schedule, _ = run_3ls(inst)
        if schedule is not None:
            solved += 1
            assert all(is_zero_jitter(inst, schedule))
            assert all(schedule.zj)
    assert solved >= 5


def _reaches_level2():
    """A crowded tight-jitter instance where 3-LS runs one pair search."""
    return random_tiny_instance(random.Random(2466), jit_divisor=20)


def test_run_3ls_unschedule_path_reaches_level2():
    # crowded tight-jitter instance (found by seed scan) where a late
    # activity evicts a repeat offender and the pair level resolves it
    inst = _reaches_level2()
    schedule, stats = run_3ls(inst)
    assert schedule is not None
    assert validate(inst, schedule).ok
    assert stats.unschedules >= 1
    assert stats.level2 == 1


def _random_start(rng, dom):
    """A start in ``dom``: an interval end (to exercise block merges) or inside."""
    lo, hi = rng.choice(dom.intervals)
    return rng.choice((lo, hi, rng.randint(lo, hi)))


def _random_placement(rng, store, act):
    """Starts for every job of ``act`` inside its domains, or None."""
    e = store.instance.activities[act].exec_time
    starts = []
    for dom in store.domains(act):
        if dom.is_empty():
            return None
        for _ in range(5):
            s = _random_start(rng, dom)
            if all(s + e <= x or x + e <= s for x in starts):
                starts.append(s)
                break
        else:
            return None
    return starts


def _assert_matches_rows(store):
    inst = store.instance
    blocks = {r: list(zip(starts, ends))
              for r, (starts, ends) in store._blocks.items()}
    assert blocks == fresh_blocks(store)
    for act in range(inst.n):
        for got, want in zip(store.domains(act), row_domains(store, act),
                             strict=True):
            # the walks that list no gaps, then the gaps themselves
            assert got.is_empty() == want.is_empty(), act
            probes = {got.lo - 1, got.lo, got.hi, got.hi + 1}
            for lo, hi in want.intervals:
                probes |= {lo - 1, lo, hi, hi + 1}
            for x in probes:
                assert got.snap_ge(x) == want.snap_ge(x), (act, x)
            if not want.is_empty():
                assert got.min() == want.min(), act
            assert got == want, act


def test_domain_store_matches_row_oracle_under_random_edits():
    rng = random.Random(10)
    instances = [random_tiny_instance(rng) for _ in range(6)]
    for set_id, u, mode in ((1, 0.5, "jc:p5"), (2, 0.4, "zj"), (2, 0.6, "jc:p5")):
        base = generator.generate(GenParams.from_set(set_id, 0))
        instances.append(apply_mode(generator.scale_to_utilization(base, u), mode))
    for inst in instances:
        store = DomainStore(inst, derive_bounds(inst))
        for _step in range(80):
            pending = [x for x in range(inst.n) if x not in store.sched]
            roll = rng.random()
            if pending and (roll < 0.75 or not store.sched):
                act = rng.choice(pending)
                starts = _random_placement(rng, store, act)
                if starts is not None:
                    store.insert(act, starts)
            elif roll < 0.85:
                # one activity, and one not scheduled, which remove skips
                store.remove([rng.choice(list(store.sched))] + pending[:1])
            elif roll < 0.97:
                # unschedule an activity with its scheduled successors
                act = rng.choice(list(store.sched))
                store.remove({act} | (inst.dag.succ_closure[act] & store.sched.keys()))
            else:
                # level-3 style: remove all but a few
                keep = set(rng.sample(list(store.sched), min(2, len(store.sched))))
                store.remove([x for x in store.sched if x not in keep])
            _assert_matches_rows(store)


def test_insert_rejects_overlapping_rows():
    inst, bounds = _running_example()
    store = DomainStore(inst, bounds)
    store.insert(5, (4,))
    with pytest.raises(ValueError, match="overlaps"):
        store.insert(6, (4,))


SET2_SWEEP_POINTS = [(seed, mode) for seed in (0, 1) for mode in ("zj", "jc:p5")]


@pytest.mark.parametrize("seed,mode", SET2_SWEEP_POINTS)
def test_run_3ls_on_set2_places_like_the_row_oracle(monkeypatch, seed, mode):
    class RowChecked(heuristic.DomainStore):
        def domains(self, act):
            got = super().domains(act)
            want = row_domains(self, act)
            assert got == want, act
            return want

    base = generator.generate(GenParams.from_set(2, seed))
    top = bench.max_util_sweep(base, "3ls", mode).max_util
    for u in range(top - 10, top + 2):
        inst = apply_mode(generator.scale_to_utilization(base, u / 100), mode)
        plain, plain_stats = run_3ls(inst)
        with monkeypatch.context() as m:
            m.setattr(heuristic, "DomainStore", RowChecked)
            checked, checked_stats = run_3ls(inst)
        assert plain == checked, u
        assert plain_stats.level1 == checked_stats.level1 > 0
        assert plain_stats.status == checked_stats.status
        assert (u <= top) == (plain is not None)


def test_run_3ls_raises_when_its_schedule_fails_validation(monkeypatch):
    inst = fig1_witness()
    report = validate(inst, run_3ls(inst)[0])
    monkeypatch.setattr(heuristic, "validate",
                        lambda *_: dataclasses.replace(report, ok=False))
    with pytest.raises(RuntimeError, match="invalid schedule"):
        run_3ls(inst)


def test_sub_model_jitter_guard_blocks_invalid_greedy():
    # non-critical by the slack rule, yet the window leaves room to exceed
    # the bound: the sub-model must still respect the validator's jitter
    plat = Platform(cores=1)
    acts = (Activity(0, "task", 10, 1, 7, 0),   # I = 9, jit 7 >= I-1? 7 < 8: critical edge
            Activity(1, "task", 20, 9, 50, 0))
    inst = Instance(acts, plat, PrecedenceDAG(2))
    schedule, _ = run_3ls(inst)
    if schedule is not None:
        assert validate(inst, schedule).ok


def test_single_placement_matches_brute_force_on_random_subproblems():
    feasible = 0
    for seed in range(300):
        inst, bounds, store, doms, jit = random_subproblem(random.Random(seed))
        a = inst.activities[0]
        placement = sub_model(inst, bounds, store, 0)
        best = brute_force_min_sum(doms, a.period, a.exec_time, jit,
                                   bounds.hyper_period)
        assert (placement is None) == (best is None), seed
        if best is not None:
            assert sum(placement[0]) == best, seed
            feasible += 1
    assert 200 <= feasible < 300


ORACLE_SWEEPS = [(set_id, mode) for set_id in (1, 2, 3, 4) for mode in ("zj", "jc:p5")]


@pytest.mark.parametrize("set_id,mode", ORACLE_SWEEPS)
def test_single_placement_matches_the_engine_oracle(monkeypatch, set_id, mode):
    """Every level-1 placement of 3-LS runs near the sweep maximum, None
    included, equals the Engine's minimum-sum placement over the row
    oracle's domains, and every job domain equals the row oracle's."""
    checked = []

    def checked_sub_model(instance, bounds, store, a1, a2=None, time_limit=None):
        got = sub_model(instance, bounds, store, a1, a2, time_limit)
        if a2 is None:
            want = row_domains(store, a1)
            assert store.domains(a1) == want, a1
            assert got == engine_place_one(instance, bounds, want, a1), a1
            checked.append(got is None)
        return got

    base = generator.generate(GenParams.from_set(set_id, 0))
    top = bench.max_util_sweep(base, "3ls", mode).max_util
    monkeypatch.setattr(heuristic, "sub_model", checked_sub_model)
    for u in range(top - 10, top + 2):
        inst = apply_mode(generator.scale_to_utilization(base, u / 100), mode)
        schedule, _stats = run_3ls(inst)
        assert (u <= top) == (schedule is not None), u
    assert True in checked and False in checked


def test_run_3ls_gives_pair_searches_the_time_left(monkeypatch):
    limits = []
    minimize_sum = search.Engine.minimize_sum

    def recording(self, time_limit=None, node_limit=None):
        limits.append(time_limit)
        return minimize_sum(self, time_limit, node_limit)

    monkeypatch.setattr(search.Engine, "minimize_sum", recording)
    schedule, stats = run_3ls(_reaches_level2(), time_limit=30.0)
    assert schedule is not None and stats.level2 == 1
    assert limits and all(t is not None and 0 < t <= 30.0 for t in limits)


@pytest.mark.parametrize("cut", [1, 2])
def test_pair_search_cut_by_the_deadline_ends_the_run_as_timeout(monkeypatch, cut):
    """The level-2 pair search (cut=1), or the level-3 one after a level-2
    search that found nothing (cut=2), runs past the deadline."""
    calls = []

    def searched(self, time_limit=None, node_limit=None):
        calls.append(time_limit)
        if len(calls) < cut:
            return search.UNSAT, None, search.SearchStats()
        time.sleep(time_limit + 0.01)
        return search.TIMEOUT, None, search.SearchStats()

    monkeypatch.setattr(search.Engine, "minimize_sum", searched)
    schedule, stats = run_3ls(_reaches_level2(), time_limit=0.2)
    assert schedule is None
    assert stats.status == "timeout"
    assert len(calls) == cut
