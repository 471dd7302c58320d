import random

import pytest

import scale_oracle
from ttcosched.generator import (ACTIVITY_RANGES, GenParams, ParamError,
                                 ScaleError, SET_TABLE, ems_case_study,
                                 generate, scale_to_utilization)
from ttcosched.model import Activity, Instance, Platform, PrecedenceDAG, derive_bounds
from ttcosched.serialize import instance_hash
from ttcosched.validation import utilization


def test_set_table_matches_published_parameters():
    assert SET_TABLE[1] == (20, (1, 2, 5, 10), 4, 4)
    assert SET_TABLE[2][0] == 30 and SET_TABLE[2][3] == 6
    assert SET_TABLE[3] == (50, (1, 2, 5, 10, 20, 50, 100), 4, 8)
    assert SET_TABLE[4][0] == 100 and SET_TABLE[4][3] == 15
    assert SET_TABLE[5] == (500, (1, 2, 5, 10, 20, 50, 100), 8, 50)


def test_unknown_set_id():
    with pytest.raises(ParamError):
        GenParams.from_set(9)


def test_generate_set1_shape():
    inst = generate(GenParams.from_set(1, seed=3))
    tasks = [a for a in inst.activities if a.kind == "task"]
    assert len(tasks) == 20
    assert {t.period for t in tasks} <= {1000, 2000, 5000, 10000}
    lo, hi = ACTIVITY_RANGES[1]
    assert lo - 5 <= inst.n <= hi + 5


def test_generate_deterministic():
    a = generate(GenParams.from_set(2, seed=7))
    b = generate(GenParams.from_set(2, seed=7))
    assert instance_hash(a) == instance_hash(b)
    c = generate(GenParams.from_set(2, seed=8))
    assert instance_hash(a) != instance_hash(c)


def test_generate_structure_invariants():
    for set_id in (1, 2, 3):
        inst = generate(GenParams.from_set(set_id, seed=1))
        # acyclic by construction (PrecedenceDAG would raise), equal periods
        for i, l in inst.dag.edges:
            assert inst.activities[i].period == inst.activities[l].period
        for chain in inst.chains:
            periods = {inst.activities[x].period for x in chain}
            assert len(periods) == 1
        for a in inst.activities:
            if a.kind == "message":
                assert inst.platform.is_port(a.resource)
                assert a.sender is not None and a.receiver is not None


def test_activity_ranges_across_seeds():
    for set_id in (1, 2):
        lo, hi = ACTIVITY_RANGES[set_id]
        counts = [generate(GenParams.from_set(set_id, s)).n for s in range(30)]
        inside = sum(lo <= c <= hi for c in counts)
        assert inside >= 27, f"set {set_id}: {inside}/30 inside [{lo},{hi}]"


def test_scale_to_utilization():
    inst = generate(GenParams.from_set(1, seed=0))
    for target in (0.10, 0.5, 0.93):
        scaled = scale_to_utilization(inst, target)
        for res, u in enumerate(utilization(scaled)):
            if any(a.resource == res for a in inst.activities):
                assert abs(u - target) <= 0.0101, (res, u, target)
    with pytest.raises(ScaleError):
        scale_to_utilization(inst, 0.0)


def test_scale_identity_and_floor():
    plat = Platform(cores=1)
    inst = Instance((Activity(0, "task", 10, 5, 0, 0),), plat, PrecedenceDAG(1))
    same = scale_to_utilization(inst, 0.5)
    assert same.activities[0].exec_time == 5
    # unit execution times cannot drop below one tick
    tiny = Instance((Activity(0, "task", 10, 1, 0, 0),), plat, PrecedenceDAG(1))
    with pytest.raises(ScaleError):
        scale_to_utilization(tiny, 0.05)


def _scaled_or_error(scale, instance, target):
    try:
        return scale(instance, target)
    except ScaleError as exc:
        return str(exc)


def test_scale_matches_the_fraction_oracle():
    for set_id in (1, 2, 3, 4):
        for seed in range(4):
            base = generate(GenParams.from_set(set_id, seed))
            for pct in range(1, 101):
                got = _scaled_or_error(scale_to_utilization, base, pct / 100)
                want = _scaled_or_error(scale_oracle.scale_to_utilization,
                                        base, pct / 100)
                assert got == want, (set_id, seed, pct)


def test_scale_nudges_match_the_fraction_oracle():
    # on the protocol's sets rounding alone always lands within the
    # tolerance; small resources with coarse ticks need the nudges
    rng = random.Random(3)
    plat = Platform(cores=2)
    for _ in range(400):
        periods = [rng.choice((50, 100, 200, 250, 500, 1000))
                   for _ in range(rng.randint(1, 6))]
        acts = tuple(Activity(i, "task", p, rng.randint(1, p // 3), 0,
                              rng.randrange(2))
                     for i, p in enumerate(periods))
        instance = Instance(acts, plat, PrecedenceDAG(len(acts)))
        for target in (rng.randint(1, 100) / 100, rng.random()):
            got = _scaled_or_error(scale_to_utilization, instance, target)
            want = _scaled_or_error(scale_oracle.scale_to_utilization,
                                    instance, target)
            assert got == want, (periods, target)


def test_scale_errors_match_the_fraction_oracle():
    plat = Platform(cores=1)
    floor = Instance((Activity(0, "task", 10, 1, 0, 0),
                      Activity(1, "task", 20, 1, 0, 0)), plat, PrecedenceDAG(2))
    # one tick of the only period moves the load by 1/3: 0.5 is never within
    # 0.01, so the nudges swing until the guard gives up
    swing = Instance((Activity(0, "task", 3, 1, 0, 0),), plat, PrecedenceDAG(1))
    for instance, target in ((floor, 0.05), (floor, 0.07), (swing, 0.5)):
        got = _scaled_or_error(scale_to_utilization, instance, target)
        want = _scaled_or_error(scale_oracle.scale_to_utilization,
                                instance, target)
        assert isinstance(want, str) and got == want


def test_ems_case_study_statistics():
    inst = ems_case_study(0)
    bounds = derive_bounds(inst)
    assert bounds.hyper_period == 100_000
    assert 5e4 <= bounds.total_jobs <= 2e5          # on the order of 1e5
    u = utilization(inst)
    for core in range(3):
        assert abs(u[core] - 0.896) <= 0.05
    for port in range(3, 6):
        assert 0.20 <= u[port] <= 0.40
    tasks = [a for a in inst.activities if a.kind == "task"]
    assert len(tasks) == 2000
    assert max(a.period for a in tasks) <= 100_000  # folded hyper-period
    assert len(inst.chains) == 60
    assert all(len(c) <= 21 for c in inst.chains)   # 11 tasks + 10 hops
