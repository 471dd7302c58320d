import dataclasses
import random

import pytest

from oracle_utils import brute_force, fig1_witness, random_tiny_instance
from ttcosched import solver
from ttcosched.model import (Activity, Instance, Platform, PrecedenceDAG,
                             derive_bounds)
from ttcosched.solver import (JC, ZJ, ModelInfeasible, build_model,
                              solve, solve_instance)
from ttcosched.validation import validate


def _single(p=10, e=2, jit=100):
    plat = Platform(cores=1)
    return Instance((Activity(0, "task", p, e, jit, 0),), plat, PrecedenceDAG(1))


def test_single_activity_trivial():
    res = solve_instance(_single(), mode=JC)
    assert res.feasible
    assert res.schedule.starts == ((0,),)
    # alone on its resource, every job lands at its period start
    plat = Platform(cores=2)
    inst = Instance((Activity(0, "task", 5, 2, 100, 0),
                     Activity(1, "task", 15, 1, 100, 1)),
                    plat, PrecedenceDAG(2))
    res = solve_instance(inst, mode=JC)
    assert res.feasible
    assert res.schedule.starts[0] == (0, 5, 10)


def test_model_infeasible_on_empty_window():
    # chain so long that before+after+e exceeds even the two-period window
    plat = Platform(cores=1)
    acts = tuple(Activity(i, "task", 2, 1, 100, 0) for i in range(5))
    inst = Instance(acts, plat,
                    PrecedenceDAG(5, [(i, i + 1) for i in range(4)]))
    with pytest.raises(ModelInfeasible):
        build_model(inst, mode=JC)
    assert solve_instance(inst, mode=JC).status == "infeasible"
    # without the bound refinement the windows stay open and the search
    # itself proves infeasibility
    assert solve_instance(inst, mode=JC, improvements=False).status == "infeasible"


def test_improvement1_prunes_disjoint_windows():
    # long unit chain on one core tightens the tail's window past the head of
    # a short-period activity's first job
    plat = Platform(cores=1)
    acts = [Activity(0, "task", 4, 1, 100, 0)]
    n_chain = 10
    for i in range(1, n_chain + 1):
        acts.append(Activity(i, "task", 24, 1, 100, 0))
    edges = [(i, i + 1) for i in range(1, n_chain)]
    inst = Instance(tuple(acts), plat, PrecedenceDAG(n_chain + 1, edges))
    model_on = build_model(inst, mode=JC, improvements=True)
    model_off = build_model(inst, mode=JC, improvements=False)
    bounds = derive_bounds(inst)
    assert bounds.before[n_chain] == 9
    tail_first = ((0, 1), (n_chain, 1))
    pairs_on = {p.jobs for p in model_on.pairs if not p.wrap}
    pairs_off = {p.jobs for p in model_off.pairs if not p.wrap}
    assert tail_first not in pairs_on        # windows [0,7] vs [9,47]
    assert tail_first in pairs_off
    assert len(model_on.pairs) < len(model_off.pairs)


def test_zj_lcm_pair_count():
    plat = Platform(cores=1)
    acts = (Activity(0, "task", 6, 1, 0, 0), Activity(1, "task", 9, 1, 0, 0))
    inst = Instance(acts, plat, PrecedenceDAG(2))
    model = build_model(inst, mode=ZJ)
    grid = [p for p in model.pairs if not p.wrap]
    wraps = [p for p in model.pairs if p.wrap]
    assert len(grid) == 3 * 2   # lcm 18: j <= 3, k <= 2
    assert len(wraps) == 2
    # ZJ model has one variable per activity
    assert len(model.job_vars) == 2


def test_jitter_kept_boundary():
    # single unconstrained activity: slack I = p - e = 8
    plat = Platform(cores=2)

    def inst(jit):
        return Instance((Activity(0, "task", 10, 2, jit, 0),
                         Activity(1, "task", 20, 1, 100, 1)),
                        plat, PrecedenceDAG(2))

    kept = build_model(inst(6), mode=JC).jitter_kept
    assert kept == [0]          # jit = I - 2: constraint stays
    kept = build_model(inst(7), mode=JC).jitter_kept
    assert kept == []           # jit = I - 1: omitted
    kept = build_model(inst(7), mode=JC, improvements=False).jitter_kept
    assert kept == [0]          # improvements off keep everything


def test_motivating_example_verdicts():
    inst = fig1_witness()
    assert solve_instance(inst, mode=ZJ, time_limit=30).status == "infeasible"
    res = solve_instance(inst, mode=JC, time_limit=30)
    assert res.feasible
    assert validate(inst, res.schedule).ok


def test_oracle_equivalence_sample():
    rng = random.Random(101)
    for k in range(25):
        inst = random_tiny_instance(rng)
        for mode in (ZJ, JC):
            expect = brute_force(inst, mode) is not None
            for improvements in (True, False):
                res = solve_instance(inst, mode=mode,
                                     improvements=improvements, time_limit=30)
                assert res.status != "timeout"
                assert res.feasible == expect, (
                    f"instance {k} mode {mode} improvements {improvements}")


def test_relaxation_monotonicity():
    rng = random.Random(55)
    for _ in range(15):
        inst = random_tiny_instance(rng)
        if solve_instance(inst, mode=ZJ, time_limit=30).feasible:
            for div in (10, 5, 2):
                jc = inst.with_jitter(lambda a: a.period // div)
                assert solve_instance(jc, mode=JC, time_limit=30).feasible


def test_jitter_monotonicity():
    rng = random.Random(56)
    checked = 0
    for _ in range(20):
        inst = random_tiny_instance(rng)
        feas = {}
        for div in (0, 10, 5, 2):
            jit_of = (lambda a: 0) if div == 0 else (
                lambda a: a.period // div)
            jc = inst.with_jitter(jit_of)
            feas[div] = solve_instance(jc, mode=JC, time_limit=30).feasible
        if feas[0]:
            assert feas[10] and feas[5] and feas[2]
            checked += 1
        if feas[10]:
            assert feas[5] and feas[2]
        if feas[5]:
            assert feas[2]
    assert checked >= 1


def test_variable_accounting():
    inst = fig1_witness()
    bounds = derive_bounds(inst)
    model = build_model(inst, bounds, mode=JC)
    n_jobs = bounds.total_jobs
    assert len(model.job_vars) == n_jobs
    grid = [p for p in model.pairs if not p.wrap]
    assert len(grid) <= n_jobs * (n_jobs - 1) // 2


def test_solver_schedule_always_validates():
    rng = random.Random(77)
    for _ in range(20):
        inst = random_tiny_instance(rng)
        res = solve_instance(inst, mode=JC, time_limit=30)
        if res.feasible:
            assert validate(inst, res.schedule).ok


def test_solve_raises_when_its_schedule_fails_validation(monkeypatch):
    model = build_model(fig1_witness(), mode=JC)
    report = validate(model.instance, solve(model).schedule)
    monkeypatch.setattr(solver, "validate",
                        lambda *_: dataclasses.replace(report, ok=False))
    with pytest.raises(RuntimeError, match="invalid schedule"):
        solve(model)
