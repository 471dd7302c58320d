"""``search.Engine`` explores the same tree as the reference engine.

Both engines get the same constraints, added in the same order, and must
return the same status, the same vector and the same node count from
``solve_feasible_limited`` and from ``minimize_sum``.
"""

import random

import pytest

from oracle_utils import random_tiny_instance
from search_oracle import Engine as OracleEngine
from ttcosched import bench, generator, solver
from ttcosched.generator import GenParams
from ttcosched.intervals import IntervalSet
from ttcosched.search import UNSAT, Engine, SearchStats


class _Recorder:
    """Stands in for ``Engine`` while the solver builds one; keeps the calls
    and ends the solve with UNSAT."""

    built: list = []

    def __init__(self, domains):
        self.domains = list(domains)
        self.calls = []
        _Recorder.built.append(self)

    def add_arc(self, *args):
        self.calls.append(("add_arc", args))

    def add_disjunction(self, *args):
        self.calls.append(("add_disjunction", args))

    def solve_feasible_limited(self, time_limit, node_limit):
        return UNSAT, None, SearchStats()


def _model_calls(monkeypatch, instance, mode):
    """The constraints of the first engine ``solver.solve`` builds, or None
    when the model is infeasible before search."""
    try:
        model = solver.build_model(instance, mode=mode)
    except solver.ModelInfeasible:
        return None
    _Recorder.built = []
    with monkeypatch.context() as m:
        m.setattr(solver, "Engine", _Recorder)
        solver.solve(model)
    (rec,) = _Recorder.built
    return rec.domains, rec.calls


def _random_calls(rng, gapped):
    nv = rng.randint(3, 9)
    domains = []
    for _ in range(nv):
        x = rng.randint(0, 6)
        pieces = []
        for _p in range(rng.randint(1, 4) if gapped else 1):
            lo = x + rng.randint(0, 4)
            hi = lo + rng.randint(0, 12 if gapped else 30)
            pieces.append((lo, hi))
            x = hi + 2
        domains.append(IntervalSet(pieces))
    calls = []
    for _ in range(rng.randint(0, nv // 2)):
        u, v = rng.sample(range(nv), 2)
        calls.append(("add_arc", (u, v, rng.randint(-6, 6))))
    for _ in range(rng.randint(nv, 3 * nv)):
        u, v = rng.sample(range(nv), 2)
        calls.append(("add_disjunction",
                      (u, v, rng.randint(-1, 6), rng.randint(-1, 6))))
    rng.shuffle(calls)
    return domains, calls


def _build(cls, domains, calls):
    engine = cls(domains)
    for name, args in calls:
        getattr(engine, name)(*args)
    return engine


def _assert_same_tree(domains, calls, node_limit, label):
    runs = (lambda e: e.solve_feasible_limited(None, node_limit),
            lambda e: e.minimize_sum(node_limit=node_limit))
    for kind, run in zip(("feasible", "minimize"), runs):
        status, vector, stats = run(_build(Engine, domains, calls))
        want_status, want_vector, want_stats = run(
            _build(OracleEngine, domains, calls))
        assert (status, vector, stats.nodes) == (
            want_status, want_vector, want_stats.nodes), f"{label} {kind}"


@pytest.mark.parametrize("gapped", [False, True])
def test_random_engines_match_the_oracle(gapped):
    rng = random.Random(1600 + gapped)
    for trial in range(150):
        domains, calls = _random_calls(rng, gapped)
        _assert_same_tree(domains, calls, 2000, f"trial {trial}")


def test_tiny_instance_models_match_the_oracle(monkeypatch):
    rng = random.Random(77)
    for k in range(12):
        instance = random_tiny_instance(rng)
        for mode in (solver.ZJ, solver.JC):
            built = _model_calls(monkeypatch, instance, mode)
            if built is not None:
                _assert_same_tree(*built, 2000, f"instance {k} {mode}")


def test_set_models_at_30_percent_match_the_oracle(monkeypatch):
    for set_id in (1, 2):
        for seed in (0, 1):
            base = generator.generate(GenParams.from_set(set_id, seed))
            scaled = generator.scale_to_utilization(base, 0.30)
            for mode in ("zj", "jc:p5"):
                instance = bench.apply_mode(scaled, mode)
                solver_mode = solver.ZJ if mode == "zj" else solver.JC
                built = _model_calls(monkeypatch, instance, solver_mode)
                _assert_same_tree(*built, 150, f"set{set_id}-seed{seed}/{mode}")
