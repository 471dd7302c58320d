"""The exact engine and the 3-LS pair search search the same trees as with
the constraint lists of ``constraint_reference``.

The exact engine now joins a self arc and the jitter arc on the same jobs
into one arc, and the pair search leaves out wrap pairs whose domain spans
cannot meet.  Neither changes the constraints' solutions, so both must
return the same status, vector and node count.
"""

import random

import constraint_reference
from oracle_utils import random_tiny_instance
from test_heuristic import _reaches_level2
from ttcosched import bench, generator, heuristic, search, solver
from ttcosched.generator import GenParams


def _engine_runs(model, node_limit):
    """(status, vector, nodes) of the first attempt of ``solver.solve``, from
    the engine and from the reference engine."""
    pairs = sorted(model.pairs, key=solver._pair_sort_key(model))
    runs = []
    for make in (solver._make_engine, constraint_reference.make_engine):
        status, vector, stats = make(model, pairs).solve_feasible_limited(
            None, node_limit)
        runs.append((status, vector, stats.nodes))
    return runs


def test_exact_engine_matches_the_reference_on_tiny_models():
    rng = random.Random(1700)
    compared = 0
    for k in range(30):
        instance = random_tiny_instance(rng)
        for mode in (solver.ZJ, solver.JC):
            for improvements in (True, False):
                try:
                    model = solver.build_model(instance, mode=mode,
                                               improvements=improvements)
                except solver.ModelInfeasible:
                    continue
                got, want = _engine_runs(model, 2000)
                assert got == want, (k, mode, improvements)
                compared += mode == solver.JC and bool(
                    constraint_reference.jitter_enforced(model))
    assert compared >= 20


def test_exact_engine_matches_the_reference_on_set_models_at_30_percent():
    for set_id in (1, 2):
        for seed in (0, 1):
            base = generator.generate(GenParams.from_set(set_id, seed))
            scaled = generator.scale_to_utilization(base, 0.30)
            for mode in ("zj", "jc:p5"):
                instance = bench.apply_mode(scaled, mode)
                model = solver.build_model(
                    instance, mode=solver.ZJ if mode == "zj" else solver.JC)
                got, want = _engine_runs(model, 2000)
                assert got == want, f"set{set_id}-seed{seed}/{mode}"


class _Recording(search.Engine):
    """Keeps (status, vector, nodes) of every ``minimize_sum``."""

    log: list = []

    def minimize_sum(self, time_limit=None, node_limit=None):
        status, vector, stats = super().minimize_sum(time_limit, node_limit)
        _Recording.log.append((status, vector, stats.nodes))
        return status, vector, stats


def _check_pair_searches(monkeypatch):
    """Run every pair search of 3-LS also through the reference, over the
    same domains; returns the list of searches compared."""
    sub_model = heuristic.sub_model
    compared = []

    def checked(instance, bounds, store, a1, a2=None, time_limit=None):
        if a2 is None:
            return sub_model(instance, bounds, store, a1)
        _Recording.log = []
        got = sub_model(instance, bounds, store, a1, a2)
        want = constraint_reference.pair_sub_model(instance, bounds, store, a1, a2)
        assert got == want, (a1, a2)
        runs = _Recording.log
        assert len(runs) in (0, 2) and runs[:1] == runs[1:], (a1, a2)
        compared.append(runs[:1])
        return got

    monkeypatch.setattr(heuristic, "Engine", _Recording)
    monkeypatch.setattr(constraint_reference, "Engine", _Recording)
    monkeypatch.setattr(heuristic, "sub_model", checked)
    return compared


def test_pair_search_matches_the_reference_where_3ls_reaches_level2(monkeypatch):
    compared = _check_pair_searches(monkeypatch)
    schedule, stats = heuristic.run_3ls(_reaches_level2())
    assert schedule is not None and stats.level2 == 1
    assert any(compared)


def test_pair_search_matches_the_reference_on_the_set1_sweeps(monkeypatch):
    compared = _check_pair_searches(monkeypatch)
    for seed in (0, 1):
        base = generator.generate(GenParams.from_set(1, seed))
        for mode in ("zj", "jc:p5"):
            bench.max_util_sweep(base, "3ls", mode)
    assert sum(1 for runs in compared if runs) >= 60
