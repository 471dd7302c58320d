import itertools
import random

import pytest

from ttcosched.intervals import IntervalSet
from ttcosched.search import INCUMBENT, OPTIMAL, SAT, UNSAT, Engine


def test_chain_least_solution():
    eng = Engine([IntervalSet.span(0, 10), IntervalSet.span(0, 10)])
    eng.add_arc(0, 1, 2)
    status, values, _ = eng.minimize_sum()
    assert status == OPTIMAL and values == [0, 2]


def test_union_domain_snapping():
    eng = Engine([IntervalSet([(5, 5), (7, 16)]), IntervalSet.span(0, 30)])
    eng.add_arc(1, 0, -1)   # s_1 - 1 <= s_0, i.e. s_0 >= s_1 - 1
    eng.add_arc(0, 1, 1)    # s_0 + 1 <= s_1
    status, values, _ = eng.minimize_sum()
    assert status == OPTIMAL
    assert values[0] == 5 and values[1] == 6


def test_disjunction_orders_two_jobs():
    eng = Engine([IntervalSet.span(0, 1), IntervalSet.span(0, 1)])
    eng.add_disjunction(0, 1, 1, 1)
    status, values, _ = eng.solve_feasible_limited()
    assert status == SAT
    assert sorted(values) == [0, 1]


def test_unsat_three_in_two_slots():
    eng = Engine([IntervalSet.span(0, 1)] * 3)
    for u, v in [(0, 1), (0, 2), (1, 2)]:
        eng.add_disjunction(u, v, 1, 1)
    status, _, _ = eng.solve_feasible_limited()
    assert status == UNSAT


def test_two_sided_arcs_tighten_both_ways():
    # band s1 - s0 in [4, 6] with s1 restricted to {9, 10}: least solution
    # must raise s0 to 3 rather than report failure
    eng = Engine([IntervalSet.span(0, 8), IntervalSet([(9, 10)])])
    eng.add_arc(0, 1, 4)     # s1 >= s0 + 4
    eng.add_arc(1, 0, -6)    # s0 >= s1 - 6
    status, values, _ = eng.minimize_sum()
    assert status == OPTIMAL
    assert values == [3, 9]


def test_infeasible_band():
    eng = Engine([IntervalSet.span(0, 1), IntervalSet([(9, 10)])])
    eng.add_arc(0, 1, 4)     # s1 >= s0 + 4
    eng.add_arc(1, 0, -6)    # s0 >= s1 - 6 -> s1 - s0 <= 6
    status, _, _ = eng.solve_feasible_limited()
    assert status == UNSAT


def _brute_min_sum(domains, arcs, disjunctions):
    best = None
    for combo in itertools.product(*[list(d.points()) for d in domains]):
        if any(combo[u] + c > combo[v] for u, v, c in arcs):
            continue
        ok = True
        for u, v, a, b in disjunctions:
            if not (combo[u] + a <= combo[v] or combo[v] + b <= combo[u]):
                ok = False
                break
        if ok and (best is None or sum(combo) < best):
            best = sum(combo)
    return best


def test_minimize_matches_brute_force_random():
    rng = random.Random(5)
    for trial in range(60):
        nv = rng.randint(2, 4)
        domains = []
        for _ in range(nv):
            pieces = []
            x = rng.randint(0, 4)
            for _p in range(rng.randint(1, 3)):
                lo = x + rng.randint(0, 3)
                hi = lo + rng.randint(0, 3)
                pieces.append((lo, hi))
                x = hi + 2
            domains.append(IntervalSet(pieces))
        arcs = []
        for _ in range(rng.randint(0, 3)):
            u, v = rng.sample(range(nv), 2)
            arcs.append((u, v, rng.randint(-4, 4)))
        disjunctions = []
        for _ in range(rng.randint(0, 2)):
            u, v = rng.sample(range(nv), 2)
            disjunctions.append((u, v, rng.randint(1, 3), rng.randint(1, 3)))
        eng = Engine(list(domains))
        for u, v, c in arcs:
            eng.add_arc(u, v, c)
        for u, v, a, b in disjunctions:
            eng.add_disjunction(u, v, a, b)
        status, values, _ = eng.minimize_sum()
        expected = _brute_min_sum(domains, arcs, disjunctions)
        if expected is None:
            assert status == UNSAT, f"trial {trial}"
        else:
            assert status == OPTIMAL and sum(values) == expected, f"trial {trial}"
            assert all(values[u] + c <= values[v] for u, v, c in arcs)


def test_feasible_matches_brute_force_random():
    rng = random.Random(6)
    for trial in range(60):
        nv = rng.randint(2, 5)
        domains = [IntervalSet.span(rng.randint(0, 3), rng.randint(4, 9))
                   for _ in range(nv)]
        eng = Engine(list(domains))
        arcs, disjunctions = [], []
        for _ in range(rng.randint(0, 4)):
            u, v = rng.sample(range(nv), 2)
            arcs.append((u, v, rng.randint(-3, 3)))
            eng.add_arc(*arcs[-1])
        for _ in range(rng.randint(0, 4)):
            u, v = rng.sample(range(nv), 2)
            disjunctions.append((u, v, rng.randint(1, 4), rng.randint(1, 4)))
            eng.add_disjunction(*disjunctions[-1])
        status, values, _ = eng.solve_feasible_limited()
        expected = _brute_min_sum(domains, arcs, disjunctions)
        assert (status == SAT) == (expected is not None), f"trial {trial}"
        if status == SAT:
            assert all(values[u] + c <= values[v] for u, v, c in arcs)
            for u, v, a, b in disjunctions:
                assert values[u] + a <= values[v] or values[v] + b <= values[u]


def test_node_limit_returns_incumbent_or_timeout():
    eng = Engine([IntervalSet.span(0, 3)] * 6)
    for u in range(6):
        for v in range(u + 1, 6):
            eng.add_disjunction(u, v, 1, 1)
    status, values, _ = eng.minimize_sum(node_limit=0)
    assert status in (INCUMBENT, "timeout")


def test_gapped_snap_raising_the_decided_tail_is_no_cycle():
    # deciding s_0 + 1 <= s_1 snaps s_1 to 5, which lifts s_0 to 10 through
    # s_1 - 1 <= s_0: the tail rises, yet the reason loop weighs 0, so the
    # decision must stand and give the least solution
    eng = Engine([IntervalSet([(0, 0), (10, 10)]),
                  IntervalSet([(0, 0), (5, 20)])])
    eng.add_arc(1, 0, -1)
    eng.add_disjunction(0, 1, 1, 100)
    status, values, _ = eng.solve_feasible_limited()
    assert status == SAT and values == [10, 11]


def test_cycle_closing_decision_fails_without_going_round():
    n = 40

    def ring(closed):
        eng = Engine([IntervalSet.span(0, 10**6)] * n)
        for i in range(n - 1):
            eng.add_arc(i, i + 1, 0)
        if closed:
            # s_39 + 1 <= s_0 closes a positive cycle; the other side
            # leaves every domain
            eng.add_disjunction(n - 1, 0, 1, 10**7)
        return eng.solve_feasible_limited()

    status, _, alone = ring(False)
    assert status == SAT
    status, _, stats = ring(True)
    assert status == UNSAT
    # failing both sides costs a few passes round the ring, not a crawl of
    # the bounds round the cycle one tick per lap
    assert stats.propagations - alone.propagations < 4 * n


def test_root_positive_cycle_trips_the_walk():
    # no decision closes this cycle: it is there from the start, so only the
    # count of bound changes stops the bounds going round it
    n = 40
    eng = Engine([IntervalSet.span(0, 10**4)] * n)
    for i in range(n - 1):
        eng.add_arc(i, i + 1, 0)
    eng.add_arc(n - 1, 0, 1)
    status, _, stats = eng.solve_feasible_limited()
    assert status == UNSAT
    # the walk runs once 8 n changes have passed (looked at every 1024
    # changes), against 10**4 laps of a crawl to the end of the domain
    assert stats.propagations < 4 * n * (n + 9)


def _repeated_side_engine(kind, k=40):
    """A side that fails after ``k`` bound changes, decided again in a second
    subtree under the same other sides: three unit jobs ``y`` in two slots
    make the search go back over the first pair of them, past disjunction 1.

    ``cycle``: its first side closes the zero-weight chain ``0 -> ... -> k-1``
    into a positive cycle.  ``bound``: its first side pushes the chain of
    weight-1 arcs past the last variable's domain."""
    if kind == "cycle":
        domains = [IntervalSet.span(0, 10**6)] * k
    else:
        domains = ([IntervalSet.span(i, 10**6) for i in range(k - 1)]
                   + [IntervalSet.span(k - 1, k)])
    z, y0, y1, y2 = k, k + 1, k + 2, k + 3
    eng = Engine(domains + [IntervalSet.span(0, 10)]
                 + [IntervalSet.span(0, 1)] * 3)
    for i in range(k - 1):
        eng.add_arc(i, i + 1, 0 if kind == "cycle" else 1)
    eng.add_disjunction(y0, y1, 1, 1)
    if kind == "cycle":
        eng.add_disjunction(k - 1, 0, 1, 1)
    else:
        eng.add_disjunction(z, 0, 2, 3)
    eng.add_disjunction(y0, y2, 1, 1)
    eng.add_disjunction(y1, y2, 1, 1)
    return eng


@pytest.mark.parametrize("kind", ["cycle", "bound"])
def test_a_failed_side_fails_again_without_propagating(kind):
    k = 40
    status, _, stats = _repeated_side_engine(kind, k).solve_feasible_limited()
    assert status == UNSAT and stats.nodes == 7
    # the first failure costs about k bound changes; the nogood it leaves
    # fails the side the second time before any bound moves
    assert stats.propagations < 3 * k // 2
