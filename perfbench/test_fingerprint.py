"""Pins the benchmark's deterministic counters on set 1, and checks its own
tracer and tail.

A change to 3-LS placements or levels, or to the size or search of the exact
model, shows here first.  When a change moves these counters on purpose,
update the pins and say why in CHANGES.md.
"""

import protocol
import tracing
import workloads
from ttcosched import bench, generator, heuristic, solver
from ttcosched.generator import GenParams
from ttcosched.validation import Schedule

SET1_SWEEPS = {
    "set1-seed0/jc:p5": {"end": "fail", "level1": 2301, "level2": 1, "level3": 2,
                         "max_util": 67, "points": 59, "schedule": "5c3b12dcc1534f6c",
                         "unschedules": 14},
    "set1-seed0/zj": {"end": "fail", "level1": 2639, "level2": 0, "level3": 7,
                      "max_util": 72, "points": 64, "schedule": "6cad2cd5aff9a2e6",
                      "unschedules": 51},
    "set1-seed1/jc:p5": {"end": "fail", "level1": 2259, "level2": 0, "level3": 1,
                         "max_util": 62, "points": 54, "schedule": "be67d12861e0e030",
                         "unschedules": 33},
    "set1-seed1/zj": {"end": "level3_exhausted", "level1": 1921, "level2": 45, "level3": 3,
                      "max_util": 52, "points": 44, "schedule": "e2c524ea7557b214",
                      "unschedules": 56},
}

# set-1 points the benchmark decides well inside its cap
SET1_EXACT = {
    "set1-seed0/jc:p5@30": {"nodes": 147, "pairs": 1606, "vars": 200, "verdict": "feasible"},
    "set1-seed0/zj@30": {"nodes": 51, "pairs": 912, "vars": 39, "verdict": "feasible"},
    "set1-seed0/zj@45": {"nodes": 6700, "pairs": 903, "vars": 39, "verdict": "feasible"},
    "set1-seed1/jc:p5@30": {"nodes": 107, "pairs": 1723, "vars": 209, "verdict": "feasible"},
    "set1-seed1/jc:p5@45": {"nodes": 2201, "pairs": 1628, "vars": 209, "verdict": "feasible"},
    "set1-seed1/zj@30": {"nodes": 44, "pairs": 900, "vars": 39, "verdict": "feasible"},
    "set1-seed1/zj@45": {"nodes": 2138, "pairs": 864, "vars": 39, "verdict": "feasible"},
}


def test_set1_sweep_counters():
    wl = workloads.SweepWorkload(protocol.INSTANCE_SEEDS, sets=(1,))
    bases = wl.setup()
    m = wl.measure(bases, wl.items, 0)
    fp = wl.fingerprint(bases, m)
    assert fp == SET1_SWEEPS
    assert wl.figures(fp)["monotone_violation_pairs"] == ["set1-seed0"]
    checks = workloads.Checks()
    wl.check(bases, m, checks)
    assert (checks.attempted, checks.failed) == (sum(e["points"] for e in fp.values()), 0)


def test_points_run_again_are_checked():
    wl = workloads.SweepWorkload((0,), sets=(1,))
    bases = wl.setup()
    (s, seed, mode) = key = wl.items[0]
    pt = bench.max_util_sweep(bases[(s, seed)], "3ls", mode).points[0]
    out, _wall = wl._point(bases[(s, seed)], mode, pt.u)
    feasible, status, schedule, via = out
    assert feasible
    late = Schedule(tuple(tuple(t + 10**6 for t in row) for row in schedule.starts),
                    schedule.zj)
    m = workloads.Measurement(
        point_times=[], median_times=[], tail_beyond=0, decided=0, pass_walls=[],
        peak_rss_mb=0.0, payload=[],
        retimed=[(*key, pt, out),
                 (*key, pt, (False, solver.INFEASIBLE, None, False)),
                 (*key, pt, (True, status, late, via)),
                 (*key, pt, RuntimeError("boom"))])
    checks = workloads.Checks()
    wl.check(bases, m, checks)
    assert (checks.attempted, checks.failed) == (6, 3)


def test_set1_exact_counters():
    # a generous cap: the pins are counters, not times
    wl = workloads.ExactWorkload(protocol.INSTANCE_SEEDS, sets=(1,), cap=30.0)
    wl.items = [pt for pt in wl.items if pt.label in SET1_EXACT]
    insts = wl.setup()
    m = wl.measure(insts, wl.items, 0)
    assert wl.fingerprint(insts, m) == SET1_EXACT
    checks = workloads.Checks()
    wl.check(insts, m, checks)
    assert checks.failed == 0


def test_tracer_counts_calls_and_restores_the_program():
    base = generator.generate(GenParams.from_set(1, 0))
    inst = bench.apply_mode(generator.scale_to_utilization(base, 0.5), "jc:p5")
    originals = (heuristic.run_3ls, bench.run_3ls, heuristic.DomainStore.domains)
    with tracing.Tracer() as tracer:
        assert bench.run_3ls is heuristic.run_3ls is not originals[0]
        heuristic.run_3ls(inst)
    assert (heuristic.run_3ls, bench.run_3ls, heuristic.DomainStore.domains) == originals
    assert tracer.calls("heuristic.run_3ls") == 1
    assert tracer.calls("heuristic.sub_model") >= tracer.counters["level1"] > 0
    assert tracer.calls("heuristic.DomainStore.window") == 0   # per-element helper
    layer = tracer.layer_metrics(1.0, 1.0)
    assert 0 < layer["heuristic.domains_share"][0] < 1


def test_tail_leaves_ten_samples_beyond():
    value, percentile, samples = workloads.tail([float(v) for v in range(100)])
    assert (value, samples) == (89.0, 100)
    assert round(percentile, 4) == round(100 * 89 / 99, 4)
    assert workloads.tail([3.0, 1.0, 2.0], beyond=0) == (3.0, 100.0, 3)

