import csv
import json
from pathlib import Path

from ttcosched import cli
from ttcosched.bench import (ExperimentSpec, SweepLimits, apply_mode,
                             apply_zj_fraction, max_util_sweep,
                             rewrite_periods, run_experiment)
from ttcosched.gantt import render_gantt
from ttcosched.generator import GenParams, generate
from ttcosched.model import Activity, Instance, Platform, PrecedenceDAG
from ttcosched.serialize import (instance_from_dict, instance_to_dict,
                                 load_instance, load_schedule, save_instance,
                                 schedule_from_dict, schedule_to_dict)
from ttcosched.solver import solve_instance
from ttcosched.validation import Schedule


def _base(pa=1000, pb=1500, ea=200, eb=300):
    plat = Platform(cores=1)
    acts = (Activity(0, "task", pa, ea, 0, 0), Activity(1, "task", pb, eb, 0, 0))
    return Instance(acts, plat, PrecedenceDAG(2), name="bench-mini")


def test_apply_mode():
    inst = _base()
    zj = apply_mode(inst, "zj")
    assert all(a.jitter == 0 for a in zj.activities)
    jc = apply_mode(inst, "jc:p5")
    assert [a.jitter for a in jc.activities] == [200, 300]
    half = apply_mode(inst, "jc:p2")
    assert [a.jitter for a in half.activities] == [500, 750]


def test_apply_zj_fraction():
    inst = generate(GenParams.from_set(1, 0))
    hyper = inst.hyper_period()
    total = sum(hyper // a.period for a in inst.activities)
    for pct in (0, 35, 100):
        out = apply_zj_fraction(inst, pct)
        zj_jobs = sum(hyper // a.period for a in out.activities if a.jitter == 0)
        if pct == 0:
            assert zj_jobs == 0
        else:
            assert zj_jobs >= total * pct / 100.0
        for a in out.activities:
            if a.jitter != 0:
                assert a.jitter == a.period // 5


def test_sweep_stop_rule_and_modes():
    inst = _base()
    limits = SweepLimits(time_limit=20)
    zj = max_util_sweep(inst, "exact", "zj", limits)
    assert zj.max_util > 0
    assert zj.points[-1].status != "feasible"       # stopped at first failure
    assert all(p.status == "feasible" for p in zj.points[:-1])
    jc = max_util_sweep(inst, "exact", "jc:p2", limits, dict(zj.witnesses))
    assert jc.max_util >= zj.max_util               # relaxation monotone
    assert any(p.source == "witness" for p in jc.points)
    h = max_util_sweep(inst, "3ls", "zj", limits)
    assert 0 < h.max_util <= zj.max_util + 0  # heuristic never beats exact+carry here


def test_rewrite_periods():
    inst = generate(GenParams.from_set(1, 0))
    mono = rewrite_periods(inst, "mono")
    assert {a.period for a in mono.activities} == {10_000}
    nh = rewrite_periods(inst, "non-harmonic")
    assert {a.period for a in nh.activities} <= {2000, 5000, 7000, 12000}
    for i, l in nh.dag.edges:
        assert nh.activities[i].period == nh.activities[l].period


def test_run_experiment_csv_deterministic(tmp_path):
    spec = ExperimentSpec(
        experiment="jitter-sweep", sets=(1,), seeds=(0,), methods=("3ls",),
        jitter_modes=("zj", "jc:p2"),
        limits=SweepLimits(time_limit=10, u_start=10, u_max=14),
    )
    files_a = run_experiment(spec, tmp_path / "a")
    files_b = run_experiment(spec, tmp_path / "b")

    def strip_wall(path):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row.pop("wall_s", None)
        return rows

    assert strip_wall(files_a["points"]) == strip_wall(files_b["points"])
    assert (files_a["summary"]).read_text() == (files_b["summary"]).read_text()


def _pinned_rows(modes, variants=(None,)):
    """points.csv rows, but wall_s, of 3-LS on set 1, seed 0, at 10-12%:
    the first mode's sweep finds every point, and each later mode reuses
    its schedules."""
    rows = []
    for variant in variants:
        for m, mode in enumerate(modes):
            for u in (10, 11, 12):
                row = {"instance": "set1-seed0" + (f"-{variant}" if variant else ""),
                       "max_util": "12", "method": "3ls", "mode": mode,
                       "seed": "0", "set": "1",
                       "source": "witness" if m else "heuristic",
                       "status": "feasible", "u": str(u)}
                if variant:
                    row["variant"] = variant
                rows.append(row)
    return rows


def test_run_experiment_pins_the_zj_fraction_and_period_studies(tmp_path):
    expected = {
        "zj-fraction-sweep": _pinned_rows(
            [f"jc:frac{p}" for p in range(100, -1, -5)]),
        "period-study": _pinned_rows(
            ("zj", "jc:p5"), ("mono", "harmonic", "initial", "non-harmonic")),
    }
    for name, rows in expected.items():
        spec = ExperimentSpec(
            experiment=name, sets=(1,), seeds=(0,), methods=("3ls",),
            limits=SweepLimits(time_limit=10, u_start=10, u_max=12))
        files = run_experiment(spec, tmp_path / name)
        with open(files["points"]) as fh:
            got = list(csv.DictReader(fh))
        for row in got:
            del row["wall_s"]
        assert got == rows, name


def test_render_gantt():
    inst = _base()
    empty = render_gantt(inst, None)
    assert "<svg" in empty and "hsl" not in empty
    res = solve_instance(inst, mode="jc", time_limit=20)
    svg = render_gantt(inst, res.schedule)
    assert svg.count("hsl") == sum(
        inst.hyper_period() // a.period for a in inst.activities)
    assert render_gantt(inst, res.schedule) == svg  # deterministic


def test_serialize_round_trip(tmp_path):
    inst = generate(GenParams.from_set(1, 2))
    data = instance_to_dict(inst)
    again = instance_from_dict(json.loads(json.dumps(data)))
    assert instance_to_dict(again) == data
    res = solve_instance(_base(), mode="jc", time_limit=20)
    sdata = schedule_to_dict(res.schedule)
    s2 = schedule_from_dict(json.loads(json.dumps(sdata)))
    assert s2 == res.schedule


def test_cli_end_to_end(tmp_path):
    inst_path = tmp_path / "inst.json"
    sched_path = tmp_path / "sched.json"
    assert cli.main(["generate", "--set", "1", "--seed", "0",
                     "--utilization", "30", "-o", str(inst_path)]) == 0
    assert cli.main(["solve", "-i", str(inst_path), "--method", "3ls",
                     "--jit", "jc:p5", "--time-limit", "30",
                     "-o", str(sched_path)]) == 0
    assert cli.main(["validate", "-i", str(inst_path),
                     "-s", str(sched_path)]) == 0
    smt_path = tmp_path / "model.smt2"
    assert cli.main(["export", "-i", str(inst_path), "--format", "smt2",
                     "--jit", "jc:p5", "-o", str(smt_path)]) == 0
    assert "(set-logic QF_LIA)" in smt_path.read_text()
    lp_path = tmp_path / "model.lp"
    assert cli.main(["export", "-i", str(inst_path), "--format", "lp",
                     "-o", str(lp_path)]) == 0
    svg_path = tmp_path / "gantt.svg"
    assert cli.main(["gantt", "-i", str(inst_path), "-s", str(sched_path),
                     "-o", str(svg_path)]) == 0
    assert cli.main(["validate", "-i", str(inst_path),
                     "-s", "missing.json"]) == 3
    # infeasible exit code
    bad = _base()
    bad = bad.with_activities([
        Activity(0, "task", 1000, 900, 0, 0),
        Activity(1, "task", 1500, 1400, 0, 0)])
    save_instance(bad, tmp_path / "bad.json")
    assert cli.main(["solve", "-i", str(tmp_path / "bad.json"),
                     "--method", "exact", "--mode", "zj"]) == 1


def test_cli_map_and_sweep(tmp_path):
    inst_path = tmp_path / "inst.json"
    cli.main(["generate", "--set", "1", "--seed", "1", "-o", str(inst_path)])
    out_path = tmp_path / "mapped.json"
    assert cli.main(["map", "-i", str(inst_path), "--method", "greedy",
                     "-o", str(out_path)]) == 0
    load_instance(out_path)
    sweep_csv = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "-i", str(inst_path), "--method", "3ls",
                     "--mode", "zj", "--time-limit", "10",
                     "--u-start", "10", "--u-max", "12",
                     "-o", str(sweep_csv)]) == 0
    assert sweep_csv.exists()
