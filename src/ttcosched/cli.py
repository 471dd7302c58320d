"""Command-line interface.

Exit codes: 0 success/feasible, 1 infeasible, 2 timeout, 3 input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench, export, generator, mapping, serialize
from .heuristic import run_3ls
from .solver import FEASIBLE, INFEASIBLE, JC, TIMED_OUT, ZJ, build_model, solve_instance
from .validation import validate

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_TIMEOUT = 2
EXIT_INPUT = 3


def _parse_seeds(text: str):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return tuple(out)


def cmd_generate(args) -> int:
    if args.ems:
        inst = generator.ems_case_study(args.seed)
    else:
        inst = generator.generate(generator.GenParams.from_set(args.set, args.seed))
    if args.utilization:
        inst = generator.scale_to_utilization(inst, args.utilization / 100.0)
    if args.jit:
        inst = bench.apply_mode(inst, args.jit)
    serialize.save_instance(inst, args.output)
    print(f"wrote {args.output}: {inst.n} activities, "
          f"H={inst.hyper_period()} ticks")
    return EXIT_OK


def cmd_map(args) -> int:
    inst = serialize.load_instance(args.input)
    inst, m = mapping.remap_instance(inst, args.method, args.time_limit)
    serialize.save_instance(inst, args.output)
    print(f"objective {float(m.objective):.6f} "
          f"({'optimal' if m.optimal else 'best found'})")
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = serialize.load_instance(args.input)
    if args.jit:
        inst = bench.apply_mode(inst, args.jit)
    if args.method == "exact":
        mode = ZJ if args.mode == "zj" else JC
        res = solve_instance(inst, mode=mode,
                             improvements=not args.no_improvements,
                             time_limit=args.time_limit)
        status, schedule = res.status, res.schedule
        print(f"{status} nodes={res.stats.nodes} wall={res.stats.wall:.2f}s")
    else:
        work = bench.apply_mode(inst, "zj") if args.mode == "zj" else inst
        schedule, stats = run_3ls(work, time_limit=args.time_limit)
        status = FEASIBLE if schedule else (
            TIMED_OUT if stats.status == "timeout" else INFEASIBLE)
        print(f"{status} levels={stats.level1}/{stats.level2}/{stats.level3} "
              f"wall={stats.wall:.2f}s")
    if schedule is not None and args.output:
        serialize.save_schedule(schedule, args.output)
        print(f"wrote {args.output}")
    if status == FEASIBLE:
        return EXIT_OK
    return EXIT_TIMEOUT if status == TIMED_OUT else EXIT_INFEASIBLE


def cmd_validate(args) -> int:
    inst = serialize.load_instance(args.input)
    sched = serialize.load_schedule(args.schedule)
    report = validate(inst, sched)
    print(f"ok={report.ok} violations={len(report.violations)} "
          f"memory={report.memory_bytes}B")
    for v in report.violations[:20]:
        print(f"  {v.kind}: activity {v.activity} job {v.job}: {v.detail}")
    for res, u in enumerate(report.utilization):
        if u:
            print(f"  resource {res}: utilization {u:.3f}")
    return EXIT_OK if report.ok else EXIT_INFEASIBLE


def cmd_sweep(args) -> int:
    inst = serialize.load_instance(args.input)
    limits = bench.SweepLimits(time_limit=args.time_limit,
                               u_start=args.u_start, u_max=args.u_max)
    res = bench.max_util_sweep(inst, args.method, args.mode, limits)
    print(f"max utilization: {res.max_util}%")
    if args.output:
        rows = bench.sweep_rows("-", "-", [res])
        bench.write_csv(Path(args.output), rows)
        print(f"wrote {args.output}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    spec = bench.ExperimentSpec(
        experiment=args.name,
        sets=tuple(int(s) for s in args.sets.split(",")),
        seeds=_parse_seeds(args.seeds),
        methods=tuple(args.methods.split(",")),
        limits=bench.SweepLimits(time_limit=args.time_limit),
    )
    files = bench.run_experiment(spec, args.outdir)
    for label, path in files.items():
        print(f"{label}: {path}")
    return EXIT_OK


def cmd_export(args) -> int:
    inst = serialize.load_instance(args.input)
    if args.jit:
        inst = bench.apply_mode(inst, args.jit)
    mode = ZJ if args.mode == "zj" else JC
    model = build_model(inst, mode=mode,
                        improvements=not args.no_improvements)
    text = (export.export_smtlib(model) if args.format == "smt2"
            else export.export_lp(model))
    Path(args.output).write_text(text)
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_gantt(args) -> int:
    from .gantt import render_gantt
    inst = serialize.load_instance(args.input)
    sched = serialize.load_schedule(args.schedule) if args.schedule else None
    Path(args.output).write_text(render_gantt(inst, sched))
    print(f"wrote {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ttcosched",
        description="Time-triggered co-scheduling of tasks and messages "
                    "under precedence and jitter constraints")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic instance")
    g.add_argument("--set", type=int, default=1, choices=sorted(generator.SET_TABLE))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--ems", action="store_true",
                   help="engine-management case-study instance")
    g.add_argument("--utilization", type=float, default=0,
                   help="scale per-resource utilization to this percent")
    g.add_argument("--jit", default="", help="jitter mode, e.g. jc:p5 or zj")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_generate)

    m = sub.add_parser("map", help="re-map tasks to cores")
    m.add_argument("-i", "--input", required=True)
    m.add_argument("--method", default="greedy", choices=["exact", "greedy"])
    m.add_argument("--time-limit", type=float, default=None)
    m.add_argument("-o", "--output", required=True)
    m.set_defaults(func=cmd_map)

    s = sub.add_parser("solve", help="find a schedule")
    s.add_argument("-i", "--input", required=True)
    s.add_argument("--method", default="exact", choices=["exact", "3ls"])
    s.add_argument("--mode", default="jc", choices=["zj", "jc"])
    s.add_argument("--jit", default="", help="override jitter, e.g. jc:p5")
    s.add_argument("--time-limit", type=float, default=3000.0)
    s.add_argument("--no-improvements", action="store_true")
    s.add_argument("-o", "--output")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("validate", help="check a schedule against an instance")
    v.add_argument("-i", "--input", required=True)
    v.add_argument("-s", "--schedule", required=True)
    v.set_defaults(func=cmd_validate)

    w = sub.add_parser("sweep", help="max-utilization sweep on one instance")
    w.add_argument("-i", "--input", required=True)
    w.add_argument("--method", default="exact", choices=["exact", "3ls"])
    w.add_argument("--mode", default="jc:p5")
    w.add_argument("--time-limit", type=float, default=60.0)
    w.add_argument("--u-start", type=int, default=10)
    w.add_argument("--u-max", type=int, default=100)
    w.add_argument("-o", "--output")
    w.set_defaults(func=cmd_sweep)

    e = sub.add_parser("experiment", help="run a study protocol")
    e.add_argument("--name", required=True,
                   choices=["jitter-sweep", "zj-fraction-sweep",
                            "period-study", "ems"])
    e.add_argument("--sets", default="1")
    e.add_argument("--seeds", default="0")
    e.add_argument("--methods", default="exact")
    e.add_argument("--time-limit", type=float, default=3000.0)
    e.add_argument("--outdir", required=True)
    e.set_defaults(func=cmd_experiment)

    x = sub.add_parser("export", help="write SMT-LIB2 or LP text")
    x.add_argument("-i", "--input", required=True)
    x.add_argument("--format", required=True, choices=["smt2", "lp"])
    x.add_argument("--mode", default="jc", choices=["zj", "jc"])
    x.add_argument("--jit", default="")
    x.add_argument("--no-improvements", action="store_true")
    x.add_argument("-o", "--output", required=True)
    x.set_defaults(func=cmd_export)

    t = sub.add_parser("gantt", help="render a schedule as SVG")
    t.add_argument("-i", "--input", required=True)
    t.add_argument("-s", "--schedule")
    t.add_argument("-o", "--output", required=True)
    t.set_defaults(func=cmd_gantt)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (serialize.InputError, generator.ParamError, generator.ScaleError,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
