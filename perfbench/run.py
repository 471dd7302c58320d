"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep-3ls --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it uses the program under ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
holds the details: environment, set-up repeats, tail percentile and sample
count, fingerprint, failures and, when traced, the per-callable table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

import protocol

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep-3ls", "exact-points"))
    ap.add_argument("--seed", type=int, required=True,
                    help="shuffles the order of sweeps and points")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measurement budget; one pass always runs whole")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="use the held-out instance seeds to confirm a claim")
    return ap.parse_args(argv)


def make_workload(name: str, held_out: bool):
    import workloads

    seeds = protocol.HELD_OUT_SEEDS if held_out else protocol.INSTANCE_SEEDS
    if name == "sweep-3ls":
        return workloads.SweepWorkload(seeds)
    return workloads.ExactWorkload(seeds)


def timed_setup(workload):
    """Set up several times; the last state and the median time."""
    times = []
    for _ in range(protocol.SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - t0)
    return state, statistics.median(times)


def end_to_end(m, setup_s: float, checks) -> tuple[dict, dict]:
    import workloads

    # no timed point (an exact run that decides none) fails a check and
    # reports its timings as 0
    tail, percentile, samples = (workloads.tail(m.point_times, m.tail_beyond)
                                 if m.point_times else (0.0, 0.0, 0))
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (m.peak_rss_mb, "MB"),
        "passed_share": ((checks.attempted - checks.failed) / checks.attempted, "share"),
        "wall_s": (m.wall_s, "s"),
        "points_per_s": (len(m.point_times) / m.wall_s if m.wall_s else 0.0, "1/s"),
        "point_p50_s": (statistics.median(m.median_times), "s"),
        "point_tail_s": (tail, "s"),
        "decided": (m.decided, "count"),
    }
    detail = {"pass_walls": m.pass_walls, "points": len(m.point_times),
              "points_run_again": len(m.retimed),
              "tail_percentile": percentile, "tail_samples": samples}
    return metrics, detail


def differences(old: dict, new: dict) -> list[str]:
    """Entries present in both fingerprints whose counters differ."""
    return [f"{key}: {old[key]} -> {new[key]}"
            for key in sorted(old.keys() & new.keys()) if old[key] != new[key]]


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SOURCE.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(source: str) -> dict:
    return {"python": platform.python_version(), "cpu": cpu_model(),
            "nproc": os.cpu_count(), "git_commit": git_commit(),
            "source_sha256": source}


def compare_stored(name: str, fingerprint: dict, source: str) -> dict:
    """Compare with the fingerprint an earlier run of the same code stored."""
    path = OUT / f"fingerprint-{name}.json"
    if path.is_file():
        stored = json.loads(path.read_text())
        if stored["source"] == source:
            return {"against": "earlier run of the same code",
                    "differences": differences(stored["fingerprint"], fingerprint)}
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"source": source, "fingerprint": fingerprint},
                              indent=1, sort_keys=True))
    os.replace(tmp, path)
    return {"against": None, "differences": []}


def main(argv=None) -> int:
    args = parse(argv)
    if not (SOURCE / "ttcosched" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import tracing
    import workloads

    workload = make_workload(args.workload, args.held_out)
    order = list(workload.items)
    random.Random(args.seed).shuffle(order)
    state, setup_s = timed_setup(workload)

    checks = workloads.Checks()
    detail: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                    "held_out": args.held_out,
                    "setup": {"median_s": setup_s, "repeats": protocol.SETUP_REPEATS}}
    if args.trace:
        untraced = workload.measure(state, order, 0)
        with tracing.Tracer() as tracer:
            state = workload.setup()
            measured = workload.measure(state, order, 0)
        metrics = tracer.layer_metrics(measured.pass_walls[0], untraced.pass_walls[0])
        detail["trace_table"] = tracer.summary()
        workload.check(state, untraced, checks)
        changed = differences(workload.fingerprint(state, untraced),
                              workload.fingerprint(state, measured))
        checks.record(not changed, f"tracing changed the results: {changed[:3]}")
    else:
        measured = workload.measure(state, order, args.seconds)
    workload.check(state, measured, checks)

    fingerprint = workload.fingerprint(state, measured)
    source = source_hash()
    stored_name = workload.name + ("-held-out" if args.held_out else "")
    stored = compare_stored(stored_name, fingerprint, source)
    checks.record(not stored["differences"],
                  f"fingerprint differs from an earlier run: {stored['differences'][:3]}")
    if not args.trace:
        metrics, extra = end_to_end(measured, setup_s, checks)
        detail.update(extra)
    detail.update(environment=environment(source), figures=workload.figures(fingerprint),
                  fingerprint=fingerprint, fingerprint_check=stored,
                  failures=checks.messages)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
