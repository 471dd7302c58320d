"""JSON interchange for instances and schedules."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .model import Activity, Instance, Platform, PrecedenceDAG
from .validation import Schedule

SCHEMA = 1


class InputError(ValueError):
    """Malformed or unsupported input file."""


def instance_to_dict(instance: Instance) -> dict:
    p = instance.platform
    return {
        "schema": SCHEMA,
        "name": instance.name,
        "platform": {
            "cores": p.cores,
            "core_freq_hz": p.core_freq_hz,
            "mem_bandwidth": p.mem_bandwidth,
            "mem_latency_us": p.mem_latency_us,
            "granularity_us": p.granularity_us,
        },
        "activities": [
            {k: v for k, v in {
                "id": a.id, "kind": a.kind, "period": a.period,
                "exec": a.exec_time, "jitter": a.jitter, "resource": a.resource,
                "size": a.size, "sender": a.sender, "receiver": a.receiver,
            }.items() if v is not None}
            for a in instance.activities
        ],
        "dag_edges": sorted([i, l] for i, l in instance.dag.edges),
        "chains": [list(c) for c in instance.chains],
    }


def instance_from_dict(data: dict) -> Instance:
    try:
        if data.get("schema") != SCHEMA:
            raise InputError(f"unsupported schema {data.get('schema')!r}")
        pd = data["platform"]
        platform = Platform(
            cores=pd["cores"],
            core_freq_hz=pd.get("core_freq_hz", 125_000_000),
            mem_bandwidth=pd["mem_bandwidth"],
            mem_latency_us=pd.get("mem_latency_us", 0.0),
            granularity_us=pd.get("granularity_us", 1),
        )
        acts = tuple(
            Activity(
                id=ad["id"], kind=ad["kind"], period=ad["period"],
                exec_time=ad["exec"], jitter=ad.get("jitter", 0),
                resource=ad["resource"], size=ad.get("size"),
                sender=ad.get("sender"), receiver=ad.get("receiver"),
            )
            for ad in data["activities"]
        )
        dag = PrecedenceDAG(len(acts), [tuple(e) for e in data.get("dag_edges", [])])
        chains = tuple(tuple(c) for c in data.get("chains", []))
        return Instance(acts, platform, dag, chains,
                        name=data.get("name", "instance"))
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad instance file: {exc}") from exc


def schedule_to_dict(schedule: Schedule) -> dict:
    return {
        "schema": SCHEMA,
        "starts": {str(i): list(row) for i, row in enumerate(schedule.starts)},
        "zj": {str(i): bool(z) for i, z in enumerate(schedule.zj)},
    }


def schedule_from_dict(data: dict) -> Schedule:
    try:
        if data.get("schema") != SCHEMA:
            raise InputError(f"unsupported schema {data.get('schema')!r}")
        n = len(data["starts"])
        starts = tuple(tuple(data["starts"][str(i)]) for i in range(n))
        zj = tuple(bool(data["zj"][str(i)]) for i in range(n))
        return Schedule(starts, zj)
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad schedule file: {exc}") from exc


def canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def instance_hash(instance: Instance) -> str:
    blob = canonical_json(instance_to_dict(instance)).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def save_instance(instance: Instance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=1))


def load_instance(path) -> Instance:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read instance: {exc}") from exc
    return instance_from_dict(data)


def save_schedule(schedule: Schedule, path) -> None:
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=1))


def load_schedule(path) -> Schedule:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read schedule: {exc}") from exc
    return schedule_from_dict(data)
