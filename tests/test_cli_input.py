"""Malformed input files exit with code 3 and never raise."""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from ttcosched import cli
from ttcosched.heuristic import run_3ls
from ttcosched.model import MESSAGE, TASK, Activity, Instance, Platform, PrecedenceDAG
from ttcosched.serialize import instance_to_dict, schedule_to_dict


def _tiny():
    """Two cores, a message between them on a chain, and a faster task."""
    plat = Platform(cores=2)
    acts = (Activity(0, TASK, 4, 1, 0, 0),
            Activity(1, TASK, 4, 1, 0, 1),
            Activity(2, MESSAGE, 4, 1, 0, plat.port_of(1), size=8,
                     sender=0, receiver=1),
            Activity(3, TASK, 2, 1, 1, 0))
    return Instance(acts, plat, PrecedenceDAG(4, [(0, 2), (2, 1)]), ((0, 2, 1),))


TINY = _tiny()
SCHEDULE, _stats = run_3ls(TINY)
INSTANCE_DICT = instance_to_dict(TINY)
SCHEDULE_DICT = schedule_to_dict(SCHEDULE)


def _run(directory, instance, schedule):
    """Exit codes of ``validate`` and of a 1 s 3-LS ``solve`` on the files."""
    inst_path, sched_path = directory / "instance.json", directory / "schedule.json"
    inst_path.write_text(json.dumps(instance))
    sched_path.write_text(json.dumps(schedule))
    return (cli.main(["validate", "-i", str(inst_path), "-s", str(sched_path)]),
            cli.main(["solve", "-i", str(inst_path), "--method", "3ls",
                      "--time-limit", "1"]))


def test_the_unmutated_files_are_valid_and_feasible(tmp_path):
    assert _run(tmp_path, INSTANCE_DICT, SCHEDULE_DICT) == (0, 0)


def test_a_hyper_period_past_the_tick_range_is_an_input_error(tmp_path):
    primes = (1000003, 1000033, 1000037, 1000039, 1000081)
    acts = tuple(Activity(i, TASK, p, 1, 0, 0) for i, p in enumerate(primes))
    inst = Instance(acts, Platform(cores=1), PrecedenceDAG(len(acts)))
    path = tmp_path / "primes.json"
    path.write_text(json.dumps(instance_to_dict(inst)))
    for method in ("3ls", "exact"):
        assert cli.main(["solve", "-i", str(path), "--method", method,
                         "--time-limit", "1"]) == cli.EXIT_INPUT


def test_non_integer_fields_are_input_errors(tmp_path):
    for value in ("0", 1.5, True, None):
        bad = copy.deepcopy(SCHEDULE_DICT)
        bad["starts"]["0"][0] = value
        assert _run(tmp_path, INSTANCE_DICT, bad)[0] == cli.EXIT_INPUT
    for field, value in (("exec", 1.5), ("jitter", 0.5), ("period", True),
                         ("sender", "0")):
        bad = copy.deepcopy(INSTANCE_DICT)
        bad["activities"][2][field] = value
        assert _run(tmp_path, bad, SCHEDULE_DICT) == (cli.EXIT_INPUT,) * 2


def test_zj_flags_other_than_json_booleans_are_input_errors(tmp_path):
    # a truthy string or number read as a stored zero-jitter flag would
    # change the schedule's memory_bytes
    for value in ("false", "no", "", 0.5, 0, 1, None, [False]):
        bad = copy.deepcopy(SCHEDULE_DICT)
        bad["zj"]["0"] = value
        assert _run(tmp_path, INSTANCE_DICT, bad)[0] == cli.EXIT_INPUT, value
    for value in (False, True):
        good = copy.deepcopy(SCHEDULE_DICT)
        good["zj"]["0"] = value
        assert _run(tmp_path, INSTANCE_DICT, good)[0] != cli.EXIT_INPUT, value


def test_a_message_needs_a_sender_and_a_receiver_task(tmp_path):
    for field, value in (("sender", 9), ("receiver", -1), ("receiver", 2),
                         ("sender", None)):
        bad = copy.deepcopy(INSTANCE_DICT)
        bad["activities"][2][field] = value
        assert _run(tmp_path, bad, SCHEDULE_DICT) == (cli.EXIT_INPUT,) * 2
    del bad["activities"][2]["sender"]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(bad))
    assert cli.main(["map", "-i", str(path), "-o", str(tmp_path / "out.json")]
                    ) == cli.EXIT_INPUT


def test_a_top_level_array_is_an_input_error(tmp_path):
    assert _run(tmp_path, [INSTANCE_DICT], SCHEDULE_DICT) == (cli.EXIT_INPUT,) * 2
    assert _run(tmp_path, INSTANCE_DICT, [SCHEDULE_DICT])[0] == cli.EXIT_INPUT


def test_an_unknown_jitter_policy_is_an_input_error(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(INSTANCE_DICT))
    assert cli.main(["solve", "-i", str(path), "--method", "3ls",
                     "--jit", "jc:zero"]) == cli.EXIT_INPUT


def _paths(node, prefix=()):
    """Every position in a JSON value, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(data, path, value):
    out = copy.deepcopy(data)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(-2, 50),
    st.text(max_size=3), st.lists(st.integers(-1, 5), max_size=3),
    st.dictionaries(st.sampled_from(["0", "1", "id"]), st.integers(0, 3),
                    max_size=2))
MUTATIONS = st.one_of(
    st.tuples(st.just("instance"), st.sampled_from(list(_paths(INSTANCE_DICT)))),
    st.tuples(st.just("schedule"), st.sampled_from(list(_paths(SCHEDULE_DICT)))))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(MUTATIONS, VALUES)
def test_one_mutated_field_never_raises(tmp_path_factory, mutation, value):
    which, path = mutation
    instance, schedule = INSTANCE_DICT, SCHEDULE_DICT
    if which == "instance":
        instance = _mutated(instance, path, value)
    else:
        schedule = _mutated(schedule, path, value)
    codes = _run(tmp_path_factory.getbasetemp(), instance, schedule)
    assert set(codes) <= {cli.EXIT_OK, cli.EXIT_INFEASIBLE, cli.EXIT_TIMEOUT,
                          cli.EXIT_INPUT}
