import random
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from lp_reader import read_lp, solve_lp
from oracle_utils import brute_force, fig1_witness, random_tiny_instance
from ttcosched.export import _num, export_lp, export_smtlib, parse_smt_model
from ttcosched.model import Activity, Instance, Platform, PrecedenceDAG
from ttcosched.solver import JC, ZJ, _decode, build_model, solve
from ttcosched.validation import Schedule, validate

GOLDEN = Path(__file__).parent / "golden"


def _single_job_model():
    plat = Platform(cores=1)
    inst = Instance((Activity(0, "task", 10, 2, 100, 0),), plat, PrecedenceDAG(1))
    return build_model(inst, mode=JC)


def test_smtlib_single_job_structure():
    text = export_smtlib(_single_job_model())
    assert "(set-logic QF_LIA)" in text
    assert "(declare-fun s_0_1 () Int)" in text
    assert "(assert (<= 0 s_0_1))" in text
    assert "(assert (<= s_0_1 18))" in text
    assert text.strip().endswith("(get-model)")
    assert text.splitlines()[0].startswith("; instance ")


def test_smtlib_resource_disjunction_shape():
    inst = fig1_witness()
    model = build_model(inst, mode=JC)
    text = export_smtlib(model)
    names = [f"s_{v.act}_{v.job}" for v in model.job_vars]
    # one disjunction per pair, its constants taken from the pair itself
    assert text.count("(or ") == len(model.pairs)
    for pair in model.pairs:
        su, sv = names[pair.u], names[pair.v]
        assert (f"(assert (or (<= (+ {su} {_num(pair.a)}) {sv}) "
                f"(<= (+ {sv} {_num(pair.b)}) {su})))") in text
    assert any(pair.wrap and pair.b < 0 for pair in model.pairs)


def test_lp_rows_and_big_m():
    inst = fig1_witness()
    model = build_model(inst, mode=JC)
    lp = read_lp(export_lp(model))
    names = [f"s_{v.act}_{v.job}" for v in model.job_vars]
    # each side's M is the most its left side can exceed the pair's gap
    # over the variable bounds, and no more
    for pidx, pair in enumerate(model.pairs):
        u, v = model.job_vars[pair.u], model.job_vars[pair.v]
        su, sv, x = names[pair.u], names[pair.v], f"x{pidx}"
        m_a = max(0, u.ub - v.lb + pair.a)
        m_b = max(0, v.ub - u.lb + pair.b)
        assert lp.rows[f"res{pidx}a"] == ({su: 1, sv: -1, x: m_a}, m_a - pair.a)
        assert lp.rows[f"res{pidx}b"] == ({sv: 1, su: -1, x: -m_b}, -pair.b)
    assert lp.binaries == {f"x{pidx}" for pidx in range(len(model.pairs))}
    text = export_lp(model)
    assert "Binaries" in text and "Bounds" in text and text.strip().endswith("End")


@pytest.mark.parametrize("mode", [ZJ, JC])
def test_lp_keeps_a_valid_schedule_whose_wrap_row_needs_more_than_2h(mode):
    pytest.importorskip("scipy")
    # one core, two tasks with p = H = 10 and e = 3
    inst = Instance((Activity(0, "task", 10, 3, 0, 0),
                     Activity(1, "task", 10, 3, 0, 0)),
                    Platform(cores=1), PrecedenceDAG(2))
    assert validate(inst, Schedule(((15,), (0,)), (True, True))).ok
    lp = read_lp(export_lp(build_model(inst, mode=mode)))
    hyper = inst.hyper_period()
    assert max(abs(c) for coef, _ in lp.rows.values()
               for var, c in coef.items() if var.startswith("x")) > 2 * hyper
    assert solve_lp(lp, fixed={"s_0_1": 15, "s_1_1": 0}) is not None


def test_lp_jitter_row_count():
    # activity 0 has three jobs whose windows are wider than its jitter: its
    # arcs are 2*(n-1) + 2 = 6, self and jitter arcs merged, and the LP
    # writes one row per arc of the model
    plat = Platform(cores=2)
    inst = Instance((Activity(0, "task", 10, 1, 2, 0),
                     Activity(1, "task", 30, 1, 100, 1)),
                    plat, PrecedenceDAG(2))
    model = build_model(inst, mode=JC)
    assert len(model.arcs) == 2 * (3 - 1) + 2
    text = export_lp(model)
    rows = [ln for ln in text.splitlines() if ln.lstrip().startswith("arc")]
    assert len(rows) == len(model.arcs)
    assert all("s_0_" in ln and "s_1_" not in ln for ln in rows)


def test_zj_export_variable_count():
    inst = fig1_witness()
    model = build_model(inst, mode=ZJ)
    text = export_smtlib(model)
    assert text.count("declare-fun") == inst.n
    lp = export_lp(model)
    bounds_lines = [ln for ln in lp.splitlines()
                    if re.match(r" -?\d+ <= s_", ln)]
    assert len(bounds_lines) == inst.n


def test_exports_deterministic():
    inst = fig1_witness()
    for mode in (ZJ, JC):
        model = build_model(inst, mode=mode)
        assert export_smtlib(model) == export_smtlib(build_model(inst, mode=mode))
        assert export_lp(model) == export_lp(build_model(inst, mode=mode))


def test_golden_files_stable():
    rng = random.Random(123)
    corpus = [("witness", fig1_witness())]
    for k in range(3):
        corpus.append((f"tiny{k}", random_tiny_instance(rng)))
    for name, inst in corpus:
        for mode in (ZJ, JC):
            model = build_model(inst, mode=mode)
            assert export_smtlib(model) == (GOLDEN / f"{name}_{mode}.smt2").read_text()
            assert export_lp(model) == (GOLDEN / f"{name}_{mode}.lp").read_text()


def test_parse_smt_model_round_trip():
    inst = fig1_witness()
    model = build_model(inst, mode=JC)
    res = solve(model, time_limit=30)
    assert res.feasible
    lines = ["sat", "(model"]
    for (act, job), idx in model.var_of.items():
        v = res.schedule.starts[act][job - 1]
        lines.append(f"  (define-fun s_{act}_{job} () Int {v})")
    lines.append(")")
    decoded = parse_smt_model(model, "\n".join(lines))
    assert decoded is not None
    assert decoded.starts == res.schedule.starts
    assert validate(inst, decoded).ok


def test_parse_smt_model_negative_and_missing():
    model = _single_job_model()
    text = "sat\n(model (define-fun s_0_1 () Int (- 3)))"
    decoded = parse_smt_model(model, text)
    assert decoded.starts == ((-3,),)
    assert parse_smt_model(model, "unsat") is None


def test_external_solver_if_available():
    z3 = shutil.which("z3")
    if z3 is None:
        return  # degraded path covered by the golden-file stability test
    rng = random.Random(9)
    for _ in range(5):
        inst = random_tiny_instance(rng)
        for mode in (ZJ, JC):
            model = build_model(inst, mode=mode)
            out = subprocess.run([z3, "-in"], input=export_smtlib(model),
                                 capture_output=True, text=True, timeout=60)
            verdict = out.stdout.splitlines()[0].strip()
            native = solve(model, time_limit=60)
            assert (verdict == "sat") == native.feasible
            if verdict == "sat":
                decoded = parse_smt_model(model, out.stdout)
                assert decoded is not None and validate(inst, decoded).ok


def test_highs_on_the_exported_lp_agrees_with_the_engine_and_the_oracle():
    # the LP text, read back and solved by HiGHS, is the model the native
    # engine solves: the same verdict as the engine and the brute-force
    # oracle, and every schedule it returns passes the validator
    pytest.importorskip("scipy")
    rng = random.Random(9)
    models = 0
    for k in range(200):
        inst = random_tiny_instance(rng)
        for mode in (ZJ, JC):
            model = build_model(inst, mode=mode)
            point = solve_lp(read_lp(export_lp(model)))
            expect = brute_force(inst, mode) is not None
            assert solve(model).feasible == expect, (k, mode)
            assert (point is not None) == expect, (k, mode)
            if point is not None:
                assignment = [point[f"s_{act}_{job}"]
                              for act, job in model.var_of]
                report = validate(inst, _decode(model, assignment))
                assert report.ok, (k, mode, report.violations[:3])
            models += 1
    assert models == 400
