"""Text exports of a built model for external solvers.

SMT-LIB2 (QF_LIA) and CPLEX-style LP files carry the identical constraint
system the native search uses, in the model's own surface form: big-M rows
with M = 2H for the resource disjunctions and the four-inequality relative
jitter linearisation.  A decoder turns an external solver's model output
back into a schedule.
"""

from __future__ import annotations

import re

from .serialize import instance_hash
from .solver import BuiltModel, _decode
from .validation import Schedule


def _var(act: int, job: int) -> str:
    return f"s_{act}_{job}"


def _num(n: int) -> str:
    return str(n) if n >= 0 else f"(- {-n})"


def _job_term(model: BuiltModel, act: int, job: int) -> str:
    """SMT term for the start of one job (offset form in ZJ mode)."""
    idx, off = model.var_expr(act, job)
    v = model.job_vars[idx]
    base = _var(v.act, v.job)
    return base if off == 0 else f"(+ {base} {off})"


def export_smtlib(model: BuiltModel) -> str:
    inst = model.instance
    bounds = model.bounds
    hyper = bounds.hyper_period
    out = [
        f"; instance {instance_hash(inst)} mode {model.mode} "
        f"improvements {'on' if model.improvements else 'off'}",
        "(set-option :produce-models true)",
        "(set-logic QF_LIA)",
    ]
    for v in model.job_vars:
        out.append(f"(declare-fun {_var(v.act, v.job)} () Int)")
    out.append("; variable bounds")
    for v in model.job_vars:
        name = _var(v.act, v.job)
        out.append(f"(assert (<= {_num(v.lb)} {name}))")
        out.append(f"(assert (<= {name} {_num(v.ub)}))")
    out.append("; resource constraints")
    for pair in model.pairs:
        (i, j), (l, k) = pair.jobs
        e_i = inst.activities[i].exec_time
        e_l = inst.activities[l].exec_time
        ti = _job_term(model, i, j)
        tl = _job_term(model, l, k)
        if pair.wrap:
            ti = f"(+ {ti} {hyper})"
        out.append(f"(assert (or (<= (+ {ti} {e_i}) {tl}) "
                   f"(<= (+ {tl} {e_l}) {ti})))")
    out.append("; precedence constraints")
    for u, v, c, _kind in model.prec_arcs:
        vu, vv = model.job_vars[u], model.job_vars[v]
        out.append(f"(assert (<= (+ {_var(vu.act, vu.job)} {_num(c)}) "
                   f"{_var(vv.act, vv.job)}))")
    if model.jitter_kept:
        out.append("; relative jitter constraints")
    for act in model.jitter_kept:
        a = inst.activities[act]
        n = bounds.jobs[act]
        for j in range(2, n + 1):
            prev = _job_term(model, act, j - 1)
            cur = _job_term(model, act, j)
            diff = f"(- {cur} (+ {prev} {a.period}))"
            out.append(f"(assert (<= {diff} {a.jitter}))")
            out.append(f"(assert (>= {diff} {_num(-a.jitter)}))")
        first = _job_term(model, act, 1)
        last = _job_term(model, act, n)
        diff = f"(- (+ {first} {hyper - a.period}) {last})"
        out.append(f"(assert (<= {diff} {a.jitter}))")
        out.append(f"(assert (>= {diff} {_num(-a.jitter)}))")
    out.append("(check-sat)")
    out.append("(get-model)")
    return "\n".join(out) + "\n"


def _lp_row(name: str, pos: str, neg: str, xterm: str, rhs: int) -> str:
    lhs = f"{pos} - {neg}"
    if xterm:
        lhs += f" {xterm}"
    return f" {name}: {lhs} <= {rhs}"


def export_lp(model: BuiltModel) -> str:
    inst = model.instance
    bounds = model.bounds
    hyper = bounds.hyper_period
    big_m = 2 * hyper
    out = [
        f"\\ instance {instance_hash(inst)} mode {model.mode} "
        f"improvements {'on' if model.improvements else 'off'}",
        "Minimize",
    ]
    first_var = _var(model.job_vars[0].act, model.job_vars[0].job)
    out.append(f" obj: 0 {first_var}")
    out.append("Subject To")

    def name_of(idx):
        v = model.job_vars[idx]
        return _var(v.act, v.job)

    # resource pairs: s_u + a <= s_v + M(1-x); s_v + b <= s_u + Mx
    for pidx, pair in enumerate(model.pairs):
        su, sv = name_of(pair.u), name_of(pair.v)
        x = f"x{pidx}"
        out.append(_lp_row(f"res{pidx}a", su, sv, f"+ {big_m} {x}",
                           big_m - pair.a))
        out.append(_lp_row(f"res{pidx}b", sv, su, f"- {big_m} {x}", -pair.b))
    for aidx, (u, v, c, kind) in enumerate(model.prec_arcs):
        out.append(_lp_row(f"{kind}{aidx}", name_of(u), name_of(v), "", -c))
    for act in model.jitter_kept:  # kept jitter rows exist only in JC mode
        a = inst.activities[act]
        n = bounds.jobs[act]
        for j in range(2, n + 1):
            prev, cur = _var(act, j - 1), _var(act, j)
            out.append(_lp_row(f"jit{act}_{j}u", cur, prev, "",
                               a.period + a.jitter))
            out.append(_lp_row(f"jit{act}_{j}l", prev, cur, "",
                               a.jitter - a.period))
        first, last = _var(act, 1), _var(act, n)
        out.append(_lp_row(f"jit{act}_wu", first, last, "",
                           a.jitter - hyper + a.period))
        out.append(_lp_row(f"jit{act}_wl", last, first, "",
                           a.jitter + hyper - a.period))
    out.append("Bounds")
    for v in model.job_vars:
        out.append(f" {v.lb} <= {_var(v.act, v.job)} <= {v.ub}")
    if model.pairs:
        out.append("Binaries")
        for pidx in range(len(model.pairs)):
            out.append(f" x{pidx}")
    out.append("End")
    return "\n".join(out) + "\n"


_MODEL_RE = re.compile(
    r"\(define-fun\s+s_(\d+)_(\d+)\s*\(\)\s*Int\s+(\(-\s*\d+\)|-?\d+)\s*\)")


def parse_smt_model(model: BuiltModel, text: str) -> Schedule | None:
    """Decode '(define-fun s_i_j () Int v)' lines into a schedule."""
    values: dict[tuple[int, int], int] = {}
    for m in _MODEL_RE.finditer(text):
        act, job = int(m.group(1)), int(m.group(2))
        raw = m.group(3)
        if raw.startswith("("):
            val = -int(raw.strip("()- \t"))
        else:
            val = int(raw)
        values[(act, job)] = val
    if not values:
        return None
    assignment = [0] * len(model.job_vars)
    for (act, job), idx in model.var_of.items():
        if (act, job) not in values:
            return None
        assignment[idx] = values[(act, job)]
    return _decode(model, assignment)
