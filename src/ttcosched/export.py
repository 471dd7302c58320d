"""Text exports of a built model for external solvers.

SMT-LIB2 (QF_LIA) and CPLEX-style LP files carry the constraint lists the
native search solves, and nothing else: the variable bounds, each arc
``(u, v, c)`` of ``model.arcs`` as s_u + c <= s_v, and each pair of
``model.pairs`` as s_u + a <= s_v or s_v + b <= s_u.  The LP writes a pair
as two big-M rows, each side with the least M that relaxes it over the
variable bounds.  A decoder turns an external solver's model output back
into a schedule.
"""

from __future__ import annotations

import re

from .serialize import instance_hash
from .solver import BuiltModel, _decode
from .validation import Schedule


def _num(n: int) -> str:
    return str(n) if n >= 0 else f"(- {-n})"


def _names(model: BuiltModel) -> list[str]:
    return [f"s_{v.act}_{v.job}" for v in model.job_vars]


def export_smtlib(model: BuiltModel) -> str:
    names = _names(model)
    out = [
        f"; instance {instance_hash(model.instance)} mode {model.mode} "
        f"improvements {'on' if model.improvements else 'off'}",
        "(set-option :produce-models true)",
        "(set-logic QF_LIA)",
    ]
    for name in names:
        out.append(f"(declare-fun {name} () Int)")
    out.append("; variable bounds")
    for v, name in zip(model.job_vars, names):
        out.append(f"(assert (<= {_num(v.lb)} {name}))")
        out.append(f"(assert (<= {name} {_num(v.ub)}))")
    out.append("; resource constraints")
    for pair in model.pairs:
        su, sv = names[pair.u], names[pair.v]
        out.append(f"(assert (or (<= (+ {su} {_num(pair.a)}) {sv}) "
                   f"(<= (+ {sv} {_num(pair.b)}) {su})))")
    out.append("; precedence and jitter constraints")
    for u, v, c in model.arcs:
        out.append(f"(assert (<= (+ {names[u]} {_num(c)}) {names[v]}))")
    out.append("(check-sat)")
    out.append("(get-model)")
    return "\n".join(out) + "\n"


def _lp_row(name: str, pos: str, neg: str, xterm: str, rhs: int) -> str:
    lhs = f"{pos} - {neg}"
    if xterm:
        lhs += f" {xterm}"
    return f" {name}: {lhs} <= {rhs}"


def export_lp(model: BuiltModel) -> str:
    names = _names(model)
    job_vars = model.job_vars
    out = [
        f"\\ instance {instance_hash(model.instance)} mode {model.mode} "
        f"improvements {'on' if model.improvements else 'off'}",
        "Minimize",
        f" obj: 0 {names[0]}",
        "Subject To",
    ]
    # resource pairs: s_u + a <= s_v + Ma(1-x); s_v + b <= s_u + Mb x
    for pidx, pair in enumerate(model.pairs):
        u, v = job_vars[pair.u], job_vars[pair.v]
        m_a = max(0, u.ub - v.lb + pair.a)
        m_b = max(0, v.ub - u.lb + pair.b)
        su, sv = names[pair.u], names[pair.v]
        out.append(_lp_row(f"res{pidx}a", su, sv, f"+ {m_a} x{pidx}",
                           m_a - pair.a))
        out.append(_lp_row(f"res{pidx}b", sv, su, f"- {m_b} x{pidx}",
                           -pair.b))
    for aidx, (u, v, c) in enumerate(model.arcs):
        out.append(_lp_row(f"arc{aidx}", names[u], names[v], "", -c))
    out.append("Bounds")
    for v, name in zip(job_vars, names):
        out.append(f" {v.lb} <= {name} <= {v.ub}")
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
