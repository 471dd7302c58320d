"""Reads the LP text ``export_lp`` writes and solves it with HiGHS.

The reader knows the file's sections (``Minimize``, ``Subject To``,
``Bounds``, ``Binaries``, ``End``) and rows of the form
``name: [sign] [coef] var ... <= rhs``.  It shares no code with the
exporter, so a test that solves the text checks what the file says, not
what the model holds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_NUMBER = re.compile(r"-?\d+")


@dataclass
class LinearProgram:
    columns: dict[str, int] = field(default_factory=dict)  # in first-use order
    rows: dict[str, tuple[dict[str, int], int]] = field(default_factory=dict)
    bounds: dict[str, tuple[int, int]] = field(default_factory=dict)
    binaries: set[str] = field(default_factory=set)

    def column(self, name: str) -> int:
        return self.columns.setdefault(name, len(self.columns))


def _terms(text: str) -> dict[str, int]:
    coef: dict[str, int] = {}
    sign, number = 1, None
    for tok in text.split():
        if tok in "+-":
            sign = 1 if tok == "+" else -1
        elif _NUMBER.fullmatch(tok):
            number = int(tok)
        else:
            coef[tok] = coef.get(tok, 0) + sign * (1 if number is None else number)
            sign, number = 1, None
    return coef


def read_lp(text: str) -> LinearProgram:
    lp = LinearProgram()
    section = None
    for line in text.splitlines():
        head = line.strip()
        if not head or head.startswith("\\"):
            continue
        if head in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
            section = head
            continue
        if section == "Subject To":
            name, _, rest = head.partition(":")
            lhs, _, rhs = rest.partition("<=")
            coef = _terms(lhs)
            lp.rows[name.strip()] = (coef, int(rhs))
            for var in coef:
                lp.column(var)
        elif section == "Bounds":
            lo, var, hi = (part.strip() for part in head.split("<="))
            lp.column(var)
            lp.bounds[var] = (int(lo), int(hi))
        elif section == "Binaries":
            lp.column(head)
            lp.binaries.add(head)
    return lp


def solve_lp(lp: LinearProgram, fixed: dict[str, int] | None = None):
    """``{name: value}`` of a feasible point found by HiGHS, or None when
    the program is infeasible.  ``fixed`` pins variables to values."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(lp.columns)
    lo = np.zeros(n)
    hi = np.ones(n)
    for var, (b_lo, b_hi) in lp.bounds.items():
        lo[lp.column(var)], hi[lp.column(var)] = b_lo, b_hi
    for var, value in (fixed or {}).items():
        lo[lp.column(var)] = hi[lp.column(var)] = value
    integrality = np.array([var in lp.binaries for var in lp.columns], dtype=int)
    constraints = ()
    if lp.rows:
        matrix = np.zeros((len(lp.rows), n))
        rhs = np.zeros(len(lp.rows))
        for r, (coef, bound) in enumerate(lp.rows.values()):
            for var, c in coef.items():
                matrix[r, lp.column(var)] = c
            rhs[r] = bound
        constraints = (LinearConstraint(matrix, -np.inf, rhs),)
    res = milp(np.zeros(n), constraints=constraints, integrality=integrality,
               bounds=Bounds(lo, hi))
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS stopped without a verdict: {res.message}")
    return {var: round(float(x)) for var, x in zip(lp.columns, res.x)}
