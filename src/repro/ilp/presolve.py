"""LP presolve: shrink the program before the simplex ever factorises.

IPET programs carry a lot of structure the solver should not pay for:
``infeasible``/``unreachable`` rows are equality-to-zero singletons that
pin a variable, pinned variables cascade through the flow-conservation
rows, and bound-implied rows (e.g. a loop constraint dominated by
variable bounds) are redundant.  This module applies the classic
reductions to a fixpoint:

* empty rows           — drop (or report infeasibility),
* singleton rows       — convert to a variable bound, drop the row,
* doubleton equalities — substitute one variable by the other (IPET
  flow rows alias every single-entry edge count to its node count),
* fixed variables      — substitute into rows and objective,
* empty columns        — set to the bound the objective prefers,
* redundant rows       — drop rows implied by the variable bounds.

Every reduction is exact: the reduced LP has the same optimum value as
the input, and :meth:`PresolvedLP.postsolve` reconstructs a full
solution vector.  Bounds, not rows, carry the eliminated facts — the
revised simplex handles bounds natively, so each removed row shrinks
the basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .model import LinearProgram, Sense, Solution
from .stats import ILPStats

_TOL = 1e-9
_FEAS_TOL = 1e-7


@dataclass
class PresolvedLP:
    """The reduced program plus everything needed to undo the reduction."""

    program: LinearProgram
    #: "infeasible" if presolve proved infeasibility, else None.
    status: Optional[str]
    #: An empty objective-improving column is unbounded above; the LP is
    #: unbounded *if* the rest of the program is feasible.
    unbounded_pending: bool
    #: Original indices of the variables that kept a column.
    kept: List[int]
    #: Rows over core column ids: (coefficients, sense, rhs).
    rows: List[Tuple[Dict[int, float], Sense, float]]
    lower: np.ndarray
    upper: np.ndarray
    objective: np.ndarray
    #: Values of eliminated variables, by original index.
    fixed_values: Dict[int, float] = field(default_factory=dict)
    #: Doubleton substitutions ``x_i = alpha + beta * x_j`` in the
    #: order applied; postsolve replays them in reverse.
    substitutions: List[Tuple[int, float, float, int]] = \
        field(default_factory=list)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.kept)

    def postsolve(self, core_values: np.ndarray) -> Solution:
        """Expand core-column values into a full optimal solution."""
        values: Dict[int, float] = dict(self.fixed_values)
        for col, orig in enumerate(self.kept):
            values[orig] = float(core_values[col])
        for idx, alpha, beta, other in reversed(self.substitutions):
            values[idx] = alpha + beta * values[other]
        objective = sum(coeff * values.get(idx, 0.0)
                        for idx, coeff in self.program.objective.items())
        return Solution("optimal", float(objective), values)


def _substitute_doubleton(i, rows, col_rows, lower, upper, objective,
                          substitutions) -> bool:
    """Eliminate one variable of the doubleton equality ``rows[i]``
    (``a x_e + b x_k = rhs``) as ``x_e = alpha + beta x_k``.

    Only coefficients of magnitude one qualify for elimination (IPET
    rows always are; it also keeps the arithmetic exact).  Returns
    False if no variable qualifies.  The eliminated variable's bounds
    are transferred to the keeper; the caller checks the transfer for
    infeasibility.
    """
    coeffs, _sense, rhs = rows[i]
    (v1, a1), (v2, a2) = coeffs.items()
    candidates = [(idx, coeff, other)
                  for idx, coeff, other in ((v1, a1, v2), (v2, a2, v1))
                  if abs(abs(coeff) - 1.0) <= _TOL]
    if not candidates:
        return False
    # Eliminate the variable that appears in fewer rows (less fill-in);
    # ties break on the smaller index for determinism.
    candidates.sort(key=lambda t: (len(col_rows.get(t[0], ())), t[0]))
    elim, coeff, keep = candidates[0]
    other_coeff = coeffs[keep]
    alpha = rhs / coeff
    beta = -other_coeff / coeff

    # Transfer the eliminated variable's bounds to the keeper.
    if beta > 0:
        keep_lo = (lower[elim] - alpha) / beta
        keep_hi = (upper[elim] - alpha) / beta
    else:
        keep_lo = (upper[elim] - alpha) / beta
        keep_hi = (lower[elim] - alpha) / beta
    lower[keep] = max(lower[keep], keep_lo)
    upper[keep] = min(upper[keep], keep_hi)

    # Replace x_elim in every other row that mentions it.
    for r in col_rows.get(elim, ()):
        row = rows[r]
        if r == i or row is None or elim not in row[0]:
            continue
        rcoeffs = row[0]
        factor = rcoeffs.pop(elim)
        row[2] -= factor * alpha
        new_coeff = rcoeffs.get(keep, 0.0) + factor * beta
        if abs(new_coeff) <= 1e-12:
            rcoeffs.pop(keep, None)
        else:
            rcoeffs[keep] = new_coeff
            col_rows.setdefault(keep, set()).add(r)

    # The constant term c_elim * alpha needs no bookkeeping: objective
    # values are always recomputed from the original program by
    # postsolve, which replays the substitution.
    if objective[elim]:
        objective[keep] += objective[elim] * beta
        objective[elim] = 0.0

    substitutions.append((elim, alpha, beta, keep))
    rows[i] = None
    return True


def presolve(program: LinearProgram,
             stats: Optional[ILPStats] = None) -> PresolvedLP:
    """Reduce ``program``; exact — optimum value is preserved."""
    n = program.num_variables
    lower = np.array([v.lower for v in program.variables], dtype=float)
    upper = np.array([np.inf if v.upper is None else v.upper
                      for v in program.variables], dtype=float)
    objective = np.zeros(n)
    for idx, coeff in program.objective.items():
        objective[idx] = coeff

    rows: List[Optional[List]] = [
        [dict(c.coefficients), c.sense, float(c.rhs)]
        for c in program.constraints]
    fixed: Dict[int, float] = {}
    substitutions: List[Tuple[int, float, float, int]] = []
    substituted: set = set()
    rows_removed = 0
    infeasible = False

    # Which rows currently mention each variable (kept as a superset:
    # entries are validated against the live row before use).
    col_rows: Dict[int, set] = {}
    for i, row in enumerate(rows):
        for idx in row[0]:
            col_rows.setdefault(idx, set()).add(i)

    def fix(idx: int, value: float) -> None:
        fixed[idx] = value
        lower[idx] = upper[idx] = value

    changed = True
    while changed and not infeasible:
        changed = False

        # Substitute newly fixed variables into the surviving rows.
        pinned = {idx for idx in range(n)
                  if idx not in fixed and idx not in substituted
                  and upper[idx] - lower[idx] <= _TOL}
        for idx in sorted(pinned):
            if lower[idx] > upper[idx] + _TOL:
                infeasible = True
                break
            fix(idx, lower[idx])
            changed = True
        if infeasible:
            break
        if pinned:
            for row in rows:
                if row is None:
                    continue
                coeffs, _sense, _rhs = row
                for idx in list(coeffs):
                    if idx in fixed:
                        row[2] -= coeffs.pop(idx) * fixed[idx]

        for i, row in enumerate(rows):
            if row is None:
                continue
            coeffs, sense, rhs = row

            if not coeffs:                        # empty row
                sat = (abs(rhs) <= _FEAS_TOL if sense is Sense.EQ
                       else rhs >= -_FEAS_TOL if sense is Sense.LE
                       else rhs <= _FEAS_TOL)
                if not sat:
                    infeasible = True
                    break
                rows[i] = None
                rows_removed += 1
                changed = True
                continue

            if len(coeffs) == 1:                  # singleton row -> bound
                (idx, a), = coeffs.items()
                bound = rhs / a
                if sense is Sense.EQ:
                    if bound < lower[idx] - _FEAS_TOL or \
                            bound > upper[idx] + _FEAS_TOL:
                        infeasible = True
                        break
                    lower[idx] = upper[idx] = bound
                elif (sense is Sense.LE) == (a > 0):   # a*x <= rhs, a>0
                    upper[idx] = min(upper[idx], bound)
                else:
                    lower[idx] = max(lower[idx], bound)
                if lower[idx] > upper[idx] + _FEAS_TOL:
                    infeasible = True
                    break
                rows[i] = None
                rows_removed += 1
                changed = True
                continue

            if sense is Sense.EQ and len(coeffs) == 2:
                if _substitute_doubleton(
                        i, rows, col_rows, lower, upper, objective,
                        substitutions):
                    substituted.add(substitutions[-1][0])
                    rows_removed += 1
                    changed = True
                    if lower[substitutions[-1][3]] > \
                            upper[substitutions[-1][3]] + _FEAS_TOL:
                        infeasible = True
                        break
                    continue

            # Bound-implied (redundant) or bound-contradicted rows.
            min_act = max_act = 0.0
            for idx, a in coeffs.items():
                if a > 0:
                    min_act += a * lower[idx]
                    max_act += a * upper[idx]
                else:
                    min_act += a * upper[idx]
                    max_act += a * lower[idx]
            if sense is Sense.LE:
                if min_act > rhs + _FEAS_TOL:
                    infeasible = True
                    break
                if max_act <= rhs + _TOL:
                    rows[i] = None
                    rows_removed += 1
                    changed = True
            elif sense is Sense.GE:
                if max_act < rhs - _FEAS_TOL:
                    infeasible = True
                    break
                if min_act >= rhs - _TOL:
                    rows[i] = None
                    rows_removed += 1
                    changed = True
            else:
                if min_act > rhs + _FEAS_TOL or max_act < rhs - _FEAS_TOL:
                    infeasible = True
                    break

    alive = [row for row in rows if row is not None]
    referenced = set()
    for coeffs, _sense, _rhs in alive:
        referenced.update(coeffs)

    # Empty columns: pick the bound the objective prefers.
    unbounded_pending = False
    for idx in range(n):
        if idx in fixed or idx in referenced or idx in substituted:
            continue
        coeff = objective[idx]
        if coeff > _TOL and np.isinf(upper[idx]):
            unbounded_pending = True
            fixed[idx] = lower[idx]
        elif coeff > _TOL:
            fixed[idx] = upper[idx]
        else:
            fixed[idx] = lower[idx]

    kept = sorted(referenced)
    core_of = {orig: col for col, orig in enumerate(kept)}
    core_rows = [({core_of[idx]: a for idx, a in coeffs.items()},
                  sense, rhs) for coeffs, sense, rhs in alive]

    if stats is not None:
        stats.presolve_rows_removed += rows_removed
        stats.presolve_cols_removed += n - len(kept)

    return PresolvedLP(
        program=program,
        status="infeasible" if infeasible else None,
        unbounded_pending=unbounded_pending,
        kept=kept,
        rows=core_rows,
        lower=lower[kept] if kept else np.zeros(0),
        upper=upper[kept] if kept else np.zeros(0),
        objective=objective[kept] if kept else np.zeros(0),
        fixed_values=fixed,
        substitutions=substitutions)
