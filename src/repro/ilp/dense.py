"""Dense two-phase primal simplex (reference implementation).

The original from-scratch LP solver: Bland's anti-cycling rule on a
dense numpy tableau whose last column is the right-hand side, with
variable upper bounds expanded into extra constraint rows.  Superseded
on the hot path by the sparse revised simplex
(:mod:`repro.ilp.revised`), but kept as an independent oracle — the
differential tests solve every IPET program with both engines and
require the optima to agree.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .model import LinearProgram, Sense, Solution

_EPS = 1e-9


def solve_lp_dense(program: LinearProgram) -> Solution:
    """Solve the LP relaxation of ``program`` (maximisation)."""
    a, b, c, num_original, shifts, objective_shift = \
        _to_standard_form(program)
    m, total = a.shape

    if m == 0:
        return _solve_unconstrained(program, shifts, objective_shift)

    # Phase 1: minimise the sum of artificial variables.
    tableau = np.hstack([a, np.eye(m), b.reshape(-1, 1)])
    basis = list(range(total, total + m))
    phase1_cost = np.concatenate([np.zeros(total), np.ones(m)])
    status = _iterate(tableau, basis, phase1_cost)
    if status != "optimal":  # pragma: no cover - phase 1 is bounded
        return Solution("infeasible")
    if float(phase1_cost[basis] @ tableau[:, -1]) > 1e-7:
        return Solution("infeasible")

    # Drive artificials out of the basis; drop redundant rows.
    keep_rows = []
    for row in range(len(basis)):
        if basis[row] < total:
            keep_rows.append(row)
            continue
        pivot_col = next((j for j in range(total)
                          if abs(tableau[row, j]) > _EPS), None)
        if pivot_col is None:
            continue  # redundant constraint
        _pivot(tableau, basis, row, pivot_col)
        keep_rows.append(row)
    tableau = tableau[keep_rows, :]
    basis = [basis[row] for row in keep_rows]

    # Phase 2: original costs, artificial columns removed.
    tableau = np.hstack([tableau[:, :total], tableau[:, -1:]])
    status = _iterate(tableau, basis, c)
    if status == "unbounded":
        return Solution("unbounded")

    values_std = np.zeros(total)
    for row, variable in enumerate(basis):
        values_std[variable] = tableau[row, -1]
    objective = -float(c[:total] @ values_std) + objective_shift
    values = {}
    for variable in program.variables:
        value = values_std[variable.index] + shifts[variable.index]
        values[variable.index] = value
    return Solution("optimal", objective, values)


def _solve_unconstrained(program: LinearProgram, shifts: np.ndarray,
                         objective_shift: float) -> Solution:
    values = {v.index: v.lower for v in program.variables}
    objective = objective_shift
    for index, coeff in program.objective.items():
        variable = program.variables[index]
        if coeff > 0:
            if variable.upper is None:
                return Solution("unbounded")
            values[index] = variable.upper
            objective += coeff * (variable.upper - variable.lower)
    return Solution("optimal", objective, values)


def _to_standard_form(program: LinearProgram):
    """Convert to ``A x = b`` (``b >= 0``), ``x >= 0``, min ``c x``."""
    n = program.num_variables
    shifts = np.array([v.lower for v in program.variables], dtype=float)

    rows: List[Tuple[Dict[int, float], Sense, float]] = []
    for constraint in program.constraints:
        shift_amount = sum(coeff * shifts[idx]
                           for idx, coeff in constraint.coefficients.items())
        rows.append((constraint.coefficients, constraint.sense,
                     constraint.rhs - shift_amount))
    for variable in program.variables:
        if variable.upper is not None:
            rows.append(({variable.index: 1.0}, Sense.LE,
                         variable.upper - variable.lower))

    num_slack = sum(1 for _, sense, _ in rows if sense is not Sense.EQ)
    total = n + num_slack
    a = np.zeros((len(rows), total))
    b = np.zeros(len(rows))
    slack_cursor = n
    for i, (coeffs, sense, rhs) in enumerate(rows):
        for idx, coeff in coeffs.items():
            a[i, idx] = coeff
        b[i] = rhs
        if sense is Sense.LE:
            a[i, slack_cursor] = 1.0
            slack_cursor += 1
        elif sense is Sense.GE:
            a[i, slack_cursor] = -1.0
            slack_cursor += 1
    for i in range(len(rows)):
        if b[i] < 0:
            a[i, :] *= -1
            b[i] *= -1

    c = np.zeros(total)
    for idx, coeff in program.objective.items():
        c[idx] = -coeff   # maximise -> minimise
    objective_shift = float(sum(coeff * shifts[idx]
                                for idx, coeff in
                                program.objective.items()))
    return a, b, c, n, shifts, objective_shift


def _iterate(tableau: np.ndarray, basis: List[int], cost: np.ndarray,
             max_iterations: int = 200_000) -> str:
    """Run primal simplex on a tableau whose last column is the RHS.

    ``cost`` covers all structural columns (length = columns - 1).
    Mutates ``tableau`` and ``basis``; returns "optimal" or "unbounded".
    """
    m = tableau.shape[0]
    ncols = tableau.shape[1] - 1

    # Make basis columns canonical (identity) under the current tableau.
    for row in range(m):
        pivot = tableau[row, basis[row]]
        if abs(pivot) <= _EPS:  # pragma: no cover - defensive
            continue
        if abs(pivot - 1.0) > _EPS:
            tableau[row, :] /= pivot
        for other in range(m):
            if other != row and abs(tableau[other, basis[row]]) > _EPS:
                tableau[other, :] -= \
                    tableau[other, basis[row]] * tableau[row, :]

    for _ in range(max_iterations):
        reduced = cost[:ncols] - cost[basis] @ tableau[:, :ncols]
        entering = None
        for j in range(ncols):
            if reduced[j] < -1e-9:
                entering = j          # Bland's rule: first eligible
                break
        if entering is None:
            return "optimal"
        column = tableau[:, entering]
        best_row, best_ratio = None, None
        for row in range(m):
            if column[row] > _EPS:
                ratio = tableau[row, -1] / column[row]
                if best_ratio is None or ratio < best_ratio - _EPS or (
                        abs(ratio - best_ratio) <= _EPS
                        and basis[row] < basis[best_row]):
                    best_ratio, best_row = ratio, row
        if best_row is None:
            return "unbounded"
        _pivot(tableau, basis, best_row, entering)
    raise RuntimeError("simplex iteration limit exceeded")


def _pivot(tableau: np.ndarray, basis: List[int], row: int,
           col: int) -> None:
    tableau[row, :] /= tableau[row, col]
    for other in range(tableau.shape[0]):
        if other != row and abs(tableau[other, col]) > _EPS:
            tableau[other, :] -= tableau[other, col] * tableau[row, :]
    basis[row] = col
