"""Bounded-variable revised simplex on sparse data.

Replaces the dense two-phase tableau: the constraint matrix stays
sparse (:class:`~repro.ilp.sparse.SparseMatrix`), only the ``m x m``
basis inverse is dense, and variable upper bounds are handled natively
by the ratio test (nonbasic-at-upper states and bound flips) instead of
being expanded into extra constraint rows.  Pricing is Dantzig (most
negative reduced cost) with Bland's rule as a degeneracy fallback, so
the common case pays for the cheap rule and cycling is still
impossible.  Every solve is a cold two-phase primal solve from the
slack/artificial basis; branch and bound re-solves each node as a
plain LP.

The kernels touch only what a pivot uses.  IPET columns have one to
three nonzeros and ``w = B^-1 a_j`` is nearly as sparse, so:

* FTRAN gathers just the inverse's columns the entering column hits
  (``Binv[:, rows] @ vals``);
* the ratio test and the primal update run over the nonzero rows of
  ``w`` only;
* the basis update subtracts the rank-1 term only where it is nonzero:
  on the rows where ``w`` is and the columns where the pivot row of the
  inverse is (on the large synthetic point the inverse stays ~80%
  zeros);
* the duals ``y = c_B B^-1`` are carried across basis changes
  (``y += d_j * Binv_new[r]``) and rebuilt from the nonzero ``c_B``
  rows only at phase start and after a refactorization, so pricing is
  one sparse ``A^T y``.

Nothing refactorizes on a schedule: after every step the normwise
backward error of the primal point, ``|A x - b| / (|A| |x| + |b|)``
in the infinity norm, is measured, and the inverse is rebuilt only
when it has drifted past a tolerance.

Internally the program is the equality-form core ``maximise c x
s.t. A x = b, lo <= x <= hi`` built by :class:`CoreLP` from a presolved
program: structural columns shifted to zero lower bound, one slack per
inequality row, and artificial columns only for rows whose slack cannot
start basic-feasible.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .model import Sense
from .presolve import PresolvedLP
from .sparse import SparseMatrix
from .stats import ILPStats

NB_LOWER, NB_UPPER, BASIC = 0, 1, 2

_DUAL_TOL = 1e-9      # reduced-cost optimality tolerance
_FEAS_TOL = 1e-7      # primal feasibility tolerance
_PIVOT_TOL = 1e-8     # minimum acceptable pivot magnitude
_RESIDUAL_TOL = 1e-9  # backward error that triggers a refactorization


class CoreLP:
    """Equality-form core of a presolved LP (see module docstring)."""

    def __init__(self, pre: PresolvedLP):
        self.pre = pre
        n = pre.num_cols
        m = pre.num_rows
        self.n_struct = n
        self.m = m
        #: Original-space lower bounds of the structurals (the shift).
        self.shift = pre.lower.copy()

        triplets: List[Tuple[int, int, float]] = []
        b = np.zeros(m)
        slack_of_row = np.full(m, -1, dtype=np.intp)
        art_rows: List[int] = []
        basis_col_of_row = np.zeros(m, dtype=np.intp)
        slack_cursor = n

        prepared = []
        for i, (coeffs, sense, rhs) in enumerate(pre.rows):
            shifted = rhs - sum(a * self.shift[j]
                                for j, a in coeffs.items())
            if sense is Sense.GE:
                coeffs = {j: -a for j, a in coeffs.items()}
                shifted = -shifted
                sense = Sense.LE
            sign = -1.0 if shifted < 0 else 1.0
            prepared.append((
                {j: sign * a for j, a in coeffs.items()},
                sense, sign * shifted, sign))
            if sense is Sense.LE:
                slack_of_row[i] = slack_cursor
                slack_cursor += 1
        n_slack = slack_cursor - n

        art_cursor = slack_cursor
        for i, (coeffs, sense, rhs, sign) in enumerate(prepared):
            for j, a in coeffs.items():
                triplets.append((i, j, a))
            b[i] = rhs
            if slack_of_row[i] >= 0:
                triplets.append((i, slack_of_row[i], sign))
            if sense is Sense.LE and sign > 0:
                basis_col_of_row[i] = slack_of_row[i]
            else:
                # EQ row, or a negated inequality whose slack enters
                # with coefficient -1: needs an artificial to start.
                triplets.append((i, art_cursor, 1.0))
                basis_col_of_row[i] = art_cursor
                art_rows.append(i)
                art_cursor += 1

        self.ncols = art_cursor
        self.art_start = slack_cursor
        self.A = SparseMatrix(m, self.ncols, triplets)
        self.b = b
        self.initial_basis = basis_col_of_row
        #: Infinity norms of A (max absolute row sum) and b, the scale
        #: of the backward error that triggers refactorization.
        self.a_norm = float(np.bincount(
            self.A.rows, weights=np.abs(self.A.vals), minlength=m).max(
                initial=0.0))
        self.b_norm = float(np.abs(b).max(initial=0.0))

        self.c = np.zeros(self.ncols)
        self.c[:n] = pre.objective
        self.lower = np.zeros(self.ncols)
        self.upper = np.full(self.ncols, np.inf)
        self.upper[:n] = pre.upper - self.shift


class RevisedSimplex:
    """One solver instance: mutable bounds + basis over a CoreLP."""

    def __init__(self, core: CoreLP, stats: Optional[ILPStats] = None,
                 bland_threshold: int = 32,
                 max_iterations: int = 200_000):
        self.core = core
        self.stats = stats if stats is not None else ILPStats()
        self.bland_threshold = bland_threshold
        self.max_iterations = max_iterations

        self.lower = core.lower.copy()
        self.upper = core.upper.copy()
        self.basis = core.initial_basis.copy()
        self.vstat = np.full(core.ncols, NB_LOWER, dtype=np.int8)
        self.vstat[self.basis] = BASIC
        self.Binv = np.eye(core.m)
        self.xB = core.b.copy()
        #: Duals ``c_B B^-1`` of the cost vector being optimised.
        self.y = np.zeros(core.m)

    # -- Basis bookkeeping ---------------------------------------------------

    def _nonbasic_values(self) -> np.ndarray:
        x = np.where(self.vstat == NB_UPPER,
                     np.where(np.isfinite(self.upper), self.upper, 0.0),
                     self.lower)
        x[self.basis] = 0.0
        return x

    def _compute_xB(self) -> np.ndarray:
        xn = self._nonbasic_values()
        return self.Binv @ (self.core.b - self.core.A.dot(xn))

    def values(self) -> np.ndarray:
        """Full solution vector in core (shifted) space."""
        x = self._nonbasic_values()
        x[self.basis] = self.xB
        return x

    def structural_values(self) -> np.ndarray:
        """Structural solution in original space."""
        return self.values()[:self.core.n_struct] + self.core.shift

    def objective(self) -> float:
        return float(self.core.c @ self.values())

    def _duals(self, c: np.ndarray) -> np.ndarray:
        """``c_B B^-1``, summed over the rows with a nonzero basic cost."""
        cB = c[self.basis]
        rows = cB.nonzero()[0]
        return cB[rows] @ self.Binv[rows]

    def _ftran(self, j: int) -> np.ndarray:
        """``B^-1 a_j`` from the inverse's columns that ``a_j`` hits."""
        rows, vals = self.core.A.col(j)
        return self.Binv[:, rows] @ vals

    def _pivot(self, r: int, j: int, w: np.ndarray, dj: float,
               leaving_status: int) -> None:
        """Column ``j`` (FTRAN ``w``, reduced cost ``dj``) replaces the
        basic variable of row ``r``, which leaves at ``leaving_status``.
        The rank-1 update of the inverse only touches the rows where
        ``w`` is nonzero and the columns where the pivot row is; the
        duals are carried the same way."""
        self.vstat[self.basis[r]] = leaving_status
        self.vstat[j] = BASIC
        self.basis[r] = j
        pivot_row = self.Binv[r] / w[r]
        rows = w.nonzero()[0]
        cols = pivot_row.nonzero()[0]
        pivot_nz = pivot_row[cols]
        # Row r is updated too, then overwritten by the pivot row.
        self.Binv[rows[:, None], cols] -= w[rows, None] * pivot_nz
        self.Binv[r] = pivot_row
        self.y[cols] += dj * pivot_nz

    def _refactor(self, c: np.ndarray) -> None:
        B = self.core.A.dense_submatrix(self.basis)
        self.Binv = np.linalg.inv(B)
        self.xB = self._compute_xB()
        self.y = self._duals(c)
        self.stats.refactorizations += 1

    def _keep_accurate(self, c: np.ndarray) -> None:
        """Refactor once the primal point has drifted off ``A x = b``:
        when its normwise backward error ``|A x - b| / (|A| |x| + |b|)``
        (infinity norms) passes the tolerance."""
        x = self.values()
        core = self.core
        error = np.abs(core.A.dot(x) - core.b).max()
        if error > _RESIDUAL_TOL * (core.a_norm * np.abs(x).max()
                                    + core.b_norm):
            self._refactor(c)

    # -- Primal simplex ------------------------------------------------------

    def solve_two_phase(self) -> str:
        """Cold start: phase 1 to feasibility, phase 2 to optimality."""
        core = self.core
        if core.art_start < core.ncols:
            c1 = np.zeros(core.ncols)
            c1[core.art_start:] = -1.0
            status = self._primal(c1, phase=1)
            if status != "optimal":  # pragma: no cover - phase 1 bounded
                raise RuntimeError("phase 1 terminated " + status)
            art_value = -float(c1 @ self.values())
            if art_value > _FEAS_TOL:
                return "infeasible"
            # Pin artificials at zero; basic ones stay harmlessly basic.
            self.upper[core.art_start:] = 0.0
        return self._primal(core.c, phase=2)

    def _primal(self, c: np.ndarray, phase: int) -> str:
        degenerate_run = 0
        bland = False
        self.y = self._duals(c)
        for _ in range(self.max_iterations):
            d = c - self.core.A.t_dot(self.y)
            movable = self.upper > self.lower
            at_lower = (self.vstat == NB_LOWER) & movable & (d > _DUAL_TOL)
            at_upper = (self.vstat == NB_UPPER) & movable & (d < -_DUAL_TOL)
            eligible = (at_lower | at_upper).nonzero()[0]
            if len(eligible) == 0:
                return "optimal"
            if bland:
                j = int(eligible[0])
                self.stats.bland_pivots += 1
            else:
                j = int(eligible[np.argmax(np.abs(d[eligible]))])

            step = self._primal_step(j, float(d[j]))
            if step is None:
                return "unbounded"
            self._keep_accurate(c)
            if step > _FEAS_TOL:
                degenerate_run = 0
                bland = False
            else:
                degenerate_run += 1
                if degenerate_run > self.bland_threshold:
                    bland = True
            self.stats.pivots += 1
            if phase == 1:
                self.stats.phase1_pivots += 1
            else:
                self.stats.phase2_pivots += 1
        raise RuntimeError("simplex iteration limit exceeded")

    def _primal_step(self, j: int, dj: float) -> Optional[float]:
        """Advance entering column ``j`` (reduced cost ``dj``); returns
        the step length, or None when the LP is unbounded in that
        direction.  Only the rows where ``B^-1 a_j`` is nonzero can
        limit the step or change value."""
        t = 1.0 if self.vstat[j] == NB_LOWER else -1.0
        w = self._ftran(j)
        rows = w.nonzero()[0]
        coef = -t * w[rows]                # d(xB[rows])/d(step)
        basic = self.basis[rows]
        xB = self.xB[rows]

        ratios = np.full(len(rows), np.inf)
        dec = coef < -_PIVOT_TOL
        inc = coef > _PIVOT_TOL
        with np.errstate(invalid="ignore"):
            ratios[dec] = (xB[dec] - self.lower[basic[dec]]) / (-coef[dec])
            ratios[inc] = (self.upper[basic[inc]] - xB[inc]) / coef[inc]
        np.maximum(ratios, 0.0, out=ratios)

        bound_gap = self.upper[j] - self.lower[j]
        row_min = float(ratios.min(initial=np.inf))

        if bound_gap <= row_min:
            if np.isinf(bound_gap):
                return None
            # Bound flip: j runs to its other bound, basis unchanged.
            self.xB[rows] += coef * bound_gap
            self.vstat[j] = NB_UPPER if t > 0 else NB_LOWER
            self.stats.bound_flips += 1
            return float(bound_gap)

        if np.isinf(row_min):
            return None
        # Leaving row: smallest ratio, ties by smallest variable index
        # (the Bland tie-break, also used by the dense reference).
        candidates = (ratios <= row_min + _DUAL_TOL).nonzero()[0]
        k = int(candidates[np.argmin(basic[candidates])])
        r = int(rows[k])

        entering_value = (self.lower[j] if t > 0 else self.upper[j]) \
            + t * row_min
        self.xB[rows] += coef * row_min
        self._pivot(r, j, w, dj, NB_LOWER if coef[k] < 0 else NB_UPPER)
        self.xB[r] = entering_value
        return row_min
