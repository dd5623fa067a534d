"""Sparse matrix storage for the revised simplex.

The IPET constraint matrix is extremely sparse (flow rows touch only a
node's incident edges), so the solver never materialises the dense
``m x n`` matrix.  :class:`SparseMatrix` keeps the nonzeros once in
coordinate form (for the two matrix-vector products the revised
simplex needs) and once column-sliced (CSC, for pulling single columns
into the basis routines).  Both layouts are immutable after
construction.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np


class SparseMatrix:
    """An immutable ``m x n`` sparse matrix (COO + CSC views)."""

    def __init__(self, m: int, n: int,
                 triplets: Iterable[Tuple[int, int, float]]):
        self.m = m
        self.n = n
        entries = [(r, c, v) for r, c, v in triplets if v != 0.0]
        if entries:
            rows, cols, vals = zip(*entries)
        else:
            rows, cols, vals = (), (), ()
        # COO, sorted by (column, row): doubles as CSC payload.
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        vals = np.asarray(vals, dtype=np.float64)
        order = np.lexsort((rows, cols))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if len(rows):
            # Coalesce duplicate positions so every view (products,
            # column slices, dense basis extraction) agrees on A.
            first = np.empty(len(rows), dtype=bool)
            first[0] = True
            first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(first)
            vals = np.add.reduceat(vals, starts)
            rows, cols = rows[starts], cols[starts]
            keep = vals != 0.0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.col_ptr = np.searchsorted(self.cols, np.arange(n + 1))

    # -- Column access -------------------------------------------------------

    def col(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row indices and values of column ``j``."""
        lo, hi = self.col_ptr[j], self.col_ptr[j + 1]
        return self.rows[lo:hi], self.vals[lo:hi]

    def dense_submatrix(self, columns: np.ndarray) -> np.ndarray:
        """Dense ``m x len(columns)`` matrix of the given columns (the
        basis matrix for refactorisation)."""
        out = np.zeros((self.m, len(columns)))
        for k, j in enumerate(columns):
            rows, vals = self.col(j)
            out[rows, k] = vals
        return out

    # -- Matrix-vector products ----------------------------------------------

    def dot(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` for a dense ``x`` (length n)."""
        contrib = x[self.cols] * self.vals
        return np.bincount(self.rows, weights=contrib,
                           minlength=self.m).astype(np.float64, copy=False)

    def t_dot(self, y: np.ndarray) -> np.ndarray:
        """``A.T @ y`` for a dense ``y`` (length m)."""
        contrib = y[self.rows] * self.vals
        return np.bincount(self.cols, weights=contrib,
                           minlength=self.n).astype(np.float64, copy=False)
