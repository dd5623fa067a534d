"""Linear and integer programming substrate for path analysis.

The hot path is the staged sparse engine: :func:`presolve` shrinks the
program, :class:`~repro.ilp.revised.RevisedSimplex` solves it on sparse
data with native variable bounds, and :func:`solve_ilp` branches on
bounds, solving every node as one more :func:`solve_lp`.  The
historical dense tableau (:func:`solve_lp_dense`) is retained as the
differential-test oracle.
"""

from .branchbound import solve_ilp
from .dense import solve_lp_dense
from .model import Constraint, LinearProgram, Sense, Solution, Variable
from .presolve import PresolvedLP, presolve
from .simplex import solve_lp
from .stats import ILPStats

__all__ = [
    "solve_ilp", "Constraint", "LinearProgram", "Sense", "Solution",
    "Variable",
    "solve_lp", "solve_lp_dense", "ILPStats", "PresolvedLP", "presolve",
]
