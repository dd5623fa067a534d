"""LP solving entry point: presolve + sparse revised simplex.

``solve_lp`` keeps the historical signature (one
:class:`~repro.ilp.model.LinearProgram` in, one
:class:`~repro.ilp.model.Solution` out) but now runs the staged
pipeline::

    presolve  ->  CoreLP (equality form, native bounds)  ->
    bounded-variable revised simplex  ->  postsolve

The dense two-phase tableau this replaced lives on in
:mod:`repro.ilp.dense` as the differential-test oracle.
"""

from __future__ import annotations

from typing import Optional

from .model import LinearProgram, Solution
from .presolve import presolve
from .revised import CoreLP, RevisedSimplex
from .stats import ILPStats


def solve_lp(program: LinearProgram,
             stats: Optional[ILPStats] = None,
             bland_threshold: int = 32) -> Solution:
    """Solve the LP relaxation of ``program`` (maximisation).

    ``stats`` accumulates solver counters across calls;
    ``bland_threshold`` is the number of consecutive degenerate pivots
    tolerated before pricing falls back to Bland's rule (0 = always
    Bland, the fully-guarded mode the cycling regression test uses).
    """
    pre = presolve(program, stats)
    if pre.status == "infeasible":
        return Solution("infeasible")
    if pre.num_rows == 0:
        if pre.unbounded_pending:
            return Solution("unbounded")
        return pre.postsolve(_EMPTY)

    core = CoreLP(pre)
    simplex = RevisedSimplex(core, stats, bland_threshold=bland_threshold)
    status = simplex.solve_two_phase()
    if status == "infeasible":
        return Solution("infeasible")
    if status == "unbounded" or pre.unbounded_pending:
        return Solution("unbounded")
    return pre.postsolve(simplex.structural_values())


_EMPTY = ()
