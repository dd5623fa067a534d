"""Branch-and-bound integer programming on top of the revised simplex.

IPET relaxations are network-flow-like and usually integral; when they
are not, branch and bound recovers the exact integer optimum.  Because
IPET *maximises*, any LP relaxation value is itself a sound WCET bound,
so the solver can also be used in relaxation-only mode.

Branching is on *variable bounds*, which the bounded-variable revised
simplex handles natively: a child node tightens one bound, the parent's
optimal basis stays dual-feasible, and the node is re-optimised by a
handful of dual simplex pivots from the parent basis (a warm start)
instead of a two-phase cold solve.  The parent basis is snapshotted
once and shared by both children; nodes whose dual re-optimisation
stalls numerically fall back to a cold solve.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from .model import LinearProgram, Solution
from .presolve import presolve
from .revised import CoreLP, RevisedSimplex
from .stats import ILPStats

_INT_TOLERANCE = 1e-6


def solve_ilp(program: LinearProgram, max_nodes: int = 10_000,
              stats: Optional[ILPStats] = None) -> Solution:
    """Maximise ``program`` with integrality on its integer variables.

    Depth-first branch and bound with best-bound pruning; the nodes it
    explores are counted in ``stats.bb_nodes``.  Raises
    ``RuntimeError`` if more than ``max_nodes`` nodes are needed
    (callers can then fall back to the relaxation bound, which is
    sound for WCET).
    """
    stats = stats if stats is not None else ILPStats()

    pre = presolve(program, stats, integral=True)
    if pre.status == "infeasible":
        return Solution("infeasible")
    if pre.num_rows == 0:
        if pre.unbounded_pending:
            return Solution("unbounded")
        if pre.fractional_int_fix:
            return Solution("infeasible")
        stats.bb_nodes += 1
        return _rounded(program, pre.postsolve(()))

    core = CoreLP(pre)
    simplex = RevisedSimplex(core, stats)
    status = simplex.solve_two_phase()
    stats.cold_solves += 1
    if status != "optimal":
        return Solution(status)
    if pre.unbounded_pending:
        return Solution("unbounded")
    if pre.fractional_int_fix:
        return Solution("infeasible")

    int_cols = np.flatnonzero(pre.is_integer)

    incumbent_obj: Optional[float] = None
    incumbent_vals: Optional[np.ndarray] = None

    # Each node: cumulative original-space bound overrides for branched
    # columns, and the parent's basis snapshot (None = root, already
    # solved in ``simplex``).
    Node = Tuple[Dict[int, Tuple[float, float]], Optional[tuple]]
    stack = [({}, None)]  # type: list[Node]
    nodes = 0

    while stack:
        delta, snap = stack.pop()
        nodes += 1
        stats.bb_nodes += 1
        if nodes > max_nodes:
            raise RuntimeError("branch-and-bound node budget exhausted")

        if snap is None:
            solved = True             # root: solved above
        else:
            simplex.restore(snap)
            for col, (lo, hi) in delta.items():
                clo, chi = core.set_structural_bounds(col, lo, hi)
                simplex.lower[col] = clo
                simplex.upper[col] = chi
            outcome = simplex.reoptimize_dual()
            if outcome == "fallback":
                simplex = RevisedSimplex(core, stats)
                for col, (lo, hi) in delta.items():
                    clo, chi = core.set_structural_bounds(col, lo, hi)
                    simplex.lower[col] = clo
                    simplex.upper[col] = chi
                outcome = simplex.solve_two_phase()
                stats.cold_solves += 1
            else:
                stats.warm_start_hits += 1
            solved = outcome == "optimal"
        if not solved:
            continue                  # infeasible subtree

        values = simplex.structural_values()
        # Full-program objective (postsolve replays presolve's variable
        # eliminations, so every folded-out term is accounted exactly).
        objective = pre.postsolve(values).objective
        if incumbent_obj is not None and \
                objective <= incumbent_obj + 1e-9:
            continue                  # cannot beat the incumbent

        fractional = _most_fractional(int_cols, values)
        if fractional is None:
            incumbent_obj = objective
            incumbent_vals = values.copy()
            continue
        col, value = fractional
        cur_lo, cur_hi = delta.get(
            col, (float(pre.lower[col]), float(pre.upper[col])))
        parent_snap = simplex.snapshot()
        stack.append(({**delta, col: (float(math.ceil(value)), cur_hi)},
                      parent_snap))
        stack.append(({**delta, col: (cur_lo, float(math.floor(value)))},
                      parent_snap))

    if incumbent_vals is None:
        return Solution("infeasible")
    solution = pre.postsolve(incumbent_vals)
    return Solution("optimal", incumbent_obj,
                    _rounded(program, solution).values)


def _rounded(program: LinearProgram, solution: Solution) -> Solution:
    values = {k: float(round(v)) if program.variables[k].is_integer else v
              for k, v in solution.values.items()}
    return Solution(solution.status, solution.objective, values)


def _most_fractional(int_cols: np.ndarray,
                     values: np.ndarray) -> Optional[Tuple[int, float]]:
    best: Optional[Tuple[int, float]] = None
    best_score = _INT_TOLERANCE
    for col in int_cols:
        value = float(values[col])
        score = abs(value - round(value))
        if score > best_score:
            best_score = score
            best = (int(col), value)
    return best
