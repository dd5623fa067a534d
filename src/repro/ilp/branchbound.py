"""Branch-and-bound integer programming on top of the LP solver.

IPET relaxations are network-flow-like and usually integral; when they
are not, branch and bound recovers the exact integer optimum.  Because
IPET *maximises*, any LP relaxation value is itself a sound WCET bound,
so the solver can also be used in relaxation-only mode.

Branching is on *variable bounds*: a child node tightens one integer
variable's bounds to either side of its fractional value.  Every node,
the root included, is one plain :func:`~repro.ilp.simplex.solve_lp` of
the program with the branched variables' bounds tightened (presolve,
cold two-phase revised simplex, postsolve), so there is one LP engine
and nothing carries from node to node; a caller that already solved
the relaxation hands it in as the root.  Integrality is checked on the
full postsolved solution, variables that presolve eliminated included.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from .model import LinearProgram, Solution
from .simplex import solve_lp
from .stats import ILPStats

_INT_TOLERANCE = 1e-6

#: Branched bounds of one node: variable index -> (lower, upper), with
#: upper None when the variable is unbounded above.
_Bounds = Dict[int, Tuple[float, Optional[float]]]


def solve_ilp(program: LinearProgram, max_nodes: int = 10_000,
              stats: Optional[ILPStats] = None,
              root: Optional[Solution] = None) -> Solution:
    """Maximise ``program`` with integrality on its integer variables.

    Depth-first branch and bound with best-bound pruning; the nodes it
    explores are counted in ``stats.bb_nodes``.  ``root`` is the
    caller's :func:`~repro.ilp.simplex.solve_lp` solution of
    ``program`` itself, which the root node then takes instead of
    solving it again.  Raises ``RuntimeError`` if more than
    ``max_nodes`` nodes are needed (callers can then fall back to the
    relaxation bound, which is sound for WCET).
    """
    stats = stats if stats is not None else ILPStats()
    incumbent: Optional[Solution] = None
    stack: List[_Bounds] = [{}]
    nodes = 0

    while stack:
        bounds = stack.pop()
        nodes += 1
        stats.bb_nodes += 1
        if nodes > max_nodes:
            raise RuntimeError("branch-and-bound node budget exhausted")

        if root is not None:
            relaxation, root = root, None
        else:
            relaxation = solve_lp(_with_bounds(program, bounds), stats)
        if relaxation.status == "unbounded":
            # Only the root can be: a child restricts a bounded LP.
            return relaxation
        if not relaxation.is_optimal:
            continue                  # infeasible subtree
        if incumbent is not None and \
                relaxation.objective <= incumbent.objective + 1e-9:
            continue                  # cannot beat the incumbent

        fractional = _most_fractional(program, relaxation)
        if fractional is None:
            incumbent = relaxation
            continue
        index, value = fractional
        variable = program.variables[index]
        lower, upper = bounds.get(index, (variable.lower, variable.upper))
        stack.append({**bounds, index: (float(math.ceil(value)), upper)})
        stack.append({**bounds, index: (lower, float(math.floor(value)))})

    if incumbent is None:
        return Solution("infeasible")
    return _rounded(program, incumbent)


def _with_bounds(program: LinearProgram, bounds: _Bounds) -> LinearProgram:
    """``program`` with the branched variables' bounds replaced."""
    node = LinearProgram(program.name)
    for variable in program.variables:
        lower, upper = bounds.get(variable.index,
                                  (variable.lower, variable.upper))
        node.add_variable(variable.name, lower, upper, variable.is_integer)
    node.constraints = program.constraints
    node.objective = program.objective
    return node


def _rounded(program: LinearProgram, solution: Solution) -> Solution:
    values = {k: float(round(v)) if program.variables[k].is_integer else v
              for k, v in solution.values.items()}
    return Solution(solution.status, solution.objective, values)


def _most_fractional(program: LinearProgram,
                     solution: Solution) -> Optional[Tuple[int, float]]:
    best: Optional[Tuple[int, float]] = None
    best_score = _INT_TOLERANCE
    for variable in program.variables:
        if not variable.is_integer:
            continue
        value = solution.values[variable.index]
        score = abs(value - round(value))
        if score > best_score:
            best_score = score
            best = (variable.index, value)
    return best
