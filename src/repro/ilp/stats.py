"""Work counters of the LP/ILP engine.

Mirrors :class:`repro.analysis.fixpoint.FixpointStats`: one plain
record per ``analyze_paths`` call, whose fields are exactly what it
reports, accumulated across the root LP solve and every
branch-and-bound node, and surfaced through
``WCETResult.solver_stats["path"]``, result rows and the text report's
work-counter lines so solver cost is visible next to the fixpoint
counters of the earlier phases.

Every branch-and-bound node, the root included, is a plain LP solve
with its own presolve, so when the relaxation is fractional the
presolve and simplex counters add up over path analysis's relaxation
solve and every node.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ILPStats:
    """Counters for one LP/ILP solve (or a whole branch-and-bound run)."""

    #: Total simplex pivots across all phases and nodes: every phase-1
    #: and phase-2 pivot.
    pivots: int = 0
    #: Primal simplex pivots spent reaching feasibility (phase 1).
    phase1_pivots: int = 0
    #: Primal simplex pivots spent optimising (phase 2).
    phase2_pivots: int = 0
    #: Nonbasic bound flips (no basis change).
    bound_flips: int = 0
    #: Basis-inverse rebuilds, run when the primal residual drifts.
    refactorizations: int = 0
    #: Pivots taken under the Bland anti-cycling fallback.
    bland_pivots: int = 0
    #: Constraints eliminated by presolve.
    presolve_rows_removed: int = 0
    #: Variables fixed/eliminated by presolve.
    presolve_cols_removed: int = 0
    #: Branch-and-bound nodes explored (0 = relaxation was integral).
    bb_nodes: int = 0
