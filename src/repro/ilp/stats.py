"""Work counters of the LP/ILP engine.

Mirrors :class:`repro.analysis.fixpoint.FixpointStats`: one plain
record per ``analyze_paths`` call, whose fields are exactly what it
reports, accumulated across presolve, the root LP solve, and every
branch-and-bound node, and surfaced through
``WCETResult.solver_stats["path"]``, result rows and the text report's
work-counter lines so solver cost is visible next to the fixpoint
counters of the earlier phases.

When the root relaxation is fractional, path analysis re-presolves the
program for branch and bound into the same record, so the presolve
counters then add up both presolves.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ILPStats:
    """Counters for one LP/ILP solve (or a whole branch-and-bound run)."""

    #: Total simplex pivots across all phases and nodes: every phase-1,
    #: phase-2 and dual pivot.
    pivots: int = 0
    #: Primal simplex pivots spent reaching feasibility (phase 1).
    phase1_pivots: int = 0
    #: Primal simplex pivots spent optimising (phase 2).
    phase2_pivots: int = 0
    #: Dual simplex pivots spent warm-starting branch-and-bound nodes.
    dual_pivots: int = 0
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
    #: Nodes re-optimised from the parent basis by the dual simplex.
    warm_start_hits: int = 0
    #: Nodes solved from a cold (two-phase) start.
    cold_solves: int = 0
