"""Work counters of the LP/ILP engine.

Mirrors :class:`repro.analysis.fixpoint.FixpointStats`: one object per
``analyze_paths`` call, accumulated across presolve, the root LP solve,
and every branch-and-bound node, surfaced through
``WCETResult.solver_stats["path"]`` and the text report so solver cost
is visible next to the fixpoint counters of the earlier phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class ILPStats:
    """Counters for one LP/ILP solve (or a whole branch-and-bound run)."""

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

    @property
    def pivots(self) -> int:
        """Total simplex pivots across all phases and nodes."""
        return self.phase1_pivots + self.phase2_pivots + self.dual_pivots

    def absorb(self, other: "ILPStats") -> None:
        """Fold a follow-up solve of the *same program* into this
        object: work counters accumulate (the work really happened),
        but the presolve reduction is a property of the program, so a
        re-presolve must not double-count it."""
        self.phase1_pivots += other.phase1_pivots
        self.phase2_pivots += other.phase2_pivots
        self.dual_pivots += other.dual_pivots
        self.bound_flips += other.bound_flips
        self.refactorizations += other.refactorizations
        self.bland_pivots += other.bland_pivots
        self.bb_nodes += other.bb_nodes
        self.warm_start_hits += other.warm_start_hits
        self.cold_solves += other.cold_solves
        self.presolve_rows_removed = max(self.presolve_rows_removed,
                                         other.presolve_rows_removed)
        self.presolve_cols_removed = max(self.presolve_cols_removed,
                                         other.presolve_cols_removed)

    def as_dict(self) -> Dict[str, int]:
        return {
            "pivots": self.pivots,
            "phase1_pivots": self.phase1_pivots,
            "phase2_pivots": self.phase2_pivots,
            "dual_pivots": self.dual_pivots,
            "bound_flips": self.bound_flips,
            "refactorizations": self.refactorizations,
            "bland_pivots": self.bland_pivots,
            "presolve_rows_removed": self.presolve_rows_removed,
            "presolve_cols_removed": self.presolve_cols_removed,
            "bb_nodes": self.bb_nodes,
            "warm_start_hits": self.warm_start_hits,
            "cold_solves": self.cold_solves,
        }

