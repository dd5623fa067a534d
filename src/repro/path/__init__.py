"""IPET path analysis: CFG + timing + loop bounds -> WCET (phase 6)."""

from .ipet import (InexactBoundError, PathAnalysis, PathAnalysisResult,
                   UnboundedLoopError, WorstCasePath, analyze_paths)

__all__ = [
    "InexactBoundError", "PathAnalysis", "PathAnalysisResult",
    "UnboundedLoopError", "WorstCasePath", "analyze_paths",
]
