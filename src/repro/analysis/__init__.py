"""Value analysis by abstract interpretation (phases 2-3 of aiT).

Domains: intervals (:class:`Interval`, the analysis domain), with
constant propagation (:class:`Const`) and strided intervals
(:class:`StridedInterval`) as ablations.  The fixpoint engine, abstract
transfer functions, whole-task value analysis, and loop-bound analysis
live here.
"""

from .constprop import Const
from .domain import AbstractValue, INT_MAX, INT_MIN, to_signed
from .interval import Interval
from .strided import StridedInterval
from .loopbounds import (LoopBound, LoopBoundAnalysis, analyze_loop_bounds)
from .fixpoint import (FixpointKernel, FixpointSemantics, FixpointStats,
                       Violation, WeakTopologicalOrder, WTOComponent,
                       WTOVertex, check_postfixpoint, weak_topological_order)
from .solver import FixpointResult, collect_thresholds, solve_values
from .state import AbstractMemory, AbstractState, FlagsInfo
from .transfer import (compile_block, evaluate_condition,
                       refine_by_condition, transfer_block,
                       transfer_instruction)
from .valueanalysis import (MemoryAccess, PrecisionStats,
                            ValueAnalysisResult, analyze_values)
from .vectorized import AddressSpace, VectorMemory

__all__ = [
    "Const", "AbstractValue", "INT_MAX", "INT_MIN", "to_signed",
    "Interval", "StridedInterval",
    "LoopBound", "LoopBoundAnalysis", "analyze_loop_bounds",
    "FixpointKernel", "FixpointSemantics", "FixpointStats",
    "Violation", "WeakTopologicalOrder", "WTOComponent", "WTOVertex",
    "check_postfixpoint", "weak_topological_order",
    "FixpointResult", "collect_thresholds", "solve_values",
    "AbstractMemory", "AbstractState", "FlagsInfo",
    "compile_block", "evaluate_condition", "refine_by_condition",
    "transfer_block", "transfer_instruction",
    "MemoryAccess", "PrecisionStats", "ValueAnalysisResult",
    "analyze_values",
    "AddressSpace", "VectorMemory",
]
