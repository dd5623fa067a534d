"""Mini-C compiler driver: source -> assembly -> binary Program."""

from __future__ import annotations

from typing import Optional

from ..isa.assembler import assemble
from ..isa.program import MemoryMap, Program
from .codegen import Codegen
from .parser import parse


def compile_to_assembly(source: str) -> str:
    """Compile mini-C source to KRISC assembly text."""
    unit = parse(source)
    return Codegen(unit).generate()


def compile_program(source: str,
                    memory_map: Optional[MemoryMap] = None) -> Program:
    """Compile mini-C source all the way to a linked binary.

    The result is a real :class:`Program` image — the analyses decode
    it from bytes exactly as they would a field binary.
    """
    return assemble(compile_to_assembly(source), memory_map)
