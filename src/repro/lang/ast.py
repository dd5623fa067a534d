"""Abstract syntax tree for mini-C.

Mini-C is the C subset used to generate realistic embedded binaries for
the analyses (see DESIGN.md): 32-bit signed integers, global and local
scalars and one-dimensional arrays, the usual expression operators
(no division — KRISC has no divide unit), ``if``/``while``/``for``/
``do``/``break``/``continue``/``return``, and call-by-value functions
of up to four parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class Node:
    line: int = field(default=0, compare=False)


# -- Expressions --------------------------------------------------------------


@dataclass
class Expr(Node):
    pass


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class VarRef(Expr):
    name: str = ""


@dataclass
class ArrayRef(Expr):
    name: str = ""
    index: Optional[Expr] = None


@dataclass
class Unary(Expr):
    op: str = ""                 # "-" | "!" | "~"
    operand: Optional[Expr] = None


@dataclass
class Binary(Expr):
    op: str = ""                 # + - * & | ^ << >> < <= > >= == != && ||
    left: Optional[Expr] = None
    right: Optional[Expr] = None


@dataclass
class Call(Expr):
    name: str = ""
    arguments: List[Expr] = field(default_factory=list)


# -- Statements -----------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class Declaration(Stmt):
    name: str = ""
    array_size: Optional[int] = None      # None = scalar
    initializer: Optional[Expr] = None    # scalars only


@dataclass
class Assignment(Stmt):
    target: Optional[Expr] = None         # VarRef or ArrayRef
    value: Optional[Expr] = None


@dataclass
class If(Stmt):
    condition: Optional[Expr] = None
    then_body: List[Stmt] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)


@dataclass
class While(Stmt):
    condition: Optional[Expr] = None
    body: List[Stmt] = field(default_factory=list)


@dataclass
class DoWhile(Stmt):
    condition: Optional[Expr] = None
    body: List[Stmt] = field(default_factory=list)


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None           # Assignment or Declaration
    condition: Optional[Expr] = None
    update: Optional[Stmt] = None          # Assignment
    body: List[Stmt] = field(default_factory=list)


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class ExprStmt(Stmt):
    expression: Optional[Expr] = None


# -- Top level -----------------------------------------------------------------------


@dataclass
class GlobalVar(Node):
    name: str = ""
    array_size: Optional[int] = None
    initializer: List[int] = field(default_factory=list)


@dataclass
class Parameter(Node):
    name: str = ""


@dataclass
class Function(Node):
    name: str = ""
    parameters: List[Parameter] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)
    returns_value: bool = True             # int f() vs void f()


@dataclass
class TranslationUnit(Node):
    globals: List[GlobalVar] = field(default_factory=list)
    functions: List[Function] = field(default_factory=list)

    def function(self, name: str) -> Function:
        for function in self.functions:
            if function.name == name:
                return function
        raise KeyError(f"no function {name!r}")
