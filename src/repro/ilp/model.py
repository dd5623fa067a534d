"""Linear/integer program model objects.

The paper combines abstract interpretation "with ILP (Integer Linear
Programming) techniques to safely predict the worst-case execution time
and a corresponding worst-case execution path" (Section 3).  This
module is the model layer; :mod:`repro.ilp.simplex` and
:mod:`repro.ilp.branchbound` solve it, with ``scipy.optimize.linprog``
available as an independent cross-check in the tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class Sense(enum.Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass
class Variable:
    """A decision variable with bounds."""

    name: str
    index: int
    lower: float = 0.0
    upper: Optional[float] = None   # None = unbounded above
    is_integer: bool = True


@dataclass
class Constraint:
    """``sum(coeff * var) <sense> rhs``."""

    coefficients: Dict[int, float]
    sense: Sense
    rhs: float
    name: str = ""


class LinearProgram:
    """A (mixed-integer) linear program: maximise ``objective``."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self.objective: Dict[int, float] = {}
        self._by_name: Dict[str, Variable] = {}

    # -- Building -----------------------------------------------------------

    def add_variable(self, name: str, lower: float = 0.0,
                     upper: Optional[float] = None,
                     is_integer: bool = True) -> Variable:
        if name in self._by_name:
            raise ValueError(f"duplicate variable {name!r}")
        variable = Variable(name, len(self.variables), lower, upper,
                            is_integer)
        self.variables.append(variable)
        self._by_name[name] = variable
        return variable

    def add_constraint(self, coefficients: Dict[int, float], sense: Sense,
                       rhs: float, name: str = "") -> None:
        clean = {index: value for index, value in coefficients.items()
                 if value != 0.0}
        self.constraints.append(Constraint(clean, sense, rhs, name))

    def set_objective_coefficient(self, variable: Variable,
                                  value: float) -> None:
        if value:
            self.objective[variable.index] = \
                self.objective.get(variable.index, 0.0) + value

    # -- Introspection ----------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def __repr__(self) -> str:
        return (f"LinearProgram({self.name!r}, {self.num_variables} vars, "
                f"{self.num_constraints} constraints)")


@dataclass
class Solution:
    """Solver output."""

    status: str                       # "optimal" | "infeasible" | "unbounded"
    objective: Optional[float] = None
    values: Dict[int, float] = field(default_factory=dict)

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    def value_of(self, variable: Variable) -> float:
        return self.values.get(variable.index, 0.0)

    def is_integral(self, tolerance: float = 1e-6) -> bool:
        return all(abs(v - round(v)) <= tolerance
                   for v in self.values.values())
