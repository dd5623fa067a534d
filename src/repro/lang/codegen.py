"""Mini-C code generator: AST -> KRISC assembly text.

Code is generated in an analysis-friendly but realistic style:

* Scalar locals and parameters live in callee-saved registers
  (``R4``-``R9``); overflow scalars and all local arrays live in the
  stack frame.  Register-resident loop counters are what makes the
  affine loop-bound pattern of :mod:`repro.analysis.loopbounds` fire on
  compiled code, exactly as aiT's pattern matching expects of embedded
  compilers.
* Expression temporaries use ``R10``-``R12`` with LIFO spilling to the
  machine stack when an expression is deeper than the pool.
* ``while``/``for`` loops are *rotated* (guard + do-while) so every
  loop is a natural loop with its test at the latch — the shape that
  keeps binaries reducible.
* All functions preserve every ``R4``-``R12`` register they touch, so
  temporaries survive calls.

The generator emits assembly text for :mod:`repro.isa.assembler`, i.e.
the compiler output goes through the *real binary encoder* before any
analysis sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from . import ast

#: Registers available for scalar locals/parameters.
VARIABLE_REGISTERS = (4, 5, 6, 7, 8, 9)
#: Registers for expression temporaries.
TEMP_REGISTERS = (10, 11, 12)

_COMPARISONS = {"<": "LT", "<=": "LE", ">": "GT", ">=": "GE",
                "==": "EQ", "!=": "NE"}
_NEGATED = {"LT": "GE", "LE": "GT", "GT": "LE", "GE": "LT",
            "EQ": "NE", "NE": "EQ"}
_ALU = {"+": "ADD", "-": "SUB", "*": "MUL", "&": "AND", "|": "OR",
        "^": "XOR", "<<": "SHL", ">>": "ASR"}
_ALU_IMM = {"+": "ADDI", "-": "SUBI", "*": "MULI", "&": "ANDI",
            "|": "ORI", "^": "XORI", "<<": "SHLI", ">>": "ASRI"}


class CodegenError(ValueError):
    def __init__(self, message: str, line: int = 0):
        location = f"line {line}: " if line else ""
        super().__init__(f"{location}{message}")


@dataclass
class RegisterHome:
    register: int


@dataclass
class StackHome:
    offset: int          # bytes from SP after the prologue


@dataclass
class ArrayHome:
    offset: int
    size: int            # elements


Home = Union[RegisterHome, StackHome, ArrayHome]


@dataclass
class GlobalInfo:
    label: str
    array_size: Optional[int]


class _Temp:
    """A value on the expression evaluation stack."""

    __slots__ = ("register", "spilled", "pinned")

    def __init__(self, register: int):
        self.register = register
        self.spilled = False
        #: Pinned temps are never chosen as spill victims (used when a
        #: register must stay stable across nested condition codegen).
        self.pinned = False


def _calls(stmt: ast.Stmt) -> bool:
    """Whether ``stmt`` calls a function anywhere inside it."""
    for attr in ("initializer", "value", "condition", "expression"):
        if _expr_calls(getattr(stmt, attr, None)):
            return True
    if isinstance(stmt, ast.Assignment) and \
            isinstance(stmt.target, ast.ArrayRef) and \
            _expr_calls(stmt.target.index):
        return True
    for attr in ("then_body", "else_body", "body"):
        if any(_calls(inner) for inner in getattr(stmt, attr, [])):
            return True
    return any(_calls(inner)
               for inner in (getattr(stmt, "init", None),
                             getattr(stmt, "update", None))
               if inner is not None)


def _expr_calls(expr: Optional[ast.Expr]) -> bool:
    if isinstance(expr, ast.Call):
        return True
    if isinstance(expr, ast.Unary):
        return _expr_calls(expr.operand)
    if isinstance(expr, ast.Binary):
        return _expr_calls(expr.left) or _expr_calls(expr.right)
    if isinstance(expr, ast.ArrayRef):
        return _expr_calls(expr.index)
    return False


def _declarations(statements):
    """``(name, array size or None, line)`` of every local that
    ``statements`` declare, in the order homes are assigned: source
    order, except that a ``for`` header's declaration follows the loop
    body."""
    for stmt in statements:
        if isinstance(stmt, ast.Declaration):
            yield stmt.name, stmt.array_size, stmt.line
        for attr in ("then_body", "else_body", "body"):
            yield from _declarations(getattr(stmt, attr, []))
        init = getattr(stmt, "init", None)
        if isinstance(init, ast.Declaration):
            yield init.name, None, init.line


class FunctionCodegen:
    """Generates the body of a single function."""

    def __init__(self, unit_cg: "Codegen", function: ast.Function):
        self.unit = unit_cg
        self.function = function
        self.lines: List[str] = []
        self.homes: Dict[str, Home] = {}
        self.frame_size = 0
        self.temp_stack: List[_Temp] = []
        self.free_temps: List[int] = list(TEMP_REGISTERS)
        self.used_temps: Set[int] = set()
        self.used_var_regs: Set[int] = set()
        self.spill_depth = 0                  # bytes pushed by spills
        self.loop_stack: List[Tuple[str, str]] = []   # (continue, break)
        self.makes_calls = any(_calls(stmt) for stmt in function.body)
        self.is_main = function.name == "main"

    # -- Helpers --------------------------------------------------------------

    def emit(self, text: str) -> None:
        self.lines.append(f"    {text}")

    def emit_label(self, label: str) -> None:
        self.lines.append(f"{label}:")

    def new_label(self) -> str:
        return self.unit.new_label()

    # -- Homes ----------------------------------------------------------------------

    def _assign_homes(self) -> None:
        registers = list(VARIABLE_REGISTERS)
        stack_cursor = 0
        declared = [(parameter.name, None, parameter.line)
                    for parameter in self.function.parameters]
        declared.extend(_declarations(self.function.body))
        for name, array_size, line in declared:
            if name in self.homes:
                raise CodegenError(f"duplicate variable {name!r}", line)
            if array_size is not None:
                self.homes[name] = ArrayHome(stack_cursor, array_size)
                stack_cursor += 4 * array_size
            elif registers:
                register = registers.pop(0)
                self.homes[name] = RegisterHome(register)
                self.used_var_regs.add(register)
            else:
                self.homes[name] = StackHome(stack_cursor)
                stack_cursor += 4
        self.frame_size = stack_cursor

    # -- Temp management ----------------------------------------------------------------

    def alloc_temp(self, line: int = 0) -> _Temp:
        if self.free_temps:
            register = self.free_temps.pop(0)
            self.used_temps.add(register)
            temp = _Temp(register)
            self.temp_stack.append(temp)
            return temp
        # Spill the deepest in-register, unpinned temp.
        victim = next((t for t in self.temp_stack
                       if not t.spilled and not t.pinned), None)
        if victim is None:
            raise CodegenError("expression too complex", line)
        self.emit(f"PUSH {{R{victim.register}}}")
        self.spill_depth += 4
        register = victim.register
        victim.spilled = True
        temp = _Temp(register)
        self.temp_stack.append(temp)
        return temp

    def pop_temp(self) -> _Temp:
        temp = self.temp_stack.pop()
        assert not temp.spilled, "top temp can never be spilled"
        self.free_temps.insert(0, temp.register)
        return temp

    def unspill(self, temp: _Temp) -> None:
        """Restore a spilled temp (it must be the most recent spill)."""
        if not temp.spilled:
            return
        register = self.free_temps.pop(0)
        self.used_temps.add(register)
        self.emit(f"POP {{R{register}}}")
        self.spill_depth -= 4
        temp.register = register
        temp.spilled = False

    def sp_offset(self, offset: int) -> int:
        """Frame offset adjusted for temporaries spilled on top."""
        return offset + self.spill_depth

    # -- Expressions --------------------------------------------------------------

    def gen_expression(self, expr: ast.Expr) -> _Temp:
        """Evaluate ``expr`` into a fresh temp (top of temp stack)."""
        if isinstance(expr, ast.IntLiteral):
            temp = self.alloc_temp(expr.line)
            self.emit(f"LDI R{temp.register}, #{expr.value}")
            return temp
        if isinstance(expr, ast.VarRef):
            return self._gen_var_read(expr)
        if isinstance(expr, ast.ArrayRef):
            return self._gen_array_read(expr)
        if isinstance(expr, ast.Unary):
            return self._gen_unary(expr)
        if isinstance(expr, ast.Binary):
            if expr.op in _COMPARISONS or expr.op in ("&&", "||"):
                return self._gen_boolean_value(expr)
            return self._gen_binary(expr)
        if isinstance(expr, ast.Call):
            return self._gen_call(expr)
        raise CodegenError(f"unsupported expression {expr!r}", expr.line)

    def _gen_var_read(self, expr: ast.VarRef) -> _Temp:
        home = self.homes.get(expr.name)
        temp = self.alloc_temp(expr.line)
        if home is None:
            info = self.unit.globals.get(expr.name)
            if info is None:
                raise CodegenError(f"undefined variable {expr.name!r}",
                                   expr.line)
            if info.array_size is not None:
                raise CodegenError(
                    f"array {expr.name!r} used as scalar", expr.line)
            self.emit(f"LDA R{temp.register}, {info.label}")
            self.emit(f"LDR R{temp.register}, [R{temp.register}]")
        elif isinstance(home, RegisterHome):
            self.emit(f"MOV R{temp.register}, R{home.register}")
        elif isinstance(home, StackHome):
            self.emit(f"LDR R{temp.register}, "
                      f"[SP, #{self.sp_offset(home.offset)}]")
        else:
            raise CodegenError(
                f"array {expr.name!r} used as scalar", expr.line)
        return temp

    def _gen_array_read(self, expr: ast.ArrayRef) -> _Temp:
        base = self._gen_array_base(expr.name, expr.line)
        index = self.gen_expression(expr.index)
        self.unspill(index)
        self.unspill(base)
        self.emit(f"SHLI R{index.register}, R{index.register}, #2")
        self.emit(f"LDR R{base.register}, "
                  f"[R{base.register}, R{index.register}]")
        self.pop_temp()   # index
        return base

    def _gen_array_base(self, name: str, line: int) -> _Temp:
        """Temp holding the byte address of ``name[0]``."""
        home = self.homes.get(name)
        temp = self.alloc_temp(line)
        if home is None:
            info = self.unit.globals.get(name)
            if info is None or info.array_size is None:
                raise CodegenError(f"undefined array {name!r}", line)
            self.emit(f"LDA R{temp.register}, {info.label}")
        elif isinstance(home, ArrayHome):
            self.emit(f"ADDI R{temp.register}, SP, "
                      f"#{self.sp_offset(home.offset)}")
        else:
            raise CodegenError(f"scalar {name!r} indexed as array", line)
        return temp

    def _gen_unary(self, expr: ast.Unary) -> _Temp:
        if expr.op == "!":
            return self._gen_boolean_value(expr)
        if expr.op == "-":
            zero = self.alloc_temp(expr.line)
            self.emit(f"MOVI R{zero.register}, #0")
            operand = self.gen_expression(expr.operand)
            self.unspill(operand)
            self.unspill(zero)
            self.emit(f"SUB R{zero.register}, R{zero.register}, "
                      f"R{operand.register}")
            self.pop_temp()   # operand
            return zero
        operand = self.gen_expression(expr.operand)
        self.unspill(operand)
        if expr.op == "~":
            self.emit(f"XORI R{operand.register}, R{operand.register}, "
                      "#-1")
        else:  # pragma: no cover
            raise CodegenError(f"unknown unary {expr.op!r}", expr.line)
        return operand

    def _register_of_variable(self, expr: ast.Expr) -> Optional[int]:
        """The home register of a plain register-resident variable, so
        it can be used as an ALU/compare operand without a copy.  This
        is what keeps compiled loop counters recognisable to the affine
        loop-bound pattern (a single ``ADDI Rc, Rc, #step`` def and a
        ``CMP Rc, ...`` at the latch)."""
        if isinstance(expr, ast.VarRef):
            home = self.homes.get(expr.name)
            if isinstance(home, RegisterHome):
                return home.register
        return None

    def _gen_binary(self, expr: ast.Binary) -> _Temp:
        mnemonic = _ALU.get(expr.op)
        if mnemonic is None:
            raise CodegenError(f"unsupported operator {expr.op!r} "
                               "(mini-C has no division)", expr.line)
        left_reg = self._register_of_variable(expr.left)
        # Constant right operand: use the immediate form.
        if isinstance(expr.right, ast.IntLiteral) \
                and -32768 <= expr.right.value <= 32767:
            if left_reg is not None:
                result = self.alloc_temp(expr.line)
                self.emit(f"{_ALU_IMM[expr.op]} R{result.register}, "
                          f"R{left_reg}, #{expr.right.value}")
                return result
            left = self.gen_expression(expr.left)
            self.unspill(left)
            self.emit(f"{_ALU_IMM[expr.op]} R{left.register}, "
                      f"R{left.register}, #{expr.right.value}")
            return left
        right_reg = self._register_of_variable(expr.right)
        if left_reg is not None and right_reg is not None:
            result = self.alloc_temp(expr.line)
            self.emit(f"{mnemonic} R{result.register}, R{left_reg}, "
                      f"R{right_reg}")
            return result
        if left_reg is not None:
            right = self.gen_expression(expr.right)
            self.unspill(right)
            self.emit(f"{mnemonic} R{right.register}, R{left_reg}, "
                      f"R{right.register}")
            return right
        if right_reg is not None:
            left = self.gen_expression(expr.left)
            self.unspill(left)
            self.emit(f"{mnemonic} R{left.register}, R{left.register}, "
                      f"R{right_reg}")
            return left
        left = self.gen_expression(expr.left)
        right = self.gen_expression(expr.right)
        self.unspill(right)   # right is top; never spilled, defensive
        self.unspill(left)
        self.emit(f"{mnemonic} R{left.register}, R{left.register}, "
                  f"R{right.register}")
        self.pop_temp()       # right
        return left

    def _gen_boolean_value(self, expr: ast.Expr) -> _Temp:
        """Materialise a condition as 0/1."""
        true_label = self.new_label()
        end_label = self.new_label()
        temp = self.alloc_temp(expr.line)
        temp.pinned = True   # must keep this register across the branches
        self.gen_condition(expr, true_label, None)
        self.emit(f"MOVI R{temp.register}, #0")
        self.emit(f"B {end_label}")
        self.emit_label(true_label)
        self.emit(f"MOVI R{temp.register}, #1")
        self.emit_label(end_label)
        temp.pinned = False
        return temp

    def _gen_call(self, expr: ast.Call) -> _Temp:
        if expr.name not in self.unit.functions \
                and expr.name not in self.unit.declared_functions:
            raise CodegenError(f"undefined function {expr.name!r}",
                               expr.line)
        argument_temps = [self.gen_expression(arg)
                          for arg in expr.arguments]
        # Move arguments into R0..R3, consuming temps LIFO.
        for position in reversed(range(len(argument_temps))):
            temp = argument_temps[position]
            assert temp is self.temp_stack[-1]
            self.unspill(temp)
            self.emit(f"MOV R{position}, R{temp.register}")
            self.pop_temp()
        self.emit(f"BL {expr.name}")
        result = self.alloc_temp(expr.line)
        self.emit(f"MOV R{result.register}, R0")
        return result

    # -- Conditions ------------------------------------------------------------------

    def gen_condition(self, expr: ast.Expr, true_label: Optional[str],
                      false_label: Optional[str]) -> None:
        """Branch to ``true_label`` when ``expr`` holds, ``false_label``
        otherwise; ``None`` means fall through."""
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self.gen_condition(expr.operand, false_label, true_label)
            return
        if isinstance(expr, ast.Binary) and expr.op == "&&":
            middle = self.new_label()
            fail = false_label or self.new_label()
            self.gen_condition(expr.left, middle, fail)
            self.emit_label(middle)
            self.gen_condition(expr.right, true_label, false_label)
            if false_label is None:
                self.emit_label(fail)
            return
        if isinstance(expr, ast.Binary) and expr.op == "||":
            succeed = true_label or self.new_label()
            middle = self.new_label()
            self.gen_condition(expr.left, succeed, middle)
            self.emit_label(middle)
            self.gen_condition(expr.right, true_label, false_label)
            if true_label is None:
                self.emit_label(succeed)
            return
        if isinstance(expr, ast.Binary) and expr.op in _COMPARISONS:
            self._gen_compare_branch(expr, true_label, false_label)
            return
        # Any other expression: compare against zero.
        temp = self.gen_expression(expr)
        self.unspill(temp)
        self.emit(f"CMPI R{temp.register}, #0")
        self.pop_temp()
        self._emit_cond_branches("NE", true_label, false_label)

    def _gen_compare_branch(self, expr: ast.Binary,
                            true_label: Optional[str],
                            false_label: Optional[str]) -> None:
        condition = _COMPARISONS[expr.op]
        left_reg = self._register_of_variable(expr.left)
        right_reg = self._register_of_variable(expr.right)
        if isinstance(expr.right, ast.IntLiteral) \
                and -32768 <= expr.right.value <= 32767:
            if left_reg is not None:
                self.emit(f"CMPI R{left_reg}, #{expr.right.value}")
            else:
                left = self.gen_expression(expr.left)
                self.unspill(left)
                self.emit(f"CMPI R{left.register}, #{expr.right.value}")
                self.pop_temp()
        elif left_reg is not None and right_reg is not None:
            self.emit(f"CMP R{left_reg}, R{right_reg}")
        elif left_reg is not None:
            right = self.gen_expression(expr.right)
            self.unspill(right)
            self.emit(f"CMP R{left_reg}, R{right.register}")
            self.pop_temp()
        elif right_reg is not None:
            left = self.gen_expression(expr.left)
            self.unspill(left)
            self.emit(f"CMP R{left.register}, R{right_reg}")
            self.pop_temp()
        else:
            left = self.gen_expression(expr.left)
            right = self.gen_expression(expr.right)
            self.unspill(right)
            self.unspill(left)
            self.emit(f"CMP R{left.register}, R{right.register}")
            self.pop_temp()
            self.pop_temp()
        self._emit_cond_branches(condition, true_label, false_label)

    def _emit_cond_branches(self, condition: str,
                            true_label: Optional[str],
                            false_label: Optional[str]) -> None:
        if true_label is not None:
            self.emit(f"B{condition} {true_label}")
            if false_label is not None:
                self.emit(f"B {false_label}")
        elif false_label is not None:
            self.emit(f"B{_NEGATED[condition]} {false_label}")

    # -- Statements --------------------------------------------------------------------

    def gen_statements(self, statements) -> None:
        for statement in statements:
            self.gen_statement(statement)

    def gen_statement(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Declaration):
            if stmt.initializer is not None:
                self._store_scalar(stmt.name, stmt.initializer, stmt.line)
        elif isinstance(stmt, ast.Assignment):
            self._gen_assignment(stmt)
        elif isinstance(stmt, ast.If):
            self._gen_if(stmt)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._gen_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._gen_for(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                temp = self.gen_expression(stmt.value)
                self.unspill(temp)
                self.emit(f"MOV R0, R{temp.register}")
                self.pop_temp()
            self.emit(f"B {self.epilogue_label}")
        elif isinstance(stmt, ast.Break):
            if not self.loop_stack:
                raise CodegenError("break outside loop", stmt.line)
            self.emit(f"B {self.loop_stack[-1][1]}")
        elif isinstance(stmt, ast.Continue):
            if not self.loop_stack:
                raise CodegenError("continue outside loop", stmt.line)
            self.emit(f"B {self.loop_stack[-1][0]}")
        elif isinstance(stmt, ast.ExprStmt):
            temp = self.gen_expression(stmt.expression)
            self.unspill(temp)
            self.pop_temp()
        else:  # pragma: no cover
            raise CodegenError(f"unsupported statement {stmt!r}",
                               stmt.line)

    def _store_scalar(self, name: str, value: ast.Expr,
                      line: int) -> None:
        home = self.homes.get(name)
        if isinstance(home, RegisterHome) \
                and self._gen_inplace_update(home.register, name, value):
            return
        temp = self.gen_expression(value)
        self.unspill(temp)
        home = self.homes.get(name)
        if home is None:
            info = self.unit.globals.get(name)
            if info is None:
                raise CodegenError(f"undefined variable {name!r}", line)
            if info.array_size is not None:
                raise CodegenError(f"array {name!r} assigned as scalar",
                                   line)
            address = self.alloc_temp(line)
            self.emit(f"LDA R{address.register}, {info.label}")
            self.emit(f"STR R{temp.register}, [R{address.register}]")
            self.pop_temp()
        elif isinstance(home, RegisterHome):
            self.emit(f"MOV R{home.register}, R{temp.register}")
        elif isinstance(home, StackHome):
            self.emit(f"STR R{temp.register}, "
                      f"[SP, #{self.sp_offset(home.offset)}]")
        else:
            raise CodegenError(f"array {name!r} assigned as scalar", line)
        self.pop_temp()

    def _gen_inplace_update(self, register: int, name: str,
                            value: ast.Expr) -> bool:
        """Emit ``x = x <op> operand`` as a single in-place ALU
        instruction when ``x`` lives in a register.  Besides shorter
        code, this is what makes compiled loop counters match the
        affine bound pattern (a unique ``ADDI Rc, Rc, #step`` def)."""
        if not isinstance(value, ast.Binary):
            # x = y (register to register)
            source = self._register_of_variable(value)
            if source is not None:
                self.emit(f"MOV R{register}, R{source}")
                return True
            if isinstance(value, ast.IntLiteral):
                self.emit(f"LDI R{register}, #{value.value}")
                return True
            return False
        mnemonic = _ALU.get(value.op)
        if mnemonic is None:
            return False
        left_is_self = isinstance(value.left, ast.VarRef) \
            and value.left.name == name
        if not left_is_self:
            return False
        if isinstance(value.right, ast.IntLiteral) \
                and -32768 <= value.right.value <= 32767:
            self.emit(f"{_ALU_IMM[value.op]} R{register}, R{register}, "
                      f"#{value.right.value}")
            return True
        right_reg = self._register_of_variable(value.right)
        if right_reg is not None:
            self.emit(f"{mnemonic} R{register}, R{register}, "
                      f"R{right_reg}")
            return True
        return False

    def _gen_assignment(self, stmt: ast.Assignment) -> None:
        if isinstance(stmt.target, ast.VarRef):
            self._store_scalar(stmt.target.name, stmt.value, stmt.line)
            return
        target = stmt.target
        value = self.gen_expression(stmt.value)
        base = self._gen_array_base(target.name, stmt.line)
        index = self.gen_expression(target.index)
        self.unspill(index)
        self.emit(f"SHLI R{index.register}, R{index.register}, #2")
        self.unspill(base)
        self.unspill(value)
        self.emit(f"STR R{value.register}, "
                  f"[R{base.register}, R{index.register}]")
        self.pop_temp()   # index
        self.pop_temp()   # base
        self.pop_temp()   # value

    def _gen_if(self, stmt: ast.If) -> None:
        else_label = self.new_label()
        end_label = self.new_label()
        has_else = bool(stmt.else_body)
        self.gen_condition(stmt.condition, None,
                           else_label if has_else else end_label)
        self.gen_statements(stmt.then_body)
        if has_else:
            self.emit(f"B {end_label}")
            self.emit_label(else_label)
            self.gen_statements(stmt.else_body)
        self.emit_label(end_label)

    def _gen_while(self, stmt: ast.While) -> None:
        body_label = self.new_label()
        continue_label = self.new_label()
        exit_label = self.new_label()
        # Rotated loop: guard, body, bottom test.
        self.gen_condition(stmt.condition, None, exit_label)
        self.emit_label(body_label)
        self.loop_stack.append((continue_label, exit_label))
        self.gen_statements(stmt.body)
        self.loop_stack.pop()
        self.emit_label(continue_label)
        self.gen_condition(stmt.condition, body_label, None)
        self.emit_label(exit_label)

    def _gen_do_while(self, stmt: ast.DoWhile) -> None:
        body_label = self.new_label()
        continue_label = self.new_label()
        exit_label = self.new_label()
        self.emit_label(body_label)
        self.loop_stack.append((continue_label, exit_label))
        self.gen_statements(stmt.body)
        self.loop_stack.pop()
        self.emit_label(continue_label)
        self.gen_condition(stmt.condition, body_label, None)
        self.emit_label(exit_label)

    def _gen_for(self, stmt: ast.For) -> None:
        body_label = self.new_label()
        continue_label = self.new_label()
        exit_label = self.new_label()
        if stmt.init is not None:
            self.gen_statement(stmt.init)
        if stmt.condition is not None:
            self.gen_condition(stmt.condition, None, exit_label)
        self.emit_label(body_label)
        self.loop_stack.append((continue_label, exit_label))
        self.gen_statements(stmt.body)
        self.loop_stack.pop()
        self.emit_label(continue_label)
        if stmt.update is not None:
            self.gen_statement(stmt.update)
        if stmt.condition is not None:
            self.gen_condition(stmt.condition, body_label, None)
        else:
            self.emit(f"B {body_label}")
        self.emit_label(exit_label)

    # -- Function assembly --------------------------------------------------------------

    def generate(self) -> List[str]:
        self._assign_homes()
        self.epilogue_label = self.unit.new_label()

        body_cg_start = len(self.lines)
        # Parameters into their homes.
        for position, parameter in enumerate(self.function.parameters):
            home = self.homes[parameter.name]
            if isinstance(home, RegisterHome):
                self.emit(f"MOV R{home.register}, R{position}")
            else:
                self.emit(f"STR R{position}, [SP, #{home.offset}]")
        self.gen_statements(self.function.body)
        if self.temp_stack:  # pragma: no cover - internal invariant
            raise CodegenError(
                f"{self.function.name}: temp stack not empty")
        body = self.lines[body_cg_start:]

        saved = sorted(self.used_var_regs | self.used_temps)
        if self.makes_calls and not self.is_main:
            saved.append(14)   # LR
        if self.is_main:
            saved = [r for r in saved if r != 14]

        prologue: List[str] = [f"{self.function.name}:"]
        if saved:
            reglist = ", ".join(f"R{r}" if r != 14 else "LR"
                                for r in saved)
            prologue.append(f"    PUSH {{{reglist}}}")
        if self.frame_size:
            prologue.append(f"    SUBI SP, SP, #{self.frame_size}")

        epilogue: List[str] = [f"{self.epilogue_label}:"]
        if self.frame_size:
            epilogue.append(f"    ADDI SP, SP, #{self.frame_size}")
        if saved:
            reglist = ", ".join(f"R{r}" if r != 14 else "LR"
                                for r in saved)
            epilogue.append(f"    POP {{{reglist}}}")
        epilogue.append("    HALT" if self.is_main else "    RET")

        return prologue + body + epilogue


class Codegen:
    """Whole-unit code generator."""

    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.globals: Dict[str, GlobalInfo] = {}
        self.functions: Set[str] = {f.name for f in unit.functions}
        self.declared_functions: Set[str] = set(self.functions)
        self.label_counter = 0

    def new_label(self) -> str:
        label = f".L{self.label_counter}"
        self.label_counter += 1
        return label

    def generate(self) -> str:
        lines: List[str] = []
        for glob in self.unit.globals:
            if glob.name in self.globals:
                raise CodegenError(f"duplicate global {glob.name!r}",
                                   glob.line)
            self.globals[glob.name] = GlobalInfo(
                f"g_{glob.name}", glob.array_size)

        if "main" not in self.functions:
            raise CodegenError("mini-C program needs a main function")

        # main first so it becomes the entry point.
        ordered = sorted(self.unit.functions,
                         key=lambda f: f.name != "main")
        for function in ordered:
            lines.extend(FunctionCodegen(self, function).generate())
            lines.append("")

        if self.unit.globals:
            lines.append(".data")
            for glob in self.unit.globals:
                info = self.globals[glob.name]
                if glob.array_size is None:
                    value = glob.initializer[0] if glob.initializer else 0
                    lines.append(f"{info.label}: .word {value}")
                else:
                    values = list(glob.initializer)
                    values += [0] * (glob.array_size - len(values))
                    if glob.initializer:
                        rendered = ", ".join(str(v) for v in values)
                        lines.append(f"{info.label}: .word {rendered}")
                    else:
                        lines.append(f"{info.label}: "
                                     f".space {4 * glob.array_size}")
        return "\n".join(lines) + "\n"
