"""Recursive-descent parser for mini-C.

The parser, and the code generator after it, recurse once per level of
statement and expression nesting, so nesting deeper than
:data:`MAX_NESTING` is a :class:`ParseError` rather than a Python
``RecursionError``.  A chain of binary operators counts one level per
operator: it parses into a left-deep tree, which codegen walks
recursively.
"""

from __future__ import annotations

from typing import List, Optional

from . import ast
from .lexer import Token, tokenize


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line

    def __reduce__(self):
        # args holds the joined string, so default exception pickling
        # would replay a one-argument constructor call and fail.
        return (type(self), (self.message, self.line))


#: Deepest statement or expression nesting a program may use.
MAX_NESTING = 100

#: Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10,
}


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.position = 0
        self.depth = 0

    # -- Token helpers -------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.current
        if not token.is_eof:
            self.position += 1
        return token

    def check(self, kind: str) -> bool:
        return self.current.kind == kind

    def accept(self, kind: str) -> Optional[Token]:
        if self.check(kind):
            return self.advance()
        return None

    def expect(self, kind: str) -> Token:
        if not self.check(kind):
            raise ParseError(
                f"expected {kind!r}, found {self.current.text!r}",
                self.current.line)
        return self.advance()

    def _nest(self) -> None:
        """Go one nesting level deeper; the caller restores ``depth``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             self.current.line)

    # -- Top level ---------------------------------------------------------------

    def parse_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while not self.current.is_eof:
            returns_value = True
            if self.accept("void"):
                returns_value = False
            else:
                self.expect("int")
            name = self.expect("ident")
            if self.check("("):
                unit.functions.append(
                    self._function(name.text, returns_value, name.line))
            else:
                if not returns_value:
                    raise ParseError("void variables are not allowed",
                                     name.line)
                unit.globals.append(self._global(name.text, name.line))
        return unit

    def _global(self, name: str, line: int) -> ast.GlobalVar:
        array_size = None
        initializer: List[int] = []
        if self.accept("["):
            array_size = self._constant()
            self.expect("]")
        if self.accept("="):
            if array_size is None:
                initializer = [self._signed_constant()]
            else:
                self.expect("{")
                while not self.check("}"):
                    initializer.append(self._signed_constant())
                    if not self.accept(","):
                        break
                self.expect("}")
                if len(initializer) > array_size:
                    raise ParseError(
                        f"too many initializers for {name}", line)
        self.expect(";")
        return ast.GlobalVar(line=line, name=name, array_size=array_size,
                             initializer=initializer)

    def _constant(self) -> int:
        token = self.expect("number")
        return int(token.text, 0)

    def _signed_constant(self) -> int:
        negative = bool(self.accept("-"))
        value = self._constant()
        return -value if negative else value

    def _function(self, name: str, returns_value: bool,
                  line: int) -> ast.Function:
        self.expect("(")
        parameters: List[ast.Parameter] = []
        if not self.check(")") and not self.accept("void"):
            while True:
                self.expect("int")
                param = self.expect("ident")
                parameters.append(ast.Parameter(line=param.line,
                                                name=param.text))
                if not self.accept(","):
                    break
        self.expect(")")
        if len(parameters) > 4:
            raise ParseError(
                f"{name}: at most 4 parameters supported", line)
        body = self._block()
        return ast.Function(line=line, name=name, parameters=parameters,
                            body=body, returns_value=returns_value)

    # -- Statements ----------------------------------------------------------------

    def _block(self) -> List[ast.Stmt]:
        self.expect("{")
        self._nest()
        statements: List[ast.Stmt] = []
        while not self.check("}"):
            statements.append(self._statement())
        self.expect("}")
        self.depth -= 1
        return statements

    def _statement(self) -> ast.Stmt:
        token = self.current
        if token.kind == "int":
            return self._declaration()
        if token.kind == "if":
            return self._if()
        if token.kind == "while":
            return self._while()
        if token.kind == "do":
            return self._do_while()
        if token.kind == "for":
            return self._for()
        if token.kind == "return":
            self.advance()
            value = None if self.check(";") else self._expression()
            self.expect(";")
            return ast.Return(line=token.line, value=value)
        if token.kind == "break":
            self.advance()
            self.expect(";")
            return ast.Break(line=token.line)
        if token.kind == "continue":
            self.advance()
            self.expect(";")
            return ast.Continue(line=token.line)
        if token.kind == "{":
            # Anonymous block: flatten into an If(1) is ugly; represent
            # via a While? Simplest: inline sequence using If with
            # constant condition is wrong; return statements list is not
            # a Stmt. Mini-C therefore models bare blocks as if(1){...}.
            body = self._block()
            return ast.If(line=token.line,
                          condition=ast.IntLiteral(line=token.line,
                                                   value=1),
                          then_body=body, else_body=[])
        return self._simple_statement(expect_semicolon=True)

    def _declaration(self) -> ast.Stmt:
        token = self.expect("int")
        name = self.expect("ident")
        if self.accept("["):
            size = self._constant()
            self.expect("]")
            self.expect(";")
            return ast.Declaration(line=token.line, name=name.text,
                                   array_size=size)
        initializer = None
        if self.accept("="):
            initializer = self._expression()
        self.expect(";")
        return ast.Declaration(line=token.line, name=name.text,
                               initializer=initializer)

    def _simple_statement(self, expect_semicolon: bool) -> ast.Stmt:
        """Assignment or expression statement (no declarations)."""
        token = self.current
        expression = self._expression()
        if self.accept("="):
            if not isinstance(expression, (ast.VarRef, ast.ArrayRef)):
                raise ParseError("invalid assignment target", token.line)
            value = self._expression()
            if expect_semicolon:
                self.expect(";")
            return ast.Assignment(line=token.line, target=expression,
                                  value=value)
        if expect_semicolon:
            self.expect(";")
        return ast.ExprStmt(line=token.line, expression=expression)

    def _if(self) -> ast.If:
        token = self.expect("if")
        self.expect("(")
        condition = self._expression()
        self.expect(")")
        then_body = self._body_or_single()
        else_body: List[ast.Stmt] = []
        if self.accept("else"):
            else_body = self._body_or_single()
        return ast.If(line=token.line, condition=condition,
                      then_body=then_body, else_body=else_body)

    def _while(self) -> ast.While:
        token = self.expect("while")
        self.expect("(")
        condition = self._expression()
        self.expect(")")
        return ast.While(line=token.line, condition=condition,
                         body=self._body_or_single())

    def _do_while(self) -> ast.DoWhile:
        token = self.expect("do")
        body = self._body_or_single()
        self.expect("while")
        self.expect("(")
        condition = self._expression()
        self.expect(")")
        self.expect(";")
        return ast.DoWhile(line=token.line, condition=condition, body=body)

    def _for(self) -> ast.For:
        token = self.expect("for")
        self.expect("(")
        init: Optional[ast.Stmt] = None
        if not self.check(";"):
            if self.check("int"):
                init = self._declaration()
            else:
                init = self._simple_statement(expect_semicolon=True)
        else:
            self.expect(";")
        if init is not None and isinstance(init, ast.Declaration) \
                and init.array_size is not None:
            raise ParseError("array declaration in for-init", token.line)
        condition = None if self.check(";") else self._expression()
        self.expect(";")
        update: Optional[ast.Stmt] = None
        if not self.check(")"):
            update = self._simple_statement(expect_semicolon=False)
        self.expect(")")
        return ast.For(line=token.line, init=init, condition=condition,
                       update=update, body=self._body_or_single())

    def _body_or_single(self) -> List[ast.Stmt]:
        if self.check("{"):
            return self._block()
        self._nest()
        body = [self._statement()]
        self.depth -= 1
        return body

    # -- Expressions -------------------------------------------------------------------

    def _expression(self, min_precedence: int = 1) -> ast.Expr:
        depth = self.depth
        self._nest()
        left = self._unary()
        while True:
            op = self.current.kind
            precedence = _PRECEDENCE.get(op)
            if precedence is None or precedence < min_precedence:
                self.depth = depth
                return left
            token = self.advance()
            self._nest()    # the left-deep tree grows one level
            right = self._expression(precedence + 1)
            left = ast.Binary(line=token.line, op=op, left=left,
                              right=right)

    def _unary(self) -> ast.Expr:
        token = self.current
        if token.kind in ("-", "!", "~"):
            self.advance()
            self._nest()
            operand = self._unary()
            self.depth -= 1
            return ast.Unary(line=token.line, op=token.kind,
                             operand=operand)
        return self._primary()

    def _primary(self) -> ast.Expr:
        token = self.current
        if token.kind == "number":
            self.advance()
            return ast.IntLiteral(line=token.line, value=int(token.text, 0))
        if token.kind == "(":
            self.advance()
            inner = self._expression()
            self.expect(")")
            return inner
        if token.kind == "ident":
            self.advance()
            if self.accept("("):
                arguments: List[ast.Expr] = []
                if not self.check(")"):
                    while True:
                        arguments.append(self._expression())
                        if not self.accept(","):
                            break
                self.expect(")")
                if len(arguments) > 4:
                    raise ParseError(
                        f"{token.text}: at most 4 arguments supported",
                        token.line)
                return ast.Call(line=token.line, name=token.text,
                                arguments=arguments)
            if self.accept("["):
                index = self._expression()
                self.expect("]")
                return ast.ArrayRef(line=token.line, name=token.text,
                                    index=index)
            return ast.VarRef(line=token.line, name=token.text)
        raise ParseError(f"unexpected token {token.text!r}", token.line)


def parse(source: str) -> ast.TranslationUnit:
    """Parse mini-C source into a translation unit."""
    return Parser(tokenize(source)).parse_unit()
