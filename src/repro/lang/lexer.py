"""Tokenizer for mini-C."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

KEYWORDS = frozenset({
    "int", "void", "if", "else", "while", "for", "do", "return",
    "break", "continue",
})

# Multi-character operators first so maximal munch works.
OPERATORS = [
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "&", "|", "^", "<", ">", "=", "!", "~",
    "(", ")", "{", "}", "[", "]", ";", ",",
]


class LexerError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line

    def __reduce__(self):
        # args holds the joined string, so default exception pickling
        # would replay a one-argument constructor call and fail.
        return (type(self), (self.message, self.line))


@dataclass(frozen=True)
class Token:
    kind: str          # "int" | "ident" | "number" | operator | "eof"
    text: str
    line: int

    @property
    def is_eof(self) -> bool:
        return self.kind == "eof"


def tokenize(source: str) -> List[Token]:
    """Convert mini-C source text into a token list (ending with EOF)."""
    tokens: List[Token] = []
    line = 1
    i = 0
    length = len(source)
    while i < length:
        char = source[i]
        if char == "\n":
            line += 1
            i += 1
            continue
        if char in " \t\r":
            i += 1
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            i = length if end < 0 else end
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise LexerError("unterminated comment", line)
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if char.isdigit():
            start = i
            if source.startswith("0x", i) or source.startswith("0X", i):
                i += 2
                while i < length and source[i] in "0123456789abcdefABCDEF":
                    i += 1
            else:
                while i < length and source[i].isdigit():
                    i += 1
            tokens.append(Token("number", source[start:i], line))
            continue
        if char.isalpha() or char == "_":
            start = i
            while i < length and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = text if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line))
            continue
        for operator in OPERATORS:
            if source.startswith(operator, i):
                tokens.append(Token(operator, operator, line))
                i += len(operator)
                break
        else:
            raise LexerError(f"unexpected character {char!r}", line)
    tokens.append(Token("eof", "", line))
    return tokens
