"""Lexer for MiniC, the small C dialect the workloads are written in.

MiniC covers what the paper's benchmark programs and vulnerable servers
need: ``int``/``char`` (and pointers/arrays of them), functions, the usual
statements and operators, string/char literals, and one extension — the
``critical`` storage qualifier marking variables for P-SSP-LV protection
(the paper's §V-E2 "manually identify sensitive variables").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from ..errors import CompileError

KEYWORDS = frozenset(
    (
        "int",
        "char",
        "void",
        "if",
        "else",
        "while",
        "for",
        "return",
        "break",
        "continue",
        "critical",
    )
)

#: Operators, longest first so maximal munch works.
_OPERATORS = (
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",",
)

#: The token table: tried in order at each position, first match wins.
#: Every class is ASCII; anything no row matches is an unexpected
#: character.  Comments sit above the ``/`` operator, hex above decimal.
_TOKEN_TABLE = (
    ("newline", r"\n"),
    ("space", r"[ \t\r]+"),
    ("line_comment", r"//[^\n]*"),
    ("block_comment", r"/\*"),
    ("hex", r"0[xX][0-9A-Fa-f]*"),
    ("int", r"[0-9]+"),
    ("word", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("quote", r"[\"']"),
    ("op", "|".join(re.escape(operator) for operator in _OPERATORS)),
)

_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _TOKEN_TABLE))

_ESCAPES = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\", "'": "'", '"': '"', "r": "\r"}


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str  # 'int', 'ident', 'string', 'char', 'op', 'kw', 'eof'
    text: str
    value: int = 0
    line: int = 0

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


def tokenize(source: str) -> List[Token]:
    """Tokenize MiniC source, raising :class:`CompileError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    line = 1
    i = 0
    n = len(source)
    while i < n:
        found = match(source, i)
        if found is None:
            raise CompileError(f"unexpected character {source[i]!r}", line)
        kind = found.lastgroup
        text = found.group()
        i = found.end()
        if kind == "op":
            append(Token("op", text, 0, line))
        elif kind == "word":
            append(Token("kw" if text in KEYWORDS else "ident", text, 0, line))
        elif kind == "newline":
            line += 1
        elif kind == "int":
            try:
                append(Token("int", text, int(text), line))
            except ValueError:  # past CPython's int-from-str digit limit
                raise CompileError(f"integer literal of {len(text)} digits", line) from None
        elif kind == "hex":
            if len(text) == 2:
                raise CompileError(f"hex literal {text!r} has no digits", line)
            append(Token("int", text, int(text, 16), line))
        elif kind == "quote":
            value, i = _scan_quoted(source, i - 1, text, line)
            if text == '"':
                append(Token("string", value, 0, line))
            elif len(value) != 1:
                raise CompileError(f"bad char literal {value!r}", line)
            else:
                append(Token("char", value, ord(value), line))
        elif kind == "block_comment":
            end = source.find("*/", i)
            if end < 0:
                raise CompileError("unterminated block comment", line)
            line += source.count("\n", i, end)
            i = end + 2
        # "space" and "line_comment" produce no token.
    append(Token("eof", "", 0, line))
    return tokens


def _scan_quoted(source: str, start: int, quote: str, line: int) -> "tuple[str, int]":
    """Scan a quoted literal starting at ``start``; return (text, next_i)."""
    out: List[str] = []
    i = start + 1
    n = len(source)
    while i < n:
        char = source[i]
        if char == quote:
            return "".join(out), i + 1
        if char == "\n":
            raise CompileError("newline in literal", line)
        if char == "\\":
            if i + 1 >= n:
                raise CompileError("dangling escape", line)
            escape = source[i + 1]
            if escape not in _ESCAPES:
                raise CompileError(f"unknown escape \\{escape}", line)
            out.append(_ESCAPES[escape])
            i += 2
            continue
        out.append(char)
        i += 1
    raise CompileError("unterminated literal", line)


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def peek(self, ahead: int = 0) -> Token:
        """Look at the current (or a later) token without consuming.

        ``next()`` never moves past the final eof token, so the current
        token needs no clamp; a lookahead past the end sees eof.
        """
        if ahead:
            return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]
        return self._tokens[self._pos]

    def next(self) -> Token:
        """Consume and return the current token."""
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def accept(self, kind: str, text: str = "") -> "Token | None":
        """Consume the current token iff it matches; else return None."""
        token = self.peek()
        if token.kind == kind and (not text or token.text == text):
            return self.next()
        return None

    def expect(self, kind: str, text: str = "") -> Token:
        """Consume a token of the given kind/text or raise."""
        token = self.accept(kind, text)
        if token is None:
            actual = self.peek()
            wanted = text or kind
            raise CompileError(
                f"expected {wanted!r}, found {actual.text or actual.kind!r}",
                actual.line,
            )
        return token

    def at(self, kind: str, text: str = "") -> bool:
        """True if the current token matches."""
        token = self.peek()
        return token.kind == kind and (not text or token.text == text)
