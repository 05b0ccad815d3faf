"""The EXCESS lexer.

Tokenizes statements into identifiers, keywords, literals, and operator
symbols. Operator symbols are matched longest-first against the union of
the built-in symbols and any operator symbols registered through the ADT
facility — the paper allows "any legal EXCESS identifier or sequence of
punctuation characters" as a new operator, so the token set is open.

Keywords are case-insensitive (QUEL tradition); identifiers are
case-sensitive.
"""

from __future__ import annotations

import bisect
import enum
import functools
import re
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.errors import LexicalError

__all__ = ["TokenType", "Token", "Lexer", "KEYWORDS"]

#: Reserved words of the (reconstructed) EXCESS grammar.
#:
#: Statement-starting words that double as useful identifiers — ``add``,
#: ``alter``, ``begin``/``commit``/``abort``, and ``analyze`` — are
#: deliberately *not* reserved; the parser recognizes them positionally
#: at statement start instead.
KEYWORDS = frozenset({
    "define", "type", "as", "inherits", "with", "rename", "to",
    "create", "destroy", "key", "index", "on", "using", "drop",
    "range", "of", "is", "isnot", "every",
    "retrieve", "into", "unique", "from", "in", "where",
    "append", "delete", "replace", "set",
    "and", "or", "not", "contains", "over",
    "union", "intersect", "minus", "explain", "sort", "by", "asc", "desc",
    "own", "ref",
    "function", "fixed", "returns", "procedure", "execute",
    "grant", "revoke", "user", "group",
    "true", "false", "null",
    "enum",
})

#: Built-in punctuation operators, longest first for maximal munch.
_BUILTIN_SYMBOLS = [
    "<=", ">=", "!=", "||",
    "=", "<", ">", "+", "-", "*", "/", "%",
]

#: Structural punctuation (never part of an operator symbol).
_STRUCTURAL = {
    "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACKET", "]": "RBRACKET",
    "{": "LBRACE", "}": "RBRACE",
    ",": "COMMA", ":": "COLON", ";": "SEMI", ".": "DOT",
}

_PUNCT_CHARS = set("+-*/%<>=!&|^~@#?$")


class TokenType(enum.Enum):
    """Lexical token categories."""

    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    OP = "op"
    LPAREN = "lparen"
    RPAREN = "rparen"
    LBRACKET = "lbracket"
    RBRACKET = "rbracket"
    LBRACE = "lbrace"
    RBRACE = "rbrace"
    COMMA = "comma"
    COLON = "colon"
    SEMI = "semi"
    DOT = "dot"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position."""

    type: TokenType
    text: str
    value: Any
    line: int
    column: int

    def is_keyword(self, *words: str) -> bool:
        """True when this token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.text in words

    def __repr__(self) -> str:
        return f"Token({self.type.value}, {self.text!r})"


#: one trivia item: blanks, a ``--`` line comment, or a block comment
_TRIVIA = r"[ \t\r\n]+|--[^\n]*|/\*[\s\S]*?\*/"
#: the literal grammar, shared by both patterns below
_LITERALS = (
    r"(?P<FLOAT>(?:\d+\.\d+|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
    r"|(?P<INT>\d+)"
    r"""|(?P<STRING>"(?:[^"\\\n]|\\[\s\S])*"|'(?:[^'\\\n]|\\[\s\S])*')"""
)
_IDENT = r"[^\W\d]\w*"
_STRUCT = r"[()\[\]{},:;.]"

_ESCAPES = {"n": "\n", "t": "\t"}


@functools.lru_cache(maxsize=32)
def _patterns(extra_symbols: tuple[str, ...]) -> tuple[Any, Any]:
    """``(token pattern, shape pattern)`` for the built-in operator
    symbols plus the punctuation ones of ``extra_symbols``.

    The token pattern is optional trivia, then exactly one token
    alternative, ordered as the scanner's tests were: registered
    operator symbols longest first, any other punctuation run munched
    whole so the parser can report the unknown operator by name.  The
    shape pattern skips a maximal run of the non-literal alternatives
    (the lookaheads stop it where the token pattern would start a
    ``.5`` float or report an open comment), then takes one literal.
    """
    symbols = set(_BUILTIN_SYMBOLS)
    symbols.update(s for s in extra_symbols if s and s[0] in _PUNCT_CHARS)
    ops = "|".join(re.escape(s) for s in sorted(symbols, key=len, reverse=True))
    punct = "".join(re.escape(ch) for ch in sorted(_PUNCT_CHARS))
    op = rf"{ops}|[{punct}]+"
    token = re.compile(
        rf"(?:{_TRIVIA})*(?:{_LITERALS}|(?P<IDENT>{_IDENT})"
        rf"|(?P<STRUCT>{_STRUCT})|(?P<COMMENT>/\*)|(?P<OP>{op})"
        r"|(?P<EOF>\Z)|(?P<BAD>[\s\S]))"
    )
    shape = re.compile(
        rf"((?:{_IDENT}|{_TRIVIA}|(?!\.\d){_STRUCT}|(?!/\*)(?:{op}))*)"
        rf"(?:{_LITERALS}|(?P<EOF>\Z)|(?P<BAD>[\s\S]))"
    )
    return token, shape


class Lexer:
    """Tokenizes EXCESS source text.

    ``extra_symbols`` extends the operator symbol set with user-registered
    operators (supplied by the interpreter from the ADT registry).
    """

    def __init__(self, text: str, extra_symbols: Iterable[str] = ()):
        self._text = text
        self._token, self._shape = _patterns(tuple(extra_symbols))
        self._line_starts: Optional[list[int]] = None

    # -- public API ------------------------------------------------------------

    def tokens(self) -> list[Token]:
        """Tokenize the whole input; always ends with an EOF token."""
        out: list[Token] = []
        for match in self._token.finditer(self._text):
            kind = match.lastgroup
            text = match.group(kind)
            line, column = self._position(match.start(kind))
            value: Any = text
            if kind == "IDENT":
                lowered = text.lower()
                if lowered in KEYWORDS:
                    kind, text = "KEYWORD", lowered
                    value = {"true": True, "false": False}.get(lowered, lowered)
            elif kind == "STRUCT":
                kind = _STRUCTURAL[text]
            elif kind == "INT":
                value = int(text)
            elif kind == "FLOAT":
                value = float(text)
            elif kind == "STRING":
                text = value = _unquote(text)
            elif kind == "COMMENT":
                raise LexicalError("unterminated block comment", line, column)
            elif kind == "BAD":
                if text in "\"'":
                    raise LexicalError("unterminated string literal", line, column)
                raise LexicalError(f"unexpected character {text!r}", line, column)
            elif kind == "EOF":
                out.append(Token(TokenType.EOF, "", None, line, column))
                return out
            out.append(Token(TokenType[kind], text, value, line, column))
        raise AssertionError("the token pattern always reaches EOF")

    def shape(self) -> tuple[tuple, tuple]:
        """The statement with every ``INT``/``FLOAT``/``STRING`` literal
        lifted out: ``(shape, values)``.  ``shape`` is the literal kinds
        (one of ``i f s`` per literal) followed by the source text
        between the literals; ``values`` holds the literals in token
        order, so literal ``i`` is the parser's slot ``i``.  Statements
        that differ only in their constants share a shape; the text
        between is kept as written, so spacing, comments and keyword
        case tell shapes apart (which costs sharing, never
        correctness).  Raises what :meth:`tokens` raises."""
        chunks: list[str] = []
        kinds: list[str] = []
        values: list[Any] = []
        for match in self._shape.finditer(self._text):
            chunks.append(match.group(1))
            kind = match.lastgroup
            if kind == "STRING":
                kinds.append("s")
                values.append(_unquote(match.group(kind)))
            elif kind == "INT":
                kinds.append("i")
                values.append(int(match.group(kind)))
            elif kind == "FLOAT":
                kinds.append("f")
                values.append(float(match.group(kind)))
            elif kind == "EOF":
                return ("".join(kinds), *chunks), tuple(values)
            else:
                break
        self.tokens()  # raises the lexical error the shape scan ran into
        raise AssertionError("shape scan stopped where the tokenizer did not")

    # -- positions ---------------------------------------------------------------

    def _position(self, offset: int) -> tuple[int, int]:
        """1-based ``(line, column)`` of a text offset."""
        starts = self._line_starts
        if starts is None:
            starts = self._line_starts = [0] + [
                m.end() for m in re.finditer("\n", self._text)
            ]
        line = bisect.bisect_right(starts, offset)
        return line, offset - starts[line - 1] + 1


def _unquote(text: str) -> str:
    """The value of a quoted string token: ``\n`` and ``\t`` escapes are
    the control characters, any other escaped character is itself."""
    body = text[1:-1]
    if "\\" not in body:
        return body
    return re.sub(
        r"\\([\s\S])", lambda m: _ESCAPES.get(m.group(1), m.group(1)), body
    )
