"""The character-at-a-time scanner the regex lexer replaced, kept as the
reference the differential tests in ``test_lexer.py`` compare against:
same tokens, same positions, same :class:`LexicalError` texts."""

from __future__ import annotations

from typing import Iterable

from repro.errors import LexicalError
from repro.excess.lexer import (
    KEYWORDS,
    Token,
    TokenType,
    _BUILTIN_SYMBOLS,
    _PUNCT_CHARS,
    _STRUCTURAL,
)


class ReferenceLexer:
    """Same contract as :class:`repro.excess.lexer.Lexer`."""

    def __init__(self, text: str, extra_symbols: Iterable[str] = ()):
        self._text = text
        self._pos = 0
        self._line = 1
        self._column = 1
        symbols = set(_BUILTIN_SYMBOLS)
        for symbol in extra_symbols:
            if symbol and symbol[0] in _PUNCT_CHARS:
                symbols.add(symbol)
        self._symbols = sorted(symbols, key=len, reverse=True)

    # -- public API ------------------------------------------------------------

    def tokens(self) -> list[Token]:
        """Tokenize the whole input; always ends with an EOF token."""
        out: list[Token] = []
        while True:
            token = self._next_token()
            out.append(token)
            if token.type is TokenType.EOF:
                return out

    # -- scanning ----------------------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        return self._text[index] if index < len(self._text) else ""

    def _advance(self, count: int = 1) -> str:
        out = self._text[self._pos:self._pos + count]
        for ch in out:
            if ch == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
        self._pos += count
        return out

    def _skip_trivia(self) -> None:
        while True:
            ch = self._peek()
            if not ch:
                return
            if ch in " \t\r\n":
                self._advance()
            elif ch == "-" and self._peek(1) == "-":
                # line comment: -- to end of line
                while self._peek() and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self._line, self._column
                self._advance(2)
                while self._peek() and not (
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                if not self._peek():
                    raise LexicalError(
                        "unterminated block comment", start_line, start_col
                    )
                self._advance(2)
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        line, column = self._line, self._column
        ch = self._peek()
        if not ch:
            return Token(TokenType.EOF, "", None, line, column)
        if ch.isdigit():
            return self._number(line, column)
        if ch.isalpha() or ch == "_":
            return self._identifier(line, column)
        if ch in "\"'":
            return self._string(line, column)
        if ch == "." and self._peek(1).isdigit():
            return self._number(line, column)
        if ch in _STRUCTURAL:
            self._advance()
            return Token(TokenType[_STRUCTURAL[ch]], ch, ch, line, column)
        if ch in _PUNCT_CHARS:
            return self._operator(line, column)
        raise LexicalError(f"unexpected character {ch!r}", line, column)

    def _number(self, line: int, column: int) -> Token:
        start = self._pos
        while self._peek().isdigit():
            self._advance()
        is_float = False
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            self._advance()
            while self._peek().isdigit():
                self._advance()
        if self._peek() in "eE" and (
            self._peek(1).isdigit()
            or (self._peek(1) in "+-" and self._peek(2).isdigit())
        ):
            is_float = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self._peek().isdigit():
                self._advance()
        text = self._text[start:self._pos]
        if is_float:
            return Token(TokenType.FLOAT, text, float(text), line, column)
        return Token(TokenType.INT, text, int(text), line, column)

    def _identifier(self, line: int, column: int) -> Token:
        start = self._pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self._text[start:self._pos]
        lowered = text.lower()
        if lowered in KEYWORDS:
            if lowered == "true":
                return Token(TokenType.KEYWORD, lowered, True, line, column)
            if lowered == "false":
                return Token(TokenType.KEYWORD, lowered, False, line, column)
            return Token(TokenType.KEYWORD, lowered, lowered, line, column)
        return Token(TokenType.IDENT, text, text, line, column)

    def _string(self, line: int, column: int) -> Token:
        quote = self._advance()
        out: list[str] = []
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise LexicalError("unterminated string literal", line, column)
            if ch == "\\":
                self._advance()
                escape = self._advance()
                mapping = {"n": "\n", "t": "\t", "\\": "\\", quote: quote}
                out.append(mapping.get(escape, escape))
                continue
            if ch == quote:
                self._advance()
                text = "".join(out)
                return Token(TokenType.STRING, text, text, line, column)
            out.append(self._advance())

    def _operator(self, line: int, column: int) -> Token:
        rest = self._text[self._pos:]
        for symbol in self._symbols:
            if rest.startswith(symbol):
                self._advance(len(symbol))
                return Token(TokenType.OP, symbol, symbol, line, column)
        # an unregistered punctuation run: munch maximally so the parser
        # can report the unknown operator by name
        start = self._pos
        while self._peek() in _PUNCT_CHARS:
            self._advance()
        text = self._text[start:self._pos]
        return Token(TokenType.OP, text, text, line, column)
