"""Unit tests for the EXCESS lexer."""

import ast as python_ast
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexicalError
from repro.excess.lexer import Lexer, TokenType
from tests.excess.reference_lexer import ReferenceLexer


def lex(text: str, extra=()):
    return Lexer(text, extra_symbols=extra).tokens()


def kinds(text: str):
    return [t.type for t in lex(text)[:-1]]


class TestBasics:
    def test_empty_input(self):
        tokens = lex("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_identifiers_case_sensitive(self):
        tokens = lex("Employees employees")
        assert tokens[0].value == "Employees"
        assert tokens[1].value == "employees"
        assert tokens[0].type is TokenType.IDENT

    def test_keywords_case_insensitive(self):
        for text in ("RETRIEVE", "retrieve", "Retrieve"):
            token = lex(text)[0]
            assert token.type is TokenType.KEYWORD
            assert token.text == "retrieve"

    def test_integer_literals(self):
        token = lex("42")[0]
        assert token.type is TokenType.INT
        assert token.value == 42

    def test_float_literals(self):
        assert lex("3.14")[0].value == 3.14
        assert lex("1e3")[0].value == 1000.0
        assert lex("2.5e-2")[0].value == 0.025
        assert lex(".5")[0].value == 0.5

    def test_int_dot_ident_is_not_float(self):
        # `TopTen[1].name`: the dot after the digit starts a path step
        tokens = lex("x[1].name")
        assert [t.type for t in tokens[:-1]] == [
            TokenType.IDENT, TokenType.LBRACKET, TokenType.INT,
            TokenType.RBRACKET, TokenType.DOT, TokenType.IDENT,
        ]

    def test_string_literals(self):
        assert lex('"hello"')[0].value == "hello"
        assert lex("'world'")[0].value == "world"

    def test_string_escapes(self):
        assert lex(r'"a\nb"')[0].value == "a\nb"
        assert lex(r'"a\"b"')[0].value == 'a"b'
        assert lex(r'"a\tb"')[0].value == "a\tb"

    def test_unterminated_string(self):
        with pytest.raises(LexicalError):
            lex('"oops')
        with pytest.raises(LexicalError):
            lex('"oops\n"')

    def test_booleans(self):
        assert lex("true")[0].value is True
        assert lex("false")[0].value is False


class TestOperators:
    def test_builtin_symbols(self):
        tokens = lex("a <= b >= c != d = e")
        ops = [t.text for t in tokens if t.type is TokenType.OP]
        assert ops == ["<=", ">=", "!=", "="]

    def test_maximal_munch(self):
        tokens = lex("a<=b")
        assert tokens[1].text == "<="

    def test_registered_operator_symbols(self):
        tokens = lex("a ~~ b", extra=["~~"])
        assert tokens[1].type is TokenType.OP
        assert tokens[1].text == "~~"

    def test_unregistered_punctuation_lexes_as_one_run(self):
        tokens = lex("a @# b")
        assert tokens[1].text == "@#"

    def test_structural_punctuation(self):
        assert kinds("( ) [ ] { } , : ; .") == [
            TokenType.LPAREN, TokenType.RPAREN, TokenType.LBRACKET,
            TokenType.RBRACKET, TokenType.LBRACE, TokenType.RBRACE,
            TokenType.COMMA, TokenType.COLON, TokenType.SEMI, TokenType.DOT,
        ]


class TestComments:
    def test_line_comment(self):
        tokens = lex("a -- comment here\nb")
        assert [t.value for t in tokens[:-1]] == ["a", "b"]

    def test_block_comment(self):
        tokens = lex("a /* anything \n at all */ b")
        assert [t.value for t in tokens[:-1]] == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexicalError):
            lex("a /* no end")

    def test_minus_not_comment(self):
        tokens = lex("a - b")
        assert tokens[1].text == "-"


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = lex("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_error_position(self):
        try:
            lex('x\n  "oops')
        except LexicalError as exc:
            assert exc.line == 2
            assert exc.column == 3
        else:
            pytest.fail("expected LexicalError")


class TestTokenHelpers:
    def test_is_keyword(self):
        token = lex("retrieve")[0]
        assert token.is_keyword("retrieve")
        assert token.is_keyword("retrieve", "append")
        assert not token.is_keyword("append")
        ident = lex("foo")[0]
        assert not ident.is_keyword("foo")


# ---------------------------------------------------------------------------
# The regex lexer against the scanner it replaced (tests/excess/
# reference_lexer.py): same tokens, same positions, same errors
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[2]
EXTRA = ("**", "@@", "<->", "~~")
LITERALS = (TokenType.INT, TokenType.FLOAT, TokenType.STRING)


def outcome(lexer_class, text, extra=EXTRA):
    """The full token stream with positions, or the error with its."""
    try:
        return [
            (t.type, t.text, t.value, type(t.value), t.line, t.column)
            for t in lexer_class(text, extra).tokens()
        ]
    except LexicalError as exc:
        return ("error", str(exc), exc.line, exc.column)


def shape_outcome(text, extra=EXTRA):
    try:
        return Lexer(text, extra).shape()
    except LexicalError as exc:
        return ("error", str(exc), exc.line, exc.column)


def corpus() -> list[str]:
    """Every string constant of the F1–F13 benchmarks and the examples
    (EXCESS statements, fragments and plain prose alike — the lexers
    only have to agree), plus the README's fenced blocks."""
    texts: set[str] = set()
    sources = sorted((ROOT / "benchmarks").glob("bench_f*.py"))
    sources += sorted((ROOT / "examples").glob("*.py"))
    for source in sources:
        for node in python_ast.walk(python_ast.parse(source.read_text())):
            if isinstance(node, python_ast.Constant) and isinstance(node.value, str):
                texts.add(node.value)
    readme = (ROOT / "README.md").read_text()
    texts.update(re.findall(r"```[a-z]*\n(.*?)```", readme, flags=re.DOTALL))
    texts.add(readme)
    return sorted(texts)


def check_agreement(text):
    expected = outcome(ReferenceLexer, text)
    assert outcome(Lexer, text) == expected
    shaped = shape_outcome(text)
    if expected[0] == "error":
        assert shaped == expected
        return
    literals = [(entry[2], entry[3]) for entry in expected if entry[0] in LITERALS]
    shape, values = shaped
    assert [(value, type(value)) for value in values] == literals
    kinds = "".join({int: "i", float: "f", str: "s"}[kind] for _v, kind in literals)
    assert shape[0] == kinds and len(shape) == len(values) + 2


class TestAgainstReferenceScanner:
    def test_corpus_is_substantial(self):
        texts = corpus()
        assert len(texts) > 300
        assert sum("retrieve" in text for text in texts) > 50

    def test_corpus_tokens_positions_and_errors(self):
        for text in corpus():
            check_agreement(text)

    @pytest.mark.parametrize(
        "text",
        [
            '"oops', '"oops\n"', "'a\\", "a /* b", "a ` b", "x\n  /* never",
            "a && b <=> c &--x\n y", "a <-- b\nc", "a\fb", 'x "a\\\nb" y',
            "1.e5 1e+ 5abc int4 New1 a.5 1.5.3 .5e3 7e-2", "x/*5*/6 -- 7\n8",
            "'it\\'s' \"a\\nb\\tc\\\\d\\qe\"", "", "  \n\t", "-- only", "é = 'ü'",
        ],
    )
    def test_edge_cases(self, text):
        check_agreement(text)

    @settings(max_examples=400, deadline=None)
    @given(
        st.text(
            alphabet=st.sampled_from(
                list("abEx_019 .,;:()[]{}\n\t\"'\\+-*/%<>=!&|^~@#?$e`é")
            ),
            max_size=40,
        )
    )
    def test_random_text(self, text):
        check_agreement(text)


class TestShape:
    def test_statements_differing_only_in_literals_share_a_shape(self):
        one = Lexer('retrieve (E.name) from E in Es where E.name = "Sue" and E.age > 5')
        two = Lexer("retrieve (E.name) from E in Es where E.name = 'Bo\\'b' and E.age > 77")
        assert one.shape()[0] == two.shape()[0]
        assert one.shape()[1] == ("Sue", 5)
        assert two.shape()[1] == ("Bo'b", 77)

    def test_literal_kind_is_part_of_the_shape(self):
        assert Lexer("x = 1").shape()[0] != Lexer("x = 1.0").shape()[0]
        assert Lexer("x = 1").shape()[0] != Lexer('x = "1"').shape()[0]
        assert Lexer("x = 1").shape()[1] == (1,)
        assert Lexer("x = 1.0").shape()[1] == (1.0,)

    def test_minus_is_an_operator_over_a_slot(self):
        shape, values = Lexer("x > - 5 and y > -6").shape()
        assert values == (5, 6)
        assert Lexer("x > - 7 and y > -8").shape()[0] == shape

    def test_comments_and_identifier_digits_hold_no_literals(self):
        shape, values = Lexer("New1.int4 /* 7 'x' */ = 3 -- 9 \"y\"\n").shape()
        assert values == (3,)
        assert "New1.int4" in shape[1] and "/* 7 'x' */" in shape[1]

    def test_booleans_and_null_stay_in_the_shape(self):
        shape, values = Lexer("x = true and y is null").shape()
        assert values == () and "true" in shape[1]

    def test_text_between_literals_is_kept_as_written(self):
        # spacing, comments and keyword case split shapes: sharing is
        # lost, a wrong plan is never shared
        base = Lexer("retrieve (E.name) from E in Es where E.age > 41").shape()[0]
        for variant in (
            "retrieve (E.name)  from E in Es where E.age > 41",
            "RETRIEVE (E.name) from E in Es where E.age > 41",
            "retrieve (E.name) from E in Es where E.age > 41 -- request 7",
            "retrieve (E.name) from E in Es where E.age /* hint */ > 41",
        ):
            assert Lexer(variant).shape()[0] != base

    def test_shape_scan_raises_the_tokenizer_error(self):
        with pytest.raises(LexicalError, match="unterminated string literal"):
            Lexer('x = 1 and y = "open').shape()
        with pytest.raises(LexicalError, match="unterminated block comment"):
            Lexer("x = 1 /* open").shape()
