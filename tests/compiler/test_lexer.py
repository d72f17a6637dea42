"""MiniC lexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.lexer import Token, TokenStream, tokenize
from repro.errors import CompileError


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]


class TestTokens:
    def test_keywords_vs_identifiers(self):
        tokens = tokenize("int foo critical char")
        assert [t.kind for t in tokens[:-1]] == ["kw", "ident", "kw", "kw"]

    def test_decimal_and_hex_integers(self):
        tokens = tokenize("42 0x2A 0")
        assert [t.value for t in tokens[:-1]] == [42, 42, 0]

    def test_string_literal_with_escapes(self):
        token = tokenize(r'"a\nb\\c"')[0]
        assert token.kind == "string"
        assert token.text == "a\nb\\c"

    def test_char_literal(self):
        token = tokenize("'Z'")[0]
        assert token.kind == "char"
        assert token.value == ord("Z")

    def test_escaped_char_literal(self):
        assert tokenize(r"'\n'")[0].value == 10
        assert tokenize(r"'\0'")[0].value == 0

    def test_multichar_operators_maximal_munch(self):
        assert kinds("a <= b << c == d") == [
            ("ident", "a"), ("op", "<="), ("ident", "b"), ("op", "<<"),
            ("ident", "c"), ("op", "=="), ("ident", "d"),
        ]

    @pytest.mark.parametrize("operator", (
        "<<= >>= == != <= >= && || << >> += -= *= /= %= &= |= ^= ++ -- "
        "+ - * / % < > = ! & | ^ ~ ( ) { } [ ] ; ,"
    ).split())
    def test_every_operator_is_one_token(self, operator):
        assert kinds(f"a{operator}b") == [("ident", "a"), ("op", operator), ("ident", "b")]

    def test_compound_assignment_tokens(self):
        assert [t.text for t in tokenize("x += 1")[:-1]] == ["x", "+=", "1"]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:-1]] == [1, 2, 3]

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "eof"


class TestComments:
    def test_line_comment(self):
        assert kinds("a // comment\nb") == [("ident", "a"), ("ident", "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [("ident", "a"), ("ident", "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(CompileError):
            tokenize("/* never ends")


class TestErrors:
    def test_unknown_character(self):
        with pytest.raises(CompileError):
            tokenize("a $ b")

    def test_unterminated_string(self):
        with pytest.raises(CompileError):
            tokenize('"abc')

    def test_newline_in_string(self):
        with pytest.raises(CompileError):
            tokenize('"ab\ncd"')

    def test_multichar_char_literal(self):
        with pytest.raises(CompileError):
            tokenize("'ab'")

    def test_unknown_escape(self):
        with pytest.raises(CompileError):
            tokenize(r'"\q"')

    @pytest.mark.parametrize("source, line", [
        ("return 0x;", 1), ("a\n0xg", 2), ("0X", 1),
    ])
    def test_hex_prefix_without_digits(self, source, line):
        with pytest.raises(CompileError, match="has no digits") as caught:
            tokenize(source)
        assert caught.value.line == line

    @pytest.mark.parametrize("char", ["\u00b2", "\u0663", "\u00e9", "\u03bb"])
    def test_non_ascii_outside_literals_is_unexpected(self, char):
        with pytest.raises(CompileError, match="unexpected character"):
            tokenize(f"x = 1{char};")
        with pytest.raises(CompileError, match="unexpected character"):
            tokenize(f"{char}x")

    def test_non_ascii_inside_comments_and_literals(self):
        tokens = tokenize('/* \u00e9 */ "\u00b2" // \u03bb\n')
        assert [(t.kind, t.text) for t in tokens[:-1]] == [("string", "\u00b2")]

    def test_identifiers_are_ascii(self):
        assert kinds("a1_B") == [("ident", "a1_B")]
        with pytest.raises(CompileError, match="unexpected character"):
            tokenize("a\u00b2")

    def test_decimal_literal_past_the_digit_limit(self):
        with pytest.raises(CompileError, match="integer literal of 5000 digits"):
            tokenize("1" * 5000)


_MINIC_CHARS = st.sampled_from(list("0123456789xXabfg_ \t\n/*+-<>=!&|;(){}[]\"'\\$\u00b2\u00e9"))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=_MINIC_CHARS)))
def test_tokenize_raises_only_compile_error(source):
    try:
        tokens = tokenize(source)
    except CompileError:
        return
    assert tokens[-1].kind == "eof"


class TestTokenStream:
    def test_accept_and_expect(self):
        stream = TokenStream(tokenize("int x"))
        assert stream.accept("kw", "int")
        assert stream.expect("ident").text == "x"

    def test_expect_failure_raises_with_line(self):
        stream = TokenStream(tokenize("int"))
        stream.next()
        with pytest.raises(CompileError):
            stream.expect("ident")

    def test_peek_does_not_consume(self):
        stream = TokenStream(tokenize("a b"))
        assert stream.peek().text == "a"
        assert stream.peek(1).text == "b"
        assert stream.next().text == "a"

    def test_next_sticks_at_eof(self):
        stream = TokenStream(tokenize("a"))
        stream.next()
        assert stream.next().kind == "eof"
        assert stream.next().kind == "eof"

    def test_lookahead_past_the_last_token_sees_eof(self):
        stream = TokenStream(tokenize("a"))
        assert stream.peek(1).kind == "eof"
        assert stream.peek(5).kind == "eof"
        stream.next()
        assert stream.peek().kind == "eof"
        assert stream.peek(1).kind == "eof"
