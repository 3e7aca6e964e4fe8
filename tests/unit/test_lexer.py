"""Unit tests for the SQL lexer."""

import pytest

from repro.sqlparser import (
    Token,
    TokenType,
    critical_tokens,
    tokenize,
    tokenize_significant,
)
from repro.sqlparser.lexer import token_value


def texts(query):
    return [t.text for t in tokenize_significant(query)]


def types(query):
    return [t.type for t in tokenize_significant(query)]


def test_lossless_roundtrip_simple():
    q = "SELECT  id ,name FROM t WHERE x = 'a b'  -- done"
    assert "".join(t.text for t in tokenize(q)) == q


def test_eof_token_terminates_stream():
    toks = tokenize("SELECT 1")
    assert toks[-1].type is TokenType.EOF
    assert toks[-1].text == ""


def test_keywords_case_insensitive():
    for variant in ("select", "SELECT", "SeLeCt"):
        tok = tokenize_significant(variant)[0]
        assert tok.type is TokenType.KEYWORD
        assert tok.value == "select"


def test_identifier_not_keyword():
    tok = tokenize_significant("selector")[0]
    assert tok.type is TokenType.IDENTIFIER


def test_numbers():
    assert tokenize_significant("42")[0].value == 42
    assert tokenize_significant("3.14")[0].value == pytest.approx(3.14)
    assert tokenize_significant("1e3")[0].value == pytest.approx(1000.0)
    assert tokenize_significant(".5")[0].value == pytest.approx(0.5)


def test_hex_literal():
    tok = tokenize_significant("0x41")[0]
    assert tok.type is TokenType.NUMBER
    assert tok.value == 0x41


def test_single_quoted_string_value():
    tok = tokenize_significant("'hello'")[0]
    assert tok.type is TokenType.STRING
    assert tok.value == "hello"


def test_doubled_quote_escape():
    tok = tokenize_significant("'O''Brien'")[0]
    assert tok.value == "O'Brien"


def test_backslash_escape_in_string():
    tok = tokenize_significant(r"'a\'b'")[0]
    assert tok.type is TokenType.STRING
    assert tok.value == "a'b"


def test_backslash_n_escape():
    tok = tokenize_significant(r"'line\nbreak'")[0]
    assert tok.value == "line\nbreak"


def test_unterminated_string_swallows_rest():
    toks = tokenize_significant("'never closed AND 1=1")
    assert len(toks) == 1
    assert toks[0].type is TokenType.STRING


def test_backtick_identifier():
    tok = tokenize_significant("`weird name`")[0]
    assert tok.type is TokenType.IDENTIFIER
    assert tok.value == "weird name"


def test_line_comment_dash_dash():
    toks = tokenize_significant("SELECT 1 -- trailing OR 1=1")
    assert toks[-1].type is TokenType.COMMENT
    assert toks[-1].text == "-- trailing OR 1=1"


def test_hash_comment():
    toks = tokenize_significant("SELECT 1 # note")
    assert toks[-1].type is TokenType.COMMENT
    assert toks[-1].text == "# note"


def test_block_comment_is_single_token():
    toks = tokenize_significant("SELECT /* lots of ''' quotes */ 1")
    comments = [t for t in toks if t.type is TokenType.COMMENT]
    assert len(comments) == 1
    assert comments[0].text == "/* lots of ''' quotes */"


def test_unterminated_block_comment_runs_to_end():
    toks = tokenize_significant("SELECT 1 /* open")
    assert toks[-1].type is TokenType.COMMENT
    assert toks[-1].text == "/* open"


def test_comment_spans_to_end_of_line_only():
    toks = tokenize_significant("SELECT 1 # note\nFROM t")
    kinds = [t.type for t in toks]
    assert TokenType.KEYWORD in kinds[kinds.index(TokenType.COMMENT) + 1 :]


def test_two_char_operators():
    assert texts("a <= b >= c <> d != e") == ["a", "<=", "b", ">=", "c", "<>", "d", "!=", "e"]


def test_logical_operator_symbols():
    assert texts("a || b && c") == ["a", "||", "b", "&&", "c"]


def test_placeholders():
    toks = tokenize_significant("? :name")
    assert [t.type for t in toks] == [TokenType.PLACEHOLDER] * 2
    assert toks[1].text == ":name"


def test_punctuation():
    assert types("(a, b);") == [
        TokenType.PUNCTUATION,
        TokenType.IDENTIFIER,
        TokenType.PUNCTUATION,
        TokenType.IDENTIFIER,
        TokenType.PUNCTUATION,
        TokenType.PUNCTUATION,
    ]


def test_exotic_character_becomes_operator_token():
    toks = tokenize_significant("SELECT \x7f 1")
    assert any(t.type is TokenType.OPERATOR and t.text == "\x7f" for t in toks)


def test_spans_are_exact():
    q = "SELECT x FROM t"
    for tok in tokenize_significant(q):
        assert q[tok.start : tok.end] == tok.text


def test_at_sysvar_lexes():
    toks = tokenize_significant("@@version")
    assert toks[0].text == "@"


def test_never_raises_on_garbage():
    tokenize("\\'\"``))((;;%%%$$@@##~~~")  # must not raise


def test_token_value_rebuilds_every_lexed_value():
    q = "SELECT `a``b`, 'x''y\\n', \"q\", 0x1F, 1.5e3, 7, .5 FROM t -- c"
    for tok in tokenize(q):
        value = token_value(tok.type, tok.text)
        assert value == tok.value and type(value) is type(tok.value), tok


def test_function_name_is_critical_only_when_called():
    def critical(q):
        return [t.text for t in critical_tokens(q)]

    assert critical("SELECT sleep (1)") == ["SELECT", "sleep"]
    assert critical("SELECT sleep") == ["SELECT"]
    # The next significant token decides; a comment counts as one.
    assert critical("SELECT sleep/**/(1)") == ["SELECT", "/**/"]
