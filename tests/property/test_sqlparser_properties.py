"""Property-based tests for the SQL lexer/parser/skeleton layer.

``tokenize``, ``critical_tokens`` and the skeleton's literal slots are all
held equal to the per-character lexical spec, ``tests/reference/lexer_spec.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlparser import (
    critical_tokens,
    parse_statement,
    skeletonize,
    tokenize,
    tokenize_significant,
)
from repro.sqlparser.tokens import TokenType
from tests.reference import lexer_spec

any_text = st.text(max_size=60)
#: SQL-ish pieces plus the characters where ``str.isspace`` and the
#: identifier rules part: a space above 0x7f is whitespace where a token
#: starts but an identifier character inside a word or placeholder.
sqlish = st.lists(
    st.sampled_from(
        list("abcdefgXYZ0123456789 '\"`()=<>,;#*-/%_.\\?:@!|&^~+$\n")
        + ["SELECT ", " OR ", "sleep", "0x", "1e", "/*", "*/", "--", "x "]
        + ["\xa0", "\u3000", "\x85", "\x1c", "\u00b2", "a\xa05", "\x850"]
    ),
    max_size=30,
).map("".join)


def _fields(tokens):
    """Every token field, plus the type of the value (``1`` vs ``1.0``)."""
    return [(t.type, t.text, t.start, t.end, t.value, type(t.value)) for t in tokens]


@given(any_text)
def test_lexing_is_lossless(text):
    assert "".join(t.text for t in tokenize(text)) == text


@given(any_text)
def test_token_spans_partition_the_input(text):
    tokens = tokenize(text)
    pos = 0
    for token in tokens[:-1]:
        assert token.start == pos
        assert token.end > token.start
        pos = token.end
    assert tokens[-1].type is TokenType.EOF
    assert tokens[-1].start == len(text)


@given(sqlish)
def test_lexer_never_raises(text):
    tokenize(text)
    tokenize_significant(text)


@given(sqlish)
def test_critical_tokens_subset_of_stream(text):
    stream = tokenize_significant(text)
    spans = {(t.start, t.end) for t in stream}
    for token in critical_tokens(text):
        assert (token.start, token.end) in spans


@given(sqlish)
def test_critical_tokens_text_matches_source(text):
    for token in critical_tokens(text):
        assert text[token.start : token.end] == token.text


# -- equality with the lexical spec -------------------------------------------


@given(st.one_of(any_text, sqlish))
@settings(max_examples=300)
def test_tokenize_equals_spec(text):
    assert _fields(tokenize(text)) == _fields(lexer_spec.tokenize(text))


@given(st.one_of(any_text, sqlish), st.booleans())
@settings(max_examples=300)
def test_critical_tokens_equal_spec(text, strict):
    assert _fields(critical_tokens(text, strict=strict)) == _fields(
        lexer_spec.critical_tokens(text, strict=strict)
    )


# -- skeletonizer/spec span agreement (the shape fast path's invariant) -------


def _slots(text):
    return [(s.start, s.end, s.kind) for s in skeletonize(text).slots]


@given(any_text)
def test_skeleton_slots_agree_with_lexer_any_text(text):
    assert _slots(text) == lexer_spec.literal_spans(text)


@given(sqlish)
@settings(max_examples=300)
def test_skeleton_slots_agree_with_lexer_sqlish(text):
    assert _slots(text) == lexer_spec.literal_spans(text)


@given(sqlish)
def test_skeleton_key_reconstructs_the_query(text):
    skeleton = skeletonize(text)
    out, key_pos = [], 0
    for slot in skeleton.slots:
        mark = skeleton.key.index("\x00", key_pos)
        out.append(skeleton.key[key_pos:mark])
        out.append(text[slot.start : slot.end])
        key_pos = mark + 2
    out.append(skeleton.key[key_pos:])
    assert "".join(out) == text


# -- parser round-trips over generated statements ---------------------------

identifiers = st.sampled_from(["a", "b", "col", "t1", "name"])
numbers = st.integers(min_value=-999, max_value=999)
strings = st.text(alphabet=st.sampled_from("abc xyz"), max_size=8)


@st.composite
def where_clause(draw):
    column = draw(identifiers)
    op = draw(st.sampled_from(["=", "<", ">", "<=", ">=", "<>"]))
    if draw(st.booleans()):
        value = str(draw(numbers))
    else:
        value = "'" + draw(strings) + "'"
    clause = f"{column} {op} {value}"
    if draw(st.booleans()):
        clause += f" {draw(st.sampled_from(['AND', 'OR']))} {draw(identifiers)} = {draw(numbers)}"
    return clause


@st.composite
def select_statement(draw):
    cols = draw(st.lists(identifiers, min_size=1, max_size=3, unique=True))
    query = f"SELECT {', '.join(cols)} FROM {draw(identifiers)}"
    if draw(st.booleans()):
        query += f" WHERE {draw(where_clause())}"
    if draw(st.booleans()):
        query += f" ORDER BY {draw(identifiers)}"
        if draw(st.booleans()):
            query += " DESC"
    if draw(st.booleans()):
        query += f" LIMIT {draw(st.integers(min_value=0, max_value=50))}"
    return query


@given(select_statement())
@settings(max_examples=80)
def test_generated_selects_parse(query):
    parse_statement(query)


@given(select_statement())
@settings(max_examples=80)
def test_parse_is_deterministic(query):
    assert parse_statement(query) == parse_statement(query)
