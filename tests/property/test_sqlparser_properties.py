"""Property-based tests for the SQL lexer/parser/skeleton layer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlparser import (
    critical_tokens,
    parse_statement,
    skeletonize,
    tokenize,
    tokenize_significant,
)
from repro.sqlparser.skeleton import SLOT_NUMBER, SLOT_STRING
from repro.sqlparser.tokens import TokenType

any_text = st.text(max_size=60)
sqlish = st.lists(
    st.sampled_from(
        list("abcdefgXYZ0123456789 '\"`()=<>,;#*-/%_.") + ["SELECT ", " OR "]
    ),
    max_size=30,
).map("".join)


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


# -- skeletonizer/lexer span agreement (the shape fast path's invariant) ----


def _lexer_literal_spans(text):
    out = []
    for token in tokenize(text):
        if token.type is TokenType.STRING:
            out.append((token.start, token.end, SLOT_STRING))
        elif token.type is TokenType.NUMBER:
            out.append((token.start, token.end, SLOT_NUMBER))
    return out


@given(any_text)
def test_skeleton_slots_agree_with_lexer_any_text(text):
    skeleton = skeletonize(text)
    assert [
        (s.start, s.end, s.kind) for s in skeleton.slots
    ] == _lexer_literal_spans(text)


@given(sqlish)
def test_skeleton_slots_agree_with_lexer_sqlish(text):
    skeleton = skeletonize(text)
    assert [
        (s.start, s.end, s.kind) for s in skeleton.slots
    ] == _lexer_literal_spans(text)


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
