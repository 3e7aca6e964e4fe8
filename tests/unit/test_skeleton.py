"""Skeletonizer unit tests: slot spans must agree with the lexer exactly.

The shape fast path's soundness argument starts from one hard invariant:
``skeletonize(q).slots`` are exactly the spans the lexer assigns to its
STRING/NUMBER tokens (see ``repro/sqlparser/skeleton.py``).  These tests
pin that agreement, against the per-character lexical spec in
``tests/reference/lexer_spec.py``, on the lexer's edge cases -- escaped
quotes inside block comments, unterminated literals, hex and scientific
number literals, ``--`` comments at EOF, spaces above 0x7f inside words
and placeholders -- plus the quoting and numeric corner cases the lexer
itself special-cases.
"""

import pytest

from repro.sqlparser import Skeleton, skeletonize
from repro.sqlparser.skeleton import (
    NUMBER_MARK,
    SLOT_NUMBER,
    SLOT_STRING,
    STRING_MARK,
)
from tests.reference.lexer_spec import literal_spans


def reconstruct(query: str, skeleton: Skeleton) -> str:
    """Re-substitute the original literal texts into the key."""
    out = []
    key_pos = 0
    for slot in skeleton.slots:
        mark = skeleton.key.index("\x00", key_pos)
        out.append(skeleton.key[key_pos:mark])
        out.append(query[slot.start : slot.end])
        key_pos = mark + 2  # every marker is two characters
    out.append(skeleton.key[key_pos:])
    return "".join(out)


def assert_agrees(query: str) -> None:
    skeleton = skeletonize(query)
    assert [
        (slot.start, slot.end, slot.kind) for slot in skeleton.slots
    ] == literal_spans(query), query
    assert reconstruct(query, skeleton) == query


EDGE_CASES = [
    # --- escaped quotes inside comments (satellite) -------------------
    "SELECT a /* don't 'quote' me */ FROM t WHERE x = 'y'",
    "SELECT 1 # don't stop at this quote",
    "SELECT 1 -- it's a comment '",
    "SELECT '/* not a comment */' FROM t",
    "SELECT a FROM t WHERE note = '-- not a comment'",
    # --- `--` line comments at EOF (satellite) ------------------------
    "SELECT a FROM t -- trailing comment",
    "SELECT a FROM t --",
    "SELECT a FROM t WHERE id = 1--",
    # --- unterminated literals / comments (satellite) -----------------
    "SELECT a FROM t WHERE x = 'unterminated",
    'SELECT a FROM t WHERE x = "unterminated',
    "SELECT a FROM t /* unterminated",
    "SELECT `unterminated",
    "SELECT 'trailing backslash \\",
    # --- hex / scientific numbers (satellite) -------------------------
    "SELECT 0x1F, 0XABC FROM t",
    "SELECT 0x FROM t",  # bare 0x: number 0 then identifier x
    "SELECT 1e5, 1E5, 12.5e+7, 3.2E-4 FROM t",
    "SELECT 1.e5 FROM t",  # exponent needs a digit after the dot: '1.' + ident
    "SELECT 1e+ FROM t",  # dangling exponent sign: '1' + ident 'e' + op '+'
    "SELECT .5, 1., 3.14 FROM t",
    "SELECT 1ee5 FROM t",
    # --- quoting corner cases -----------------------------------------
    "SELECT '' FROM t",
    "SELECT '''' FROM t",
    "SELECT 'a''b', 'a\\'b' FROM t",
    'SELECT "a""b", "a\\"b" FROM t',
    "SELECT `a``b` FROM t",  # backtick: identifier, never a slot
    # --- identifiers shielding digits ---------------------------------
    "SELECT abc123 FROM tbl2 WHERE c0 = 5",
    "SELECT café1 FROM t",  # non-ASCII identifier characters
    "SELECT $var1 FROM t",
    # --- spaces above 0x7f: inside a word or placeholder they are identifier
    # characters, where a token starts they are whitespace ----------------
    "SELECT a\xa05 FROM t",
    "SELECT x ab\xa05 FROM t",  # a gulped run must not split the word
    "SELECT x a5\xa05 FROM t",
    "SELECT x :\x850 FROM t",  # placeholder, not ':' + space + number
    "SELECT \x850, 1\u30002 FROM t",
    "SELECT \u00b25, \x1c5 FROM t",
    # --- placeholders and operators -----------------------------------
    "SELECT a FROM t WHERE id = ? AND x = :name5",
    "SELECT a FROM t WHERE a<=>b AND c - 1 = -2",
    "",
]


@pytest.mark.parametrize("query", EDGE_CASES)
def test_slot_spans_agree_with_lexer(query):
    assert_agrees(query)


def test_literals_masked_with_typed_marks():
    skeleton = skeletonize("SELECT a FROM t WHERE id = 7 AND name = 'bob'")
    assert skeleton.key == (
        "SELECT a FROM t WHERE id = " + NUMBER_MARK + " AND name = " + STRING_MARK
    )
    assert [slot.kind for slot in skeleton.slots] == [SLOT_NUMBER, SLOT_STRING]


def test_same_shape_same_key():
    a = skeletonize("SELECT a FROM t WHERE id = 7 AND name = 'bob'")
    b = skeletonize("SELECT a FROM t WHERE id = 123456 AND name = 'x''y'")
    assert a.key == b.key
    assert [s.kind for s in a.slots] == [s.kind for s in b.slots]


def test_whitespace_and_comments_are_part_of_the_shape():
    base = skeletonize("SELECT a FROM t WHERE id = 1")
    spaced = skeletonize("SELECT a  FROM t WHERE id = 1")
    commented = skeletonize("SELECT a /*x*/ FROM t WHERE id = 1")
    assert base.key != spaced.key
    assert base.key != commented.key


def test_string_and_number_slots_do_not_unify():
    a = skeletonize("SELECT a FROM t WHERE id = 7")
    b = skeletonize("SELECT a FROM t WHERE id = '7'")
    assert a.key != b.key


def test_slot_lengths():
    skeleton = skeletonize("SELECT 'abcd', 42")
    assert [slot.length for slot in skeleton.slots] == [6, 2]


def test_digits_inside_identifiers_never_become_slots():
    skeleton = skeletonize("SELECT abc123, t2.c3 FROM t2")
    assert [
        s
        for s in skeleton.slots
        if s.kind == SLOT_NUMBER
    ] == []


def test_quotes_inside_comments_never_open_strings():
    query = "SELECT a /* ' */ FROM t WHERE x = 'v' -- '"
    skeleton = skeletonize(query)
    assert len(skeleton.slots) == 1
    start, end = skeleton.slots[0].start, skeleton.slots[0].end
    assert query[start:end] == "'v'"
