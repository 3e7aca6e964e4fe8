"""The lexical grammar of the MySQL-flavoured SQL subset, written once.

Every analysis reads queries through this grammar: the parser builds ASTs
from :func:`tokenize`, NTI and PTI check coverage of
:func:`critical_tokens`, fragment extraction keeps the application
strings that contain "at least one valid SQL token" (Section IV-A), and
:mod:`repro.sqlparser.skeleton` masks literals for the shape fast path.

The grammar is a set of named sub-pattern strings (quoted strings,
backtick identifiers, comments, numbers, words) composed into one compiled
master pattern, :data:`_TOKEN`.  :func:`tokenize` and
:func:`critical_tokens` are two walks of that pattern, and the skeleton
compiles its own gap-gulping pattern from the same sub-patterns, so all
three agree on how far a literal or a comment extends.  The
per-character loop this replaced is kept as the executable spec in
``tests/reference/lexer_spec.py``; property tests hold all three equal
to it.

Design points that matter for security analysis:

- **Exact spans.**  Every token records its ``[start, end)`` offsets in the
  original query string, so taint markings (which are character ranges) can
  be intersected with tokens precisely.
- **Comments are single tokens.**  ``/* ... */``, ``-- ...`` and ``# ...``
  each lex to one :class:`~repro.sqlparser.tokens.Token` of type ``COMMENT``,
  because the paper requires comments to be "fully contained in one
  fragment" and to count as one critical token.
- **Lossless.**  Concatenating the ``text`` of all tokens (including
  whitespace tokens) reproduces the input exactly.
- **Error tolerance.**  Web applications emit malformed SQL under attack;
  the lexer never raises on stray characters, it emits them as one-character
  OPERATOR tokens so downstream analyses still see them as critical.
"""

from __future__ import annotations

import re

from .tokens import (
    CRITICAL_OPERATORS,
    CRITICAL_PUNCTUATION,
    SQL_FUNCTIONS,
    SQL_KEYWORDS,
    Token,
    TokenType,
)

__all__ = ["tokenize", "tokenize_significant", "critical_tokens", "token_value"]

#: A single- or double-quoted string literal: backslash escapes (a lone
#: trailing backslash included) and doubled-quote escapes.  An unterminated
#: literal runs to the end of the input.
STRING_PATTERN = r"""'(?:''|\\[\s\S]?|[^'\\])*(?:'|\Z)|"(?:""|\\[\s\S]?|[^"\\])*(?:"|\Z)"""

#: A backtick-quoted identifier: doubled-backtick escape only, no backslash.
BACKTICK_PATTERN = r"`(?:``|[^`])*(?:`|\Z)"

#: A comment, always one whole token: ``/* ... */`` (an unterminated one
#: swallows the rest, so a truncated ``... /*`` payload stays one token),
#: and ``-- ...`` or ``# ...`` to the end of the line.  MySQL wants
#: whitespace after ``--``; attack payloads often omit it, so bare ``--``
#: counts too.
COMMENT_PATTERN = r"/\*[\s\S]*?(?:\*/|\Z)|--[^\n]*|\#[^\n]*"

#: A number starting with an ASCII digit: hex (a bare ``0x`` is the number
#: ``0`` followed by a word), or decimal with at most one dot and an
#: exponent only right after a digit (``1.e5`` is ``1.`` then a word).
DIGIT_NUMBER_PATTERN = (
    r"0[xX][0-9a-fA-F]+"
    r"|[0-9]+\.[0-9]+(?:[eE][+-]?[0-9]+)?"
    r"|[0-9]+[eE][+-]?[0-9]+"
    r"|[0-9]+\.?"
)

#: A number starting with a dot: ``.5``, ``.5e-3``.
DOT_NUMBER_PATTERN = r"\.[0-9]+(?:[eE][+-]?[0-9]+)?"

#: One identifier character: ASCII letters and digits, ``_``, ``$`` and
#: every character above 0x7f (so ``a\xa05`` is one word).
IDENT_CHAR_PATTERN = r"[0-9A-Za-z_$\x80-\U0010ffff]"

#: A word: an identifier or keyword.  Where a word may start, a character
#: above 0x7f for which ``str.isspace`` holds is whitespace instead; the
#: master pattern gets that by trying whitespace first.
WORD_PATTERN = r"[A-Za-z_$\x80-\U0010ffff]" + IDENT_CHAR_PATTERN + "*"

#: The grammar: one named alternative per token class, with the token type
#: it yields (a word is a keyword or an identifier, decided by
#: :data:`SQL_KEYWORDS`).  Alternatives are tried in this order at each
#: offset, and the last one takes any character, so matches tile the input.
_GRAMMAR = (
    ("space", r"\s+", TokenType.WHITESPACE),
    ("comment", COMMENT_PATTERN, TokenType.COMMENT),
    ("string", STRING_PATTERN, TokenType.STRING),
    ("backtick", BACKTICK_PATTERN, TokenType.IDENTIFIER),
    ("number", f"{DIGIT_NUMBER_PATTERN}|{DOT_NUMBER_PATTERN}", TokenType.NUMBER),
    ("placeholder", rf"\?|:{WORD_PATTERN}", TokenType.PLACEHOLDER),
    ("word", WORD_PATTERN, None),
    ("punct", r"[(),;]", TokenType.PUNCTUATION),
    # Operators, longest first; any other character is a one-character
    # operator, so exotic bytes stay visible to the analyses.
    ("operator", r"<=>|<=|>=|<>|!=|:=|\|\||&&|<<|>>|->|[\s\S]", TokenType.OPERATOR),
)

#: The master pattern.  Every inner group is non-capturing, so a match's
#: ``lastindex`` names its alternative.
_TOKEN = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern, _ in _GRAMMAR))
_GROUP_TYPES = (None,) + tuple(ttype for _, _, ttype in _GRAMMAR)
_SPACE, _COMMENT, _BACKTICK, _WORD, _PUNCT, _OPERATOR = (
    _TOKEN.groupindex[name]
    for name in ("space", "comment", "backtick", "word", "punct", "operator")
)
#: Groups whose tokens may carry a value other than their text (see
#: :func:`token_value`); the rest keep the :class:`Token` default.
_DECODED = frozenset(
    _TOKEN.groupindex[name] for name in ("string", "backtick", "number", "word")
)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0"}


def _unquote(raw: str) -> str:
    """Decode a quoted literal or backtick identifier (``raw`` keeps its quotes)."""
    quote = raw[0]
    body = raw[1:]
    if body.endswith(quote):
        body = body[:-1]
    if quote == "`":
        return body.replace("``", "`")
    out: list[str] = []
    i = 0
    n = len(body)
    while i < n:
        ch = body[i]
        if ch == "\\" and i + 1 < n:
            nxt = body[i + 1]
            out.append(_ESCAPES.get(nxt, nxt))
            i += 2
        elif ch == quote and i + 1 < n and body[i + 1] == quote:
            out.append(quote)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def token_value(ttype: TokenType, text: str) -> object:
    """The semantic value of a token of type ``ttype`` whose source is ``text``.

    Keywords lowercase; string literals and backtick identifiers lose their
    quotes and escapes; numbers become ``int`` (hex included) or ``float``;
    every other token's value is its text.  The lexer and the wire's span
    codec (:mod:`repro.pti.wire`) both derive values here, so a token
    rebuilt from its span equals the one the lexer made.
    """
    if ttype is TokenType.KEYWORD:
        return text.lower()
    if ttype is TokenType.NUMBER:
        if text[:2] in ("0x", "0X"):
            return int(text, 16)
        if "." in text or "e" in text or "E" in text:
            return float(text)
        return int(text)
    if ttype is TokenType.STRING or (
        ttype is TokenType.IDENTIFIER and text[:1] == "`"
    ):
        return _unquote(text)
    return text


def tokenize(query: str) -> list[Token]:
    """Tokenize ``query`` into a lossless token list (whitespace included).

    Never raises on malformed input; the final element is always an ``EOF``
    token with an empty ``text``.
    """
    tokens: list[Token] = []
    append = tokens.append
    for match in _TOKEN.finditer(query):
        group = match.lastindex
        ttype = _GROUP_TYPES[group]
        text = match.group()
        if ttype is None:
            ttype = (
                TokenType.KEYWORD
                if text.lower() in SQL_KEYWORDS
                else TokenType.IDENTIFIER
            )
        start, end = match.span()
        value = token_value(ttype, text) if group in _DECODED else None
        append(Token(ttype, text, start, end, value))
    n = len(query)
    append(Token(TokenType.EOF, "", n, n))
    return tokens


def tokenize_significant(query: str) -> list[Token]:
    """Tokenize and drop whitespace and EOF; comments are retained.

    This is the stream the parser and fragment extraction consume.
    """
    return [
        t
        for t in tokenize(query)
        if t.type not in (TokenType.WHITESPACE, TokenType.EOF)
    ]


def critical_tokens(query: str, strict: bool = False) -> list[Token]:
    """The security-critical tokens of ``query``, in source order.

    Critical (paper Sections II-III): SQL keywords, comments (each one
    whole token), the comparison/logical operators of
    :data:`~repro.sqlparser.tokens.CRITICAL_OPERATORS`, the statement
    delimiter ``;``, and built-in function names whose next significant
    token is ``(``, e.g. the ``username()`` of Figure 3B.  Literals,
    placeholders, ordinary identifiers, arithmetic signs and grouping
    punctuation are data.  This is the token set both inference components
    check for taint coverage; it is purely lexical, so it works on
    unparseable queries.

    ``strict`` switches to a Ray/Ligatti-style policy (paper Section II):
    *identifiers* become critical too, so applications that pass field or
    table names through user input are rejected.  The paper deliberately
    does not use this ("many programs ... would break"); it is offered as
    the adjustable-policy knob Section II mentions.

    Walks the master pattern and builds a :class:`Token` only for a
    critical token.  A function name is held back until the next
    significant token shows whether it is called.
    """
    critical: list[Token] = []
    append = critical.append
    call: Token | None = None
    for match in _TOKEN.finditer(query):
        group = match.lastindex
        if group == _SPACE:
            continue
        text = match.group()
        if call is not None:
            if group == _PUNCT and text == "(":
                append(call)
            call = None
        if group == _WORD:
            lower = text.lower()
            if lower in SQL_KEYWORDS:
                ttype = TokenType.KEYWORD
            elif strict:
                ttype = TokenType.IDENTIFIER
            else:
                if lower in SQL_FUNCTIONS:
                    call = Token(TokenType.IDENTIFIER, text, *match.span())
                continue
        elif group == _OPERATOR:
            if text not in CRITICAL_OPERATORS:
                continue
            ttype = TokenType.OPERATOR
        elif group == _COMMENT:
            ttype = TokenType.COMMENT
        elif group == _PUNCT:
            if text not in CRITICAL_PUNCTUATION:
                continue
            ttype = TokenType.PUNCTUATION
        elif group == _BACKTICK and strict:
            ttype = TokenType.IDENTIFIER
        else:
            continue
        start, end = match.span()
        value = token_value(ttype, text) if group in _DECODED else None
        append(Token(ttype, text, start, end, value))
    return critical
