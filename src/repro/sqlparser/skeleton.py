"""Literal-masked query skeletons: the key of the query-shape fast path.

Production SQL traffic is a small set of repeated query *shapes* differing
only in literal values -- the observation behind the paper's structure cache
(Section VI-A) and behind SQLBlock-style query profiling.  The skeletonizer
canonicalizes a query into

- a **skeleton key**: the query text with every string/number literal span
  replaced by a typed slot marker (``\\x00s`` / ``\\x00n``).  Everything
  else -- keywords, identifiers, operators, *whitespace and comments* -- is
  preserved verbatim, so two queries share a key exactly when they are
  character-identical outside their literal slots;
- the **literal slot spans**: the ``[start, end)`` offsets and kind of each
  masked literal in the original query.

The key is deliberately *stricter* than a whitespace-collapsing token
signature: PTI fragment matching is exact on raw query text, so a reusable
analysis plan needs the inter-literal text to be byte-identical, not merely
token-identical.  The same key serves the daemon's structure cache.

Span agreement with the lexer is a hard invariant: the slot spans must be
exactly the spans :func:`~repro.sqlparser.lexer.tokenize` assigns to its
``STRING``/``NUMBER`` tokens (property-tested).  The scanner therefore
consumes quoted identifiers, comments and identifier words as opaque
regions -- so quotes inside comments, digits inside identifiers and ``--``
markers inside strings can never be misread -- and reuses the lexer's
numeric-span rules via the shared regex below.

Unlike :func:`tokenize`, skeletonization allocates no per-token objects:
one compiled-regex pass plus slicing.  That cost asymmetry is what makes
the warm shape-cache path cheap (see ``repro/core/shapecache.py``).
"""

from __future__ import annotations

import re
from typing import NamedTuple

__all__ = [
    "SLOT_STRING",
    "SLOT_NUMBER",
    "STRING_MARK",
    "NUMBER_MARK",
    "LiteralSlot",
    "Skeleton",
    "skeletonize",
    "witness_segments",
]

#: Slot kinds (typed slots: a string literal never shares a shape with a
#: number literal in the same position).
SLOT_STRING = "s"
SLOT_NUMBER = "n"

#: Markers substituted into the key.  ``\x00`` cannot appear in a token the
#: lexer would classify differently, so marked keys never collide with the
#: text of a different query.
STRING_MARK = "\x00s"
NUMBER_MARK = "\x00n"

# One alternation per opaque/maskable region, mirroring the lexer exactly:
#
# - quoted strings: backslash escapes (incl. a lone trailing backslash) and
#   doubled-quote escapes; unterminated strings run to end of input
#   (lexer's ``_lex_quoted``);
# - backtick identifiers: doubled-backtick escape only, no backslash;
# - comments: ``/* ... */`` (unterminated swallows the rest), ``-- ...``
#   and ``# ...`` to end of line;
# - numbers: hex, decimal/float/scientific with the exact acceptance rules
#   of ``_scan_number`` (exponent only after a digit, one dot, bare ``0x``
#   falls back to ``0``).  Digit-initial alternatives carry a negative
#   lookbehind for ASCII identifier characters: a digit run preceded by an
#   ASCII word char is part of that identifier (``abc123`` never yields a
#   number slot), which is exactly what an explicit identifier alternative
#   used to enforce by consuming the whole word.  The lookbehind keeps the
#   semantics while letting the scanner skip pure-ASCII identifiers
#   entirely -- the per-match Python loop body then runs only for actual
#   literals, comments and the rare non-ASCII word, which is what makes
#   warm-path skeletonization cheap.  Dot-initial ``.5`` has no guard
#   (``.`` is not an identifier character, so it can never sit inside a
#   word), matching the lexer's behaviour on ``a.5``;
# - non-ASCII words: a one-character lookbehind cannot classify a digit
#   preceded by a char above 0x7f -- the lexer treats such a char as
#   identifier *continuation* (``a\xa05`` is one identifier) but as
#   *whitespace* when it would start a token and ``isspace()`` holds
#   (``\x850`` lexes as whitespace + NUMBER).  Words containing any char
#   above 0x7f are therefore consumed as opaque regions, with the lexer's
#   exact start rule (``isspace`` wins over ident-start) enforced on the
#   word's first character.  Pure-ASCII words never match this alternative,
#   so the common case stays loop-free;
# - skip runs: a last-resort alternative gulping runs of characters that
#   can never start or influence a maskable region -- ASCII letters,
#   ``_``/``$``, ASCII whitespace and operator punctuation.  Deliberately
#   excluded: digits and ``.`` (a greedy gulp starting earlier would
#   swallow a number that must become a slot), quote/backtick/comment
#   starters (single quote, double quote, backtick, ``/``, ``-``, ``#``) and everything
#   above 0x7f (ident-vs-whitespace ambiguity, handled above).  The gulp
#   changes no semantics -- its characters were gap text anyway -- it only
#   moves the scan from per-character alternation attempts to one C-level
#   run per stretch of boring text, tried *after* the non-ASCII word
#   alternative so it can never split ``a\xa05``-style identifiers.
#
# Anything not matched (lone ``.``, stray digits after identifiers,
# backslashes, ...) is copied verbatim as gap text between matches.

#: Characters above 0x7f the lexer's top-level ``isspace()`` check claims
#: before identifier scanning ever sees them (U+3000 is the last Unicode
#: space, but scan the whole BMP rather than trust that fact).
_HIGH_SPACES = "".join(chr(c) for c in range(0x80, 0x10000) if chr(c).isspace())

_SCANNER = re.compile(
    rf"""
      (?P<squote>'(?:''|\\[\s\S]?|[^'\\])*(?:'|\Z))
    | (?P<dquote>"(?:""|\\[\s\S]?|[^"\\])*(?:"|\Z))
    | (?P<btick>`(?:``|[^`])*(?:`|\Z))
    | (?P<comment>/\*[\s\S]*?(?:\*/|\Z)|--[^\n]*|\#[^\n]*)
    | (?P<number>(?<![0-9A-Za-z_$])
        (?:0[xX][0-9a-fA-F]+
          |[0-9]+\.[0-9]+(?:[eE][+-]?[0-9]+)?
          |[0-9]+[eE][+-]?[0-9]+
          |[0-9]+\.?)
        |\.[0-9]+(?:[eE][+-]?[0-9]+)?)
    | (?P<ident>(?:[A-Za-z_$][0-9A-Za-z_$]*[^\x00-\x7f]
                  |(?![{_HIGH_SPACES}])[^\x00-\x7f])
                (?:[0-9A-Za-z_$]|[^\x00-\x7f])*)
    | (?P<skip>[A-Za-z_$\x20\t\n\r\x0b\x0c,*=<>()+;:?%&|!^~@\[\]{{}}]+)
    """,
    re.VERBOSE,
)


class LiteralSlot(NamedTuple):
    """One masked literal: its exact span in the query and its kind.

    A ``NamedTuple`` rather than a dataclass: two to three of these are
    allocated per skeletonized query on the engine's hot path, and tuple
    construction is several times cheaper than a frozen dataclass
    ``__init__`` while staying immutable and field-compatible.
    """

    start: int
    end: int
    kind: str  # SLOT_STRING | SLOT_NUMBER

    @property
    def length(self) -> int:
        return self.end - self.start


class Skeleton(NamedTuple):
    """A query's literal-masked key plus the spans that were masked.

    Two queries with equal ``key`` are identical outside their slots: same
    slot count, kinds and order, and byte-identical inter-slot segments.
    Consequently their token streams correspond one-to-one with all
    non-literal token spans shifted rigidly by the cumulative slot-length
    difference -- the invariant the shape cache's analysis plans rely on.
    """

    key: str
    slots: tuple[LiteralSlot, ...]


# Group numbers of the scanner alternation, in source order; matching on
# ``lastindex`` (an int) avoids the ``lastgroup`` name lookup in the hot
# loop.  All inner groups are non-capturing, so ``lastindex`` is exactly
# the matched alternative.
_G_SQUOTE, _G_DQUOTE, _G_BTICK, _G_COMMENT, _G_NUMBER, _G_IDENT, _G_SKIP = range(
    1, 8
)

# Bytes twin of ``_SCANNER`` for the ASCII fast path.  Two deliberate
# differences, both sound only because the subject is pure ASCII:
#
# - the non-ASCII word alternative is dropped entirely -- it requires at
#   least one byte above 0x7f, which an ASCII subject cannot contain, so
#   removing it changes nothing while saving the engine one alternation
#   attempt per scan position;
# - byte offsets equal character offsets, so the spans this scanner
#   reports can be stored directly in :class:`LiteralSlot` (which is
#   defined in character offsets -- the lexer-agreement invariant).
#
# Every other alternative is byte-for-byte the same pattern, so the two
# scanners accept identical ASCII languages (property-tested).
_SCANNER_ASCII = re.compile(
    rb"""
      (?P<squote>'(?:''|\\[\s\S]?|[^'\\])*(?:'|\Z))
    | (?P<dquote>"(?:""|\\[\s\S]?|[^"\\])*(?:"|\Z))
    | (?P<btick>`(?:``|[^`])*(?:`|\Z))
    | (?P<comment>/\*[\s\S]*?(?:\*/|\Z)|--[^\n]*|\#[^\n]*)
    | (?P<number>(?<![0-9A-Za-z_$])
        (?:0[xX][0-9a-fA-F]+
          |[0-9]+\.[0-9]+(?:[eE][+-]?[0-9]+)?
          |[0-9]+[eE][+-]?[0-9]+
          |[0-9]+\.?)
        |\.[0-9]+(?:[eE][+-]?[0-9]+)?)
    | (?P<skip>[A-Za-z_$\x20\t\n\r\x0b\x0c,*=<>()+;:?%&|!^~@\[\]{}]+)
    """,
    re.VERBOSE,
)

# ASCII scanner group numbers (no ident alternative, so skip is group 6).
_GA_NUMBER = 5

_STRING_MARK_B = b"\x00s"
_NUMBER_MARK_B = b"\x00n"


def _skeletonize_ascii(query: str, data: bytes) -> Skeleton:
    """Skeletonize a pure-ASCII query without intermediate string slices.

    Two-phase splice instead of fragment accumulation: the scan loop only
    *collects* slot spans (no per-gap slicing at all), then the key is
    built by copying the query bytes once into a :class:`bytearray` and
    replacing each slot span with its two-byte marker **in reverse order**
    -- right-to-left splicing means earlier spans never shift, so no
    offset bookkeeping, and each replacement is a single C-level
    ``memmove``.  Gap text is therefore never materialised as an
    intermediate ``str``/``bytes`` object the way the string path's
    slice-and-join is.

    ``latin-1`` is the decoder because it is the identity on every byte
    value: the payload bytes are ASCII and the only non-ASCII bytes are
    our ``\\x00`` markers, so the key is character-identical to what the
    string path produces (property-tested).

    Queries with no literals at all -- the common warm-cache case for
    fully-parameterised shapes -- exit early and reuse the query string
    itself as the key: zero copies beyond the ``encode`` dispatch probe.
    """
    slots: list[LiteralSlot] = []
    add_slot = slots.append
    for match in _SCANNER_ASCII.finditer(data):
        index = match.lastindex
        if index == _GA_NUMBER:
            kind = SLOT_NUMBER
        elif index <= _G_DQUOTE:
            kind = SLOT_STRING
        else:
            # btick / comment / skip regions: consumed, kept verbatim.
            continue
        start, end = match.span()
        add_slot(LiteralSlot(start, end, kind))
    if not slots:
        return Skeleton(key=query, slots=())
    out = bytearray(data)
    for start, end, kind in reversed(slots):
        out[start:end] = _NUMBER_MARK_B if kind == SLOT_NUMBER else _STRING_MARK_B
    return Skeleton(key=out.decode("latin-1"), slots=tuple(slots))


def _skeletonize_unicode(query: str) -> Skeleton:
    """String-path skeletonization for queries containing non-ASCII text."""
    parts: list[str] = []
    slots: list[LiteralSlot] = []
    copied = 0
    append = parts.append
    add_slot = slots.append
    for match in _SCANNER.finditer(query):
        index = match.lastindex
        if index == _G_NUMBER:
            mark, kind = NUMBER_MARK, SLOT_NUMBER
        elif index <= _G_DQUOTE:
            mark, kind = STRING_MARK, SLOT_STRING
        else:
            # btick / comment / ident regions are consumed (so their
            # contents cannot be misread as literals) but copied verbatim:
            # they are part of the shape.
            continue
        start, end = match.span()
        if copied != start:
            append(query[copied:start])
        append(mark)
        add_slot(LiteralSlot(start, end, kind))
        copied = end
    append(query[copied:])
    return Skeleton(key="".join(parts), slots=tuple(slots))


def skeletonize(query: str) -> Skeleton:
    """Compute the literal-masked skeleton of ``query`` in one regex pass.

    Pure-ASCII queries (the overwhelming share of real SQL traffic) take
    an allocation-free bytes path: one ``encode`` to get a byte view,
    a bytes-compiled scanner, and a single pre-sized output buffer --
    byte offsets equal character offsets for ASCII, so the slot spans are
    shared with :func:`~repro.sqlparser.lexer.tokenize` unchanged.
    Queries with any non-ASCII character fall back to the string scanner,
    which handles the ident-vs-whitespace subtleties above 0x7f.
    """
    try:
        data = query.encode("ascii")
    except UnicodeEncodeError:
        return _skeletonize_unicode(query)
    return _skeletonize_ascii(query, data)


def witness_segments(
    slots: tuple[LiteralSlot, ...],
    length: int,
    tokens,
    witnesses,
) -> list[tuple[int, bool]] | None:
    """Place each token's coverage witness relative to the literal slots.

    ``slots`` are the skeleton slots of a query of ``length`` characters;
    ``witnesses`` holds one ``(fragment, occurrence start)`` pair per
    token (PTI's coverage witness).  For every token returns
    ``(segment, crosses)``: the index of the inter-literal segment holding
    the token (= number of slots entirely before it) and whether the
    witness occurrence reaches outside that segment.  A contained
    occurrence re-occurs, shifted rigidly with the token, in every query
    with the same skeleton key; a crossing one depends on literal text and
    must be re-proven per query.  Returns ``None`` when a token overlaps a
    slot or has no witness (no reusable coverage proof exists).
    """
    nslots = len(slots)
    placed: list[tuple[int, bool]] = []
    seg = 0
    for token, witness in zip(tokens, witnesses):
        while seg < nslots and slots[seg].end <= token.start:
            seg += 1
        if witness is None or (seg < nslots and token.end > slots[seg].start):
            return None
        fragment, pos = witness
        seg_start = slots[seg - 1].end if seg else 0
        seg_end = slots[seg].start if seg < nslots else length
        contained = seg_start <= pos and pos + len(fragment) <= seg_end
        placed.append((seg, not contained))
    return placed
