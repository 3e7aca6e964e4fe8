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
``STRING``/``NUMBER`` tokens.  The scanner is compiled from the lexer's own
quoting, comment and number sub-patterns, so both read one grammar, and
property tests hold the slots equal to the lexical spec in
``tests/reference/lexer_spec.py``.

Unlike :func:`tokenize`, skeletonization allocates no per-token objects:
one compiled-regex pass plus slicing.  That cost asymmetry is what makes
the warm shape-cache path cheap (see ``repro/core/shapecache.py``).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .lexer import (
    BACKTICK_PATTERN,
    COMMENT_PATTERN,
    DIGIT_NUMBER_PATTERN,
    DOT_NUMBER_PATTERN,
    IDENT_CHAR_PATTERN,
    STRING_PATTERN,
)

__all__ = [
    "SLOT_STRING",
    "SLOT_NUMBER",
    "STRING_MARK",
    "NUMBER_MARK",
    "LiteralSlot",
    "Skeleton",
    "skeletonize",
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

# The scanner reuses the lexer's sub-patterns (repro/sqlparser/lexer.py) for
# every region whose extent matters, and adds only what masking needs:
#
# - string literals (group 1) and numbers (group 2) become slots; backtick
#   identifiers and comments are consumed whole, so a quote inside a
#   comment or a ``--`` inside a string is never misread, and copied
#   verbatim as part of the shape;
# - digit-initial numbers carry a lookbehind for ASCII identifier
#   characters: a digit run right after one is part of that identifier
#   (``abc123`` never yields a slot).  That lets the scanner skip ASCII
#   words without matching them one by one.  ``.5`` needs no guard: ``.``
#   never sits inside a word, and the lexer reads ``a.5`` as ``a``, ``.5``;
# - words and ``:name`` placeholders containing a character above 0x7f
#   are consumed whole, because a one-character lookbehind cannot tell
#   whether a digit after such a character is inside a word (``a\xa05`` is
#   one identifier, ``:\x850`` one placeholder) or starts a number after
#   whitespace (``\x850`` is a space, then ``0``).  The match may start on
#   an ASCII identifier character, digits included, when the scan stands
#   inside a word; a word may not start on a character that ``str.isspace``
#   claims (``(?!\s)``), exactly as in the lexer;
# - a gulp alternative, tried last, takes runs of characters that can never
#   start or change a slot: ASCII letters, ``_``/``$``, ASCII whitespace and
#   operator punctuation.  Digits, ``.``, quote and comment starters and
#   everything above 0x7f are left out, and a run never ends right before a
#   character above 0x7f (it gives that word back to the alternative
#   above).  The gulp changes no semantics; it turns per-character
#   alternation attempts into one C-level run per stretch of plain text.
#   A skeleton read off the lexer's one-match-per-token pattern instead
#   measured 1.8-2.2x slower on the benchmark's query mixes (2-vCPU VM).
#
# Anything not matched (lone ``.``, stray digits after identifiers,
# backslashes, ...) is copied verbatim as gap text between matches.
_SCANNER = re.compile(
    "|".join(
        (
            f"({STRING_PATTERN})",
            f"((?<![0-9A-Za-z_$])(?:{DIGIT_NUMBER_PATTERN})|{DOT_NUMBER_PATTERN})",
            f"{BACKTICK_PATTERN}|{COMMENT_PATTERN}",
            rf"(?:[0-9A-Za-z_$]+|:|(?!\s))[^\x00-\x7f]{IDENT_CHAR_PATTERN}*",
            r"[A-Za-z_$\x20\t\n\r\x0b\x0c,*=<>()+;:?%&|!^~@\[\]{}]+(?![^\x00-\x7f])",
        )
    )
)
_G_STRING = 1


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


def skeletonize(query: str) -> Skeleton:
    """Compute the literal-masked skeleton of ``query`` in one regex pass."""
    parts: list[str] = []
    slots: list[LiteralSlot] = []
    copied = 0
    append = parts.append
    add_slot = slots.append
    for match in _SCANNER.finditer(query):
        index = match.lastindex
        if index is None:
            # Backtick, comment, word and gulp matches hold no capturing
            # group: consumed so their contents cannot be misread as
            # literals, but copied verbatim -- they are part of the shape.
            continue
        if index == _G_STRING:
            mark, kind = STRING_MARK, SLOT_STRING
        else:
            mark, kind = NUMBER_MARK, SLOT_NUMBER
        start, end = match.span()
        if copied != start:
            append(query[copied:start])
        append(mark)
        add_slot(LiteralSlot(start, end, kind))
        copied = end
    append(query[copied:])
    return Skeleton(key="".join(parts), slots=tuple(slots))

