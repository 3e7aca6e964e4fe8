"""Query-shape cache: per-shape analysis plans for the guard fast path.

Production SQL traffic is a small set of repeated query *shapes* differing
only in literal values (the observation behind the paper's structure cache,
Section VI-A, and behind SQLBlock-style query profiling).  The cold path
re-lexes every intercepted query, re-extracts its critical tokens and
re-runs PTI coverage from scratch -- all work that is identical across
instances of one shape.  This module caches that work.

A **shape** is the literal-masked skeleton of a query
(:func:`repro.sqlparser.skeletonize`): the query text with string/number
literals replaced by typed slot markers, everything else byte-identical.
An **analysis plan** for a shape records

- the critical-token stream as interned parallel primitive arrays
  (type/text/value/span/segment; see :class:`ShapePlan`), from which a hit
  materializes its :class:`~repro.sqlparser.tokens.Token` objects;
- the token's PTI coverage proof.  A witness fragment occurrence found at
  build time that lies entirely within the token's inter-literal segment
  is **slot-independent**: byte-identical segments (guaranteed by
  skeleton-key equality) re-produce the same occurrence for *every*
  instantiation of the shape.  An occurrence that crosses a literal slot
  depends on literal text, so the plan keeps its witness record
  (:func:`~repro.pti.caches.witness_records`, shared with the daemon's
  structure cache) and the engine re-proves it per query;
- NTI pruning data: the minimum critical-token length and per-token
  character multisets, used to skip inputs that cannot possibly cover any
  critical token under the edit-distance budget.

Soundness requires that **only fully-safe shapes are cached**: an uncovered
critical token could become covered in another instantiation only via a
slot-crossing occurrence, so "uncovered" is not a shape property --
:func:`build_plan` refuses to build a plan for them and the engine falls
through to the cold path (mirroring the structure cache's safe-only rule).

Invalidation is by **fragment-store epoch**: a vocabulary swap brings a
store with a larger :attr:`repro.pti.fragments.FragmentStore.epoch`, and
the plan cache, an epoch-aware LRU (:class:`~repro.pti.caches.EpochLRU`),
drops every plan when a lookup or plant names a newer epoch (plans embed
coverage decisions, which a removed fragment can invalidate and an added
fragment can improve; either way the cached plan is stale).

Admission is on the **second sighting**: a plan costs a witness search per
critical token to build, which only pays if the shape recurs.  A
TinyLFU-style doorkeeper (:meth:`ShapeCache.admit`) remembers the skeleton
keys of the last ``capacity`` clean cold analyses that were not admitted;
a key already there is admitted and its plan built, any other key is only
remembered.  One-off shapes therefore never reach :func:`build_plan`, and
a recurring shape is planted one query later than it would be otherwise.
The doorkeeper holds keys, never trust -- every plan is still built from
the clean cold analysis that admitted it, at that analysis's pinned epoch
-- so it survives epoch flushes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ..matching.filter import edit_budget
from ..pti.caches import EpochLRU, witness_records
from ..sqlparser.skeleton import LiteralSlot, Skeleton
from ..sqlparser.tokens import Token

__all__ = [
    "ShapeCacheConfig",
    "ShapePlan",
    "ShapeCache",
    "build_plan",
]


@dataclass
class ShapeCacheConfig:
    """Tunables for the shape fast path.

    Attributes:
        enabled: master switch; off means every query takes the cold path.
        capacity: bounded LRU size (number of distinct shapes).
    """

    enabled: bool = True
    capacity: int = 2048


class ShapePlan:
    """Reusable analysis plan for one query shape.

    Built from a *clean, fully-safe* cold-path analysis of one instance of
    the shape (see :func:`build_plan`); applied by the engine to later
    instances sharing the skeleton key.

    Concurrency: a plan is immutable in everything verdict-relevant (key,
    slots, token arrays, witness records, filters).  The one mutable
    member, ``_memo``, is a pure memo whose races are benign by
    construction: every writer stores a value any other writer would also
    have computed (single dict-slot assignments are atomic under the GIL),
    so the worst interleaving costs a recomputation, never a wrong span.

    Storage: the critical-token stream lives in **interned parallel
    arrays** (``tok_types`` / ``tok_texts`` / ``tok_values`` /
    ``tok_starts`` / ``tok_ends`` / ``tok_segments``), not per-token
    record objects.  Texts and string values pass through ``sys.intern``
    -- critical tokens are keywords, operators and schema identifiers, a
    tiny vocabulary shared across every cached shape, so a 2048-plan cache
    keeps one ``"SELECT"`` instead of thousands -- and the hot replay
    loops (:meth:`instantiate`, :meth:`materialize`) walk flat tuples.
    ``recheck_witnesses`` holds the slot-crossing witness records of
    :func:`~repro.pti.caches.witness_records`, re-proven on every hit.
    """

    __slots__ = (
        "key",
        "slots",
        "tok_types",
        "tok_texts",
        "tok_values",
        "tok_starts",
        "tok_ends",
        "tok_segments",
        "recheck_witnesses",
        "min_token_len",
        "_filters",
        "_memo",
    )

    def __init__(
        self,
        key: str,
        slots: tuple[LiteralSlot, ...],
        tokens,
        segments: tuple[int, ...],
        recheck_witnesses: tuple[tuple[int, str, int, int], ...],
    ) -> None:
        self.key = key
        self.slots = slots
        self.tok_types = tuple(t.type for t in tokens)
        self.tok_texts = tuple(sys.intern(t.text) for t in tokens)
        self.tok_values = tuple(
            sys.intern(t.value) if type(t.value) is str else t.value
            for t in tokens
        )
        self.tok_starts = tuple(t.start for t in tokens)
        self.tok_ends = tuple(t.end for t in tokens)
        self.tok_segments = segments
        self.recheck_witnesses = recheck_witnesses
        self.min_token_len = min(
            (len(t) for t in self.tok_texts), default=0
        )
        #: Per-token (text, length) pairs for the NTI input prefilter,
        #: shortest first so permissive inputs exit early.
        self._filters = tuple(
            sorted(((t, len(t)) for t in self.tok_texts), key=lambda p: p[1])
        )
        #: Bounded instantiation memo for :meth:`instantiate_trusted`,
        #: keyed by slot-length tuple (cleared wholesale when full).
        self._memo: dict[
            tuple[int, ...], tuple[list[tuple[int, int]], list[Token]]
        ] = {}

    # -- instantiation -------------------------------------------------

    def instantiate(
        self, query: str, slots: tuple[LiteralSlot, ...]
    ) -> list[tuple[int, int]] | None:
        """Shifted ``(start, end)`` spans of the plan tokens in ``query``.

        ``slots`` are the literal slots of the *new* query instance.  Spans
        are the template spans shifted rigidly by the cumulative slot-length
        delta -- valid because skeleton-key equality makes all inter-slot
        segments byte-identical.  As a lex-drift guard each shifted span is
        verified verbatim against the query text; any mismatch (which would
        indicate a skeletonizer/lexer disagreement) returns ``None`` so the
        engine falls through to the cold path instead of trusting the plan.
        """
        old = self.slots
        if len(slots) != len(old):
            return None
        # Prefix deltas: shift of segment i = sum of length deltas of
        # slots 0..i-1.
        shift = 0
        shifts = [0] * (len(old) + 1)
        for i, (new_slot, old_slot) in enumerate(zip(slots, old)):
            if new_slot.kind != old_slot.kind:
                return None
            shift += new_slot.length - old_slot.length
            shifts[i + 1] = shift
        spans: list[tuple[int, int]] = []
        append = spans.append
        for segment, start, end, text in zip(
            self.tok_segments, self.tok_starts, self.tok_ends, self.tok_texts
        ):
            delta = shifts[segment]
            start += delta
            end += delta
            if query[start:end] != text:
                return None
            append((start, end))
        return spans

    def materialize(self, spans: list[tuple[int, int]]) -> list[Token]:
        """Build real ``Token`` objects at the instantiated spans."""
        return [
            Token(ttype, text, start, end, value=value)
            for ttype, text, value, (start, end) in zip(
                self.tok_types, self.tok_texts, self.tok_values, spans
            )
        ]

    def instantiate_trusted(
        self, query: str, slots: tuple[LiteralSlot, ...]
    ) -> tuple[list[tuple[int, int]] | None, list[Token] | None]:
        """Spans *and* materialized tokens, memoised on slot lengths.

        Caller contract: ``skeletonize(query).key == self.key``.  The engine
        always satisfies it (plans are looked up by the query's own skeleton
        key), and under it the spans and token objects depend only on the
        *lengths* of the literal slots -- every inter-slot byte is identical
        by key equality, so the per-instance verbatim guard of
        :meth:`instantiate` is provably redundant and equal-length
        instantiations are bit-for-bit the same.  A small bounded memo
        therefore serves the common production case (a handful of literal
        widths per shape, e.g. 5-7 digit IDs) without re-deriving spans or
        re-allocating tokens.

        On a memo miss the full :meth:`instantiate` (guards included) +
        :meth:`materialize` pair runs and refreshes the memo.  Returns
        ``(None, None)`` when instantiation is refused, exactly like
        :meth:`instantiate`.
        """
        lengths = tuple(slot.end - slot.start for slot in slots)
        memo = self._memo
        cached = memo.get(lengths)
        if cached is not None:
            return cached
        spans = self.instantiate(query, slots)
        if spans is None:
            return None, None
        tokens = self.materialize(spans)
        if len(memo) >= 64:
            memo.clear()
        memo[lengths] = (spans, tokens)
        return spans, tokens

    # -- NTI input prefilter -------------------------------------------

    def input_can_cover(self, value: str, threshold: float) -> bool:
        """Whether input ``value`` could cover *any* critical token.

        NTI detects an attack only when a single input's accepted match
        region contains a whole critical token.  An accepted match of
        ``value`` has edit distance at most
        ``budget = int(threshold * len(value) / (1 - threshold))`` (the
        acceptance rule of ``match_with_ratio``), and the matched region's
        length differs from ``len(value)`` by at most ``budget``.  Hence a
        covering match requires ``len(value) + budget >= len(token)``, and
        every character occurrence in the token's text that appears nowhere
        in ``value`` costs at least one edit.  Inputs failing these tests
        for every plan token can only produce non-covering markings, so
        skipping them cannot change the verdict.
        """
        if not self.tok_texts:
            return False
        n = len(value)
        budget = edit_budget(n, threshold) if threshold < 1.0 else n
        reach = n + budget
        if reach < self.min_token_len:
            return False
        vset = set(value)
        for text, tlen in self._filters:
            if tlen > reach:
                # Filters are sorted by length; the rest are longer still.
                return False
            if budget >= tlen:
                return True
            missing = 0
            ok = True
            for ch in text:
                if ch not in vset:
                    missing += 1
                    if missing > budget:
                        ok = False
                        break
            if ok:
                return True
        return False


class ShapeCache(EpochLRU):
    """Bounded LRU of :class:`ShapePlan` keyed by skeleton key.

    Callers pass the fragment-store epoch they pinned before analysis to
    :meth:`get`/:meth:`put` (:class:`~repro.pti.caches.EpochLRU`): a newer
    epoch drops every plan (each embeds coverage decisions against the old
    store), a reader of an older epoch misses without flushing, and a plan
    built under an older epoch is refused, so a slow cold path cannot
    re-plant a plan proven against a superseded vocabulary.  A fragment
    reload racing N fast-path lookups can therefore only produce misses
    (cold-path fallthrough), never a plan from a torn epoch (DESIGN.md
    section 10).
    """

    def __init__(self, capacity: int = 2048) -> None:
        super().__init__(capacity)
        #: Doorkeeper: skeleton keys of the last ``capacity`` clean cold
        #: sightings not yet admitted.  Keys carry no trust, so the window
        #: stays at one constant epoch and survives plan flushes.
        self._window = EpochLRU(capacity)

    def admit(self, key: str) -> bool:
        """Whether a clean cold analysis of ``key`` should build a plan.

        True on the key's second sighting within the window of the last
        ``capacity`` remembered keys (the key is then forgotten: its plan
        takes over); otherwise the key is remembered, the oldest key beyond
        the window ages out, and the admission is deferred.  Two threads
        sighting a new key at once may both be deferred; its next sighting
        is admitted.
        """
        if self._window.pop(key) is not None:
            return True
        self._window.put(key, True)
        return False


def build_plan(
    query: str,
    skeleton: Skeleton,
    tokens: list[Token],
    analyzer,
) -> ShapePlan | None:
    """Build a reusable plan from a fully-covered instance of a shape.

    ``tokens`` is the critical-token list of ``query`` (as produced by the
    cold path).  ``analyzer`` is the PTI backend's
    :class:`~repro.pti.inference.PTIAnalyzer` over the store the plan is
    pinned to; it is asked for a coverage *witness* (fragment + occurrence
    position) for every token.  In process, that is the analyzer whose
    analysis just produced ``tokens``: when that analysis ran the
    automaton over ``query``, the witnesses come from its occurrence index.

    Returns ``None`` -- never cache -- when:

    - any critical token overlaps a literal slot (its very text depends on
      literal content, e.g. under strict tokenization policies), or
    - any critical token is not covered by a fragment (unsafe shapes are
      not a shape-level property; see module docstring).
    """
    witnesses = [analyzer.cover_token_witness(query, tok) for tok in tokens]
    placed = witness_records(skeleton.slots, len(query), tokens, witnesses)
    if placed is None:
        return None  # slot-overlapping or uncovered token: never cache
    return ShapePlan(skeleton.key, skeleton.slots, tokens, *placed)
