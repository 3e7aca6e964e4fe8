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
  (type/text/value/span/segment; see :class:`ShapePlan`) -- real
  :class:`~repro.sqlparser.tokens.Token` objects are only materialized
  when the hit actually needs them, and :class:`PlanToken` records only
  on introspection;
- for each token, whether its PTI coverage is **slot-independent**: the
  witness fragment occurrence found at build time lies entirely within the
  token's inter-literal segment, so byte-identical segments (guaranteed by
  skeleton-key equality) re-produce the same occurrence for *every*
  instantiation of the shape.  Tokens whose witness occurrence crosses a
  literal slot depend on literal text and are flagged ``recheck``;
- NTI pruning data: the minimum critical-token length and per-token
  character multisets, used to skip inputs that cannot possibly cover any
  critical token under the edit-distance budget.

Soundness requires that **only fully-safe shapes are cached**: an uncovered
critical token could become covered in another instantiation only via a
slot-crossing occurrence, so "uncovered" is not a shape property --
:func:`build_plan` refuses to build a plan for them and the engine falls
through to the cold path (mirroring the structure cache's safe-only rule).

Invalidation is by **fragment-store epoch**: any mutation of the store bumps
:attr:`repro.pti.fragments.FragmentStore.epoch`, and :meth:`ShapeCache.get`
/ :meth:`ShapeCache.put` clear the whole cache when the epoch moved (plans
embed coverage decisions, which a removed fragment can invalidate and an
added fragment can improve; either way the cached plan is stale).

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
import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..matching.filter import edit_budget
from ..matching.substring import TextProfile
from ..pti.caches import CacheStats
from ..sqlparser.skeleton import LiteralSlot, Skeleton, witness_segments
from ..sqlparser.tokens import Token, TokenType

__all__ = [
    "ShapeCacheConfig",
    "PlanToken",
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
        shadow_rate: probability in ``[0, 1]`` that a fast-path verdict is
            shadow-validated by re-running the cold path and comparing
            verdicts; divergences are counted and the cold verdict wins.
        shadow_seed: seed for the shadow-sampling RNG (``None`` = entropy).
    """

    enabled: bool = True
    capacity: int = 2048
    shadow_rate: float = 0.0
    shadow_seed: int | None = None


@dataclass(frozen=True)
class PlanToken:
    """One critical token of a shape, stored as primitives.

    ``segment`` is the index of the inter-literal segment containing the
    token (= number of slots entirely before it); the token's span in a new
    instantiation is its template span shifted by the cumulative length
    delta of those slots.  ``recheck`` marks tokens whose PTI coverage
    witness crossed a literal slot at build time and must be re-verified
    per query instance.

    For recheck tokens, ``witness``/``witness_rel`` record the build-time
    witness fragment and its start offset *relative to the token start*.
    In most instantiations the witness re-occurs at the same relative
    position (quote-adjacent template fragments shift rigidly with their
    token), so the re-proof collapses to one ``startswith`` -- the full
    fragment search is only needed when the guess misses.
    """

    type: TokenType
    text: str
    value: object
    start: int
    end: int
    segment: int
    recheck: bool
    witness: str | None = None
    witness_rel: int = 0


class ShapePlan:
    """Reusable analysis plan for one query shape.

    Built from a *clean, fully-safe* cold-path analysis of one instance of
    the shape (see :func:`build_plan`); applied by the engine to later
    instances sharing the skeleton key.

    Concurrency: a plan is immutable in everything verdict-relevant (key,
    slots, token arrays, witnesses, filters).  The mutable members are pure
    memos -- ``_memo``, ``_profile_template``, ``_tokens``, ``hits`` --
    whose races are benign by construction: every writer stores a value any
    other writer would also have computed (single dict-slot assignments are
    atomic under the GIL), so the worst interleaving costs a recomputation
    or a lost hit-count increment, never a wrong span or profile.

    Storage: the critical-token stream lives in **interned parallel
    arrays** (``tok_types`` / ``tok_texts`` / ``tok_values`` /
    ``tok_starts`` / ``tok_ends`` / ``tok_segments``), not per-token
    record objects.  Texts and string values pass through ``sys.intern``
    -- critical tokens are keywords, operators and schema identifiers, a
    tiny vocabulary shared across every cached shape, so a 2048-plan cache
    keeps one ``"SELECT"`` instead of thousands -- and the hot replay
    loops (:meth:`instantiate`, :meth:`materialize`) walk flat tuples
    instead of chasing attributes through dataclass records.  The
    :attr:`tokens` property rebuilds the :class:`PlanToken` view lazily
    for introspection and tests.
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
        "recheck_count",
        "min_token_len",
        "hits",
        "recheck_witnesses",
        "_filters",
        "_profile_template",
        "_memo",
        "_tokens",
    )

    def __init__(
        self,
        key: str,
        slots: tuple[LiteralSlot, ...],
        tokens: tuple[PlanToken, ...],
    ) -> None:
        self.key = key
        self.slots = slots
        # Explode the token records into interned parallel arrays; the
        # records themselves are build-time scaffolding and are dropped.
        self.tok_types = tuple(t.type for t in tokens)
        self.tok_texts = tuple(sys.intern(t.text) for t in tokens)
        self.tok_values = tuple(
            sys.intern(t.value) if type(t.value) is str else t.value
            for t in tokens
        )
        self.tok_starts = tuple(t.start for t in tokens)
        self.tok_ends = tuple(t.end for t in tokens)
        self.tok_segments = tuple(t.segment for t in tokens)
        #: Precomputed ``(token index, witness, witness_rel, len(witness))``
        #: for every recheck token, so the engine's per-hit re-proof loop
        #: iterates exactly the tokens that need it with all witness fields
        #: unpacked (no per-token attribute chasing or method dispatch).
        self.recheck_witnesses: tuple[tuple[int, str | None, int, int], ...] = (
            tuple(
                (i, t.witness, t.witness_rel, len(t.witness or ""))
                for i, t in enumerate(tokens)
                if t.recheck
            )
        )
        self.recheck_count = len(self.recheck_witnesses)
        self.min_token_len = min(
            (len(t) for t in self.tok_texts), default=0
        )
        self.hits = 0
        #: Per-token (text, length) pairs for the NTI input prefilter,
        #: shortest first so permissive inputs exit early.
        self._filters = tuple(
            sorted(((t, len(t)) for t in self.tok_texts), key=lambda p: p[1])
        )
        #: Lazily-built segment multiset tables for :meth:`profile_for`.
        self._profile_template: tuple | None = None
        #: Bounded instantiation memo for :meth:`instantiate_trusted`,
        #: keyed by slot-length tuple (cleared wholesale when full).
        self._memo: dict[
            tuple[int, ...], tuple[list[tuple[int, int]], list[Token]]
        ] = {}
        #: Lazy :class:`PlanToken` view (see :attr:`tokens`).
        self._tokens: tuple[PlanToken, ...] | None = None

    @property
    def tokens(self) -> tuple[PlanToken, ...]:
        """The critical-token stream as :class:`PlanToken` records.

        Rebuilt lazily from the parallel arrays -- the replay hot path
        never touches it; it exists for introspection and tests.  Witness
        fields are normalised: they are populated exactly for recheck
        tokens (the only tokens whose witnesses the plan consults).
        """
        view = self._tokens
        if view is None:
            witnesses = {
                i: (witness, rel)
                for i, witness, rel, _ in self.recheck_witnesses
            }
            none_pair = (None, 0)
            view = self._tokens = tuple(
                PlanToken(
                    type=ttype,
                    text=text,
                    value=value,
                    start=start,
                    end=end,
                    segment=segment,
                    recheck=i in witnesses,
                    witness=witnesses.get(i, none_pair)[0],
                    witness_rel=witnesses.get(i, none_pair)[1],
                )
                for i, (ttype, text, value, start, end, segment) in enumerate(
                    zip(
                        self.tok_types,
                        self.tok_texts,
                        self.tok_values,
                        self.tok_starts,
                        self.tok_ends,
                        self.tok_segments,
                    )
                )
            )
        return view

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

    @staticmethod
    def witness_holds(
        query: str, plan_token: PlanToken, start: int, end: int
    ) -> bool:
        """Re-verify a recheck token via its build-time witness, verbatim.

        ``start``/``end`` are the token's instantiated span.  The check is
        exact, not heuristic: it succeeds only when the witness fragment
        occurs verbatim at the guessed position *and* that occurrence
        contains the token span -- which is precisely PTI's coverage
        condition.  A miss means "unknown", and the caller falls back to
        the full fragment search.
        """
        witness = plan_token.witness
        if witness is None:
            return False
        pos = start - plan_token.witness_rel
        return (
            pos >= 0
            and end <= pos + len(witness)
            and query.startswith(witness, pos)
        )

    # -- NTI pruning-table template ------------------------------------

    def profile_for(
        self, query: str, slots: tuple[LiteralSlot, ...]
    ) -> TextProfile:
        """Exact :class:`TextProfile` of ``query``, assembled incrementally.

        The cold path scans the whole query to build NTI's char/bigram
        pruning multisets.  For a shape hit only the literal slots differ
        from the plan's template, so the fixed segments' contribution is
        precomputed once per plan and only the slot texts (plus the
        slot/segment boundary bigrams) are folded in per query --
        ``O(slot text)`` instead of ``O(query)``.  The result is exactly
        ``TextProfile(query)``: same multisets, same bounds, same matcher
        behaviour.
        """
        template = self._profile_template
        if template is None:
            # Recover the inter-slot segment texts from the skeleton key
            # (each marker is two characters: NUL + kind).
            segments: list[str] = []
            pos = 0
            key = self.key
            while True:
                mark = key.find("\x00", pos)
                if mark < 0:
                    segments.append(key[pos:])
                    break
                segments.append(key[pos:mark])
                pos = mark + 2
            base_chars: dict[str, int] = {}
            base_bigrams: dict[str, int] = {}
            for segment in segments:
                for ch in segment:
                    base_chars[ch] = base_chars.get(ch, 0) + 1
                for i in range(len(segment) - 1):
                    gram = segment[i : i + 2]
                    base_bigrams[gram] = base_bigrams.get(gram, 0) + 1
            template = self._profile_template = (segments, base_chars, base_bigrams)
        segments, base_chars, base_bigrams = template
        chars = base_chars.copy()
        bigrams = base_bigrams.copy()
        # Fold in each slot's text plus the boundary bigrams between
        # consecutive non-empty parts of seg0 slot0 seg1 slot1 ... segN.
        # Slots are literal tokens and therefore never empty; segments can
        # be (adjacent literals, leading/trailing literal).
        first_segment = segments[0]
        prev_char = first_segment[-1] if first_segment else None
        for index, slot in enumerate(slots):
            text = query[slot.start : slot.end]
            for ch in text:
                chars[ch] = chars.get(ch, 0) + 1
            for i in range(len(text) - 1):
                gram = text[i : i + 2]
                bigrams[gram] = bigrams.get(gram, 0) + 1
            if prev_char is not None:
                gram = prev_char + text[0]
                bigrams[gram] = bigrams.get(gram, 0) + 1
            following = segments[index + 1]
            if following:
                gram = text[-1] + following[0]
                bigrams[gram] = bigrams.get(gram, 0) + 1
                prev_char = following[-1]
            else:
                prev_char = text[-1]
        return TextProfile.from_tables(query, chars, bigrams)

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


class ShapeCache:
    """Bounded LRU of :class:`ShapePlan` keyed by skeleton key.

    Epoch-invalidated: callers pass the current fragment-store epoch to
    :meth:`get`/:meth:`put`; when it differs from the epoch the cached
    plans were built under, the entire cache is dropped (every plan embeds
    coverage decisions against the old store).

    Thread-safe: the epoch sync, the LRU rewiring, the doorkeeper and the
    counters all run under one internal lock, so a fragment reload racing
    N fast-path lookups can only produce misses (cold-path fallthrough),
    never a plan from a torn epoch (DESIGN.md section 10).  ``put`` refuses
    epochs older than the one already synced, so a slow cold path cannot
    re-plant a plan built against a superseded vocabulary.
    """

    _UNSYNCED = object()

    def __init__(self, capacity: int = 2048) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._store: OrderedDict[str, ShapePlan] = OrderedDict()
        #: Doorkeeper: skeleton keys of the last ``capacity`` clean cold
        #: sightings not yet admitted (keys only, never trust).
        self._seen: OrderedDict[str, None] = OrderedDict()
        self._epoch: object = self._UNSYNCED
        self._lock = threading.RLock()
        self.stats = CacheStats()
        #: Number of epoch-change flushes observed.
        self.invalidations = 0
        self.insertions = 0
        #: Stale ``put`` attempts refused (plan built under an older epoch).
        self.stale_puts = 0

    def _sync_epoch(self, epoch: int) -> None:
        if self._epoch is not epoch and self._epoch != epoch:
            if self._epoch is not self._UNSYNCED and self._store:
                self.invalidations += 1
            self._store.clear()
            self._epoch = epoch

    def get(self, key: str, epoch: int) -> ShapePlan | None:
        with self._lock:
            current = self._epoch
            if (
                current is not self._UNSYNCED
                and isinstance(current, int)
                and epoch < current
            ):
                # Stale reader: this thread pinned its epoch before a store
                # mutation another thread has already synced us to.  Serve
                # a miss (its cold path is always correct) rather than
                # syncing *backwards*, which would flush every
                # current-epoch plan and briefly re-open the stale-put
                # window.
                self.stats.misses += 1
                return None
            self._sync_epoch(epoch)
            plan = self._store.get(key)
            if plan is None:
                self.stats.misses += 1
                return None
            self._store.move_to_end(key)
            self.stats.hits += 1
            plan.hits += 1
            return plan

    def admit(self, key: str) -> bool:
        """Whether a clean cold analysis of ``key`` should build a plan.

        True on the key's second sighting within the window of the last
        ``capacity`` remembered keys (the key is then forgotten: its plan
        takes over); otherwise the key is remembered, the oldest key beyond
        the window ages out, and the admission is deferred.
        """
        with self._lock:
            seen = self._seen
            if key in seen:
                del seen[key]
                return True
            seen[key] = None
            if len(seen) > self.capacity:
                seen.popitem(last=False)
            return False

    def put(self, key: str, plan: ShapePlan, epoch: int) -> None:
        with self._lock:
            current = self._epoch
            if (
                current is not self._UNSYNCED
                and isinstance(current, int)
                and epoch < current
            ):
                # A cold path that started before a store mutation finished
                # after it: its plan proves coverage against a vocabulary
                # that no longer exists.  Refusing it means the next query
                # of the shape rebuilds cold -- fall-through, never a
                # stale-trust hit.
                self.stale_puts += 1
                return
            self._sync_epoch(epoch)
            self._store[key] = plan
            self._store.move_to_end(key)
            self.insertions += 1
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self._seen.clear()
            self._epoch = self._UNSYNCED

    def __len__(self) -> int:
        return len(self._store)

    def snapshot_stats(self) -> dict[str, float]:
        with self._lock:
            return {
                "hits": float(self.stats.hits),
                "misses": float(self.stats.misses),
                "hit_rate": self.stats.hit_rate,
                "entries": float(len(self._store)),
                "capacity": float(self.capacity),
                "invalidations": float(self.invalidations),
                "insertions": float(self.insertions),
                "stale_puts": float(self.stale_puts),
                # The store epoch the cache is synced to (-1 before first
                # use).  Under a tenant reload storm this is how an
                # operator correlates plan-cache flushes with warm
                # handoffs: invalidations should track handoff swaps,
                # and the epoch should equal the tenant store's.
                "epoch": float(self._epoch)
                if isinstance(self._epoch, int)
                else -1.0,
            }


def build_plan(
    query: str,
    skeleton: Skeleton,
    tokens: list[Token],
    analyzer,
) -> ShapePlan | None:
    """Build a reusable plan from a fully-covered instance of a shape.

    ``tokens`` is the critical-token list of ``query`` (as produced by the
    cold path).  ``analyzer`` is a :class:`~repro.pti.inference.PTIAnalyzer`
    over the *current* fragment store; it is asked for a coverage *witness*
    (fragment + occurrence position) for every token.

    Returns ``None`` -- never cache -- when:

    - any critical token overlaps a literal slot (its very text depends on
      literal content, e.g. under strict tokenization policies), or
    - any critical token is not covered by a fragment (unsafe shapes are
      not a shape-level property; see module docstring).
    """
    witnesses = [analyzer.cover_token_witness(query, tok) for tok in tokens]
    placed = witness_segments(skeleton.slots, len(query), tokens, witnesses)
    if placed is None:
        return None  # slot-overlapping or uncovered token: never cache
    plan_tokens = tuple(
        PlanToken(
            type=tok.type,
            text=tok.text,
            value=tok.value,
            start=tok.start,
            end=tok.end,
            segment=seg,
            recheck=recheck,
            witness=fragment if recheck else None,
            witness_rel=tok.start - pos if recheck else 0,
        )
        for tok, (fragment, pos), (seg, recheck) in zip(tokens, witnesses, placed)
    )
    return ShapePlan(skeleton.key, skeleton.slots, plan_tokens)
