"""One-pass PTI matching: Aho-Corasick fragment-occurrence automaton.

The scan matcher of :mod:`repro.pti.inference` answers "is this critical
token inside a fragment occurrence?" *per token*: it walks the MRU list and
the inverted-index candidates and runs a bounded ``str.find`` per fragment.
Its cost is ``O(tokens x candidates x find)`` -- and for a WordPress-scale
vocabulary the index bucket of a keyword like ``SELECT`` is essentially the
whole store, so malicious queries (and any benign query outside the MRU
working set) degenerate to the full scan the paper's Figure 7 calls
"unoptimized".

This module replaces the per-token search with classic multi-pattern
matching (Aho & Corasick 1975):

1. an automaton (goto / fail / merged-output over interned fragment ids) is
   compiled once per fragment store over the whole vocabulary;
2. one streaming pass over the intercepted query emits **every** fragment
   occurrence as a half-open interval ``[start, end)``;
3. per-token coverage becomes an interval-stabbing lookup on the
   :class:`OccurrenceIndex` -- occurrences sorted by start, a running
   maximum of ends, one ``bisect`` per token.

Total analysis cost: ``O(|query| + occurrences + tokens x log occurrences)``
regardless of store size (after the per-store build).  The semantics are
exactly PTI's single-occurrence rule: a token is covered iff **one**
occurrence of **one** fragment contains it -- fragments are never combined,
matching stays case-sensitive, and :meth:`OccurrenceIndex.witness` recovers
a concrete ``(fragment, occurrence_start)`` pair, which the shape cache
needs to classify coverage as slot-independent vs literal-dependent.

Work accounting: the automaton's analogue of the scan matcher's
"containment check" counter is the number of *node transitions* performed
(goto steps plus fail-link follows, >= |query|).  The Figure 7 comparisons
counter therefore changes meaning under ``matcher="automaton"`` -- see
DESIGN.md section 9.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator

__all__ = ["CompositeAutomaton", "FragmentAutomaton", "OccurrenceIndex"]


class OccurrenceIndex:
    """Interval-stabbing structure over one query's fragment occurrences.

    Occurrences are half-open ``[start, end)`` intervals sorted by start.
    For each prefix of that order the maximum end (and the occurrence
    achieving it) is precomputed, so *"does any occurrence contain
    [token_start, token_end)?"* is one ``bisect_right`` plus one array
    lookup: among occurrences starting at or before ``token_start``, some
    occurrence reaches past ``token_end`` iff the running maximum does.

    The witness returned by :meth:`witness` is deterministic: the earliest
    occurrence (in start order) achieving the running maximum end.  It is
    always a *genuine* occurrence -- ``query[pos : pos + len(fragment)] ==
    fragment`` -- which the shape cache relies on for its per-instance
    re-proof hints.
    """

    __slots__ = (
        "starts",
        "ends",
        "fragment_ids",
        "transitions",
        "_max_ends",
        "_argmax",
        "_fragments",
    )

    def __init__(
        self,
        starts: list[int],
        ends: list[int],
        fragment_ids: list[int],
        fragments: tuple[str, ...],
        transitions: int,
    ) -> None:
        if starts:
            order = sorted(range(len(starts)), key=starts.__getitem__)
            self.starts = [starts[k] for k in order]
            self.ends = [ends[k] for k in order]
            self.fragment_ids = [fragment_ids[k] for k in order]
            max_ends: list[int] = []
            argmax: list[int] = []
            best = -1
            best_at = -1
            for i, end in enumerate(self.ends):
                if end > best:
                    best = end
                    best_at = i
                max_ends.append(best)
                argmax.append(best_at)
            self._max_ends = max_ends
            self._argmax = argmax
        else:
            self.starts = []
            self.ends = []
            self.fragment_ids = []
            self._max_ends = []
            self._argmax = []
        self._fragments = fragments
        #: Node transitions the automaton performed producing this index
        #: (the automaton-mode unit of the Fig. 7 comparisons counter).
        self.transitions = transitions

    def __len__(self) -> int:
        return len(self.starts)

    def covers(self, start: int, end: int) -> bool:
        """Whether some single occurrence contains ``[start, end)``."""
        j = bisect_right(self.starts, start) - 1
        return j >= 0 and self._max_ends[j] >= end

    def witness(self, start: int, end: int) -> tuple[str, int] | None:
        """A covering ``(fragment, occurrence_start)`` pair, or ``None``.

        Mirrors the scan matcher's
        :meth:`~repro.pti.inference.PTIAnalyzer.cover_token_witness`
        contract: the returned position is the exact start of a real
        occurrence whose interval contains ``[start, end)``.
        """
        j = bisect_right(self.starts, start) - 1
        if j < 0 or self._max_ends[j] < end:
            return None
        k = self._argmax[j]
        return self._fragments[self.fragment_ids[k]], self.starts[k]

    def intervals(self) -> list[tuple[int, int, str]]:
        """All occurrences as ``(start, end, fragment)`` (test/debug aid)."""
        fragments = self._fragments
        return [
            (start, end, fragments[fid])
            for start, end, fid in zip(self.starts, self.ends, self.fragment_ids)
        ]


class FragmentAutomaton:
    """Aho-Corasick automaton over a fragment vocabulary.

    Compiled once per fragment store
    (:meth:`~repro.pti.fragments.FragmentStore.compiled_automaton`); a
    store never changes, so neither does its automaton.  A vocabulary
    change builds a new store, and with it a new automaton.

    Representation: ``goto`` is a list of per-node ``{char: next_node}``
    dicts (the trie shares fragment prefixes, so nodes <= total fragment
    characters), ``fail`` the classic BFS failure links, and ``out`` the
    per-node tuple of fragment ids terminating there -- with fail-chain
    outputs merged in at build time so the scan loop reads one tuple per
    node instead of walking suffix links.
    """

    __slots__ = ("fragments", "node_count", "_goto", "_fail", "_out", "_lengths")

    def __init__(self, fragments: Iterable[str]) -> None:
        # Dedupe while preserving first-seen order (the store already
        # dedupes; direct construction in tests may not) and drop empties,
        # which match everywhere and cover nothing.
        seen: set[str] = set()
        unique: list[str] = []
        for fragment in fragments:
            if fragment and fragment not in seen:
                seen.add(fragment)
                unique.append(fragment)
        self.fragments: tuple[str, ...] = tuple(unique)
        self._lengths = [len(f) for f in self.fragments]
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        goto: list[dict[str, int]] = [{}]
        out: list[tuple[int, ...]] = [()]
        for fid, fragment in enumerate(self.fragments):
            node = 0
            for ch in fragment:
                nxt = goto[node].get(ch)
                if nxt is None:
                    nxt = len(goto)
                    goto[node][ch] = nxt
                    goto.append({})
                    out.append(())
                node = nxt
            out[node] = out[node] + (fid,)
        fail = [0] * len(goto)
        # BFS from the root; children of the root fail to the root.
        queue: list[int] = list(goto[0].values())
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            for ch, child in goto[node].items():
                queue.append(child)
                state = fail[node]
                while state and ch not in goto[state]:
                    state = fail[state]
                candidate = goto[state].get(ch, 0)
                fail[child] = 0 if candidate == child else candidate
                if out[fail[child]]:
                    # Merge suffix outputs: an occurrence ending here also
                    # ends every fragment that is a suffix of this path.
                    out[child] = out[child] + out[fail[child]]
        self._goto = goto
        self._fail = fail
        self._out = out
        self.node_count = len(goto)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def scan(self, text: str) -> tuple[list[int], list[int], list[int], int]:
        """One streaming pass; returns ``(starts, ends, fragment_ids, transitions)``.

        Emits every occurrence of every fragment (a fragment of length L
        reported at scan position i occupies ``[i + 1 - L, i + 1)``).
        ``transitions`` counts goto steps plus fail-link follows -- the
        automaton's unit of matching work.
        """
        goto = self._goto
        fail = self._fail
        out = self._out
        lengths = self._lengths
        node = 0
        transitions = 0
        starts: list[int] = []
        ends: list[int] = []
        fragment_ids: list[int] = []
        for i, ch in enumerate(text):
            transitions += 1
            nxt = goto[node].get(ch)
            while nxt is None and node:
                node = fail[node]
                transitions += 1
                nxt = goto[node].get(ch)
            node = nxt if nxt is not None else 0
            hits = out[node]
            if hits:
                end = i + 1
                for fid in hits:
                    starts.append(end - lengths[fid])
                    ends.append(end)
                    fragment_ids.append(fid)
        return starts, ends, fragment_ids, transitions

    def index(self, text: str) -> OccurrenceIndex:
        """Scan ``text`` and build its interval-stabbing index."""
        starts, ends, fragment_ids, transitions = self.scan(text)
        return OccurrenceIndex(starts, ends, fragment_ids, self.fragments, transitions)

    def occurrences(self, text: str) -> Iterator[tuple[int, int, str]]:
        """All ``(start, end, fragment)`` occurrences in ``text`` (test aid)."""
        starts, ends, fragment_ids, __ = self.scan(text)
        fragments = self.fragments
        for start, end, fid in zip(starts, ends, fragment_ids):
            yield start, end, fragments[fid]

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Size counters for the engine's cache introspection."""
        return {"fragments": len(self.fragments), "nodes": self.node_count}


class CompositeAutomaton:
    """Shared-base + tenant-overlay matcher (cross-tenant interning).

    A fleet of tenants running the same application shares an identical
    core vocabulary (WordPress core is byte-identical across sites); only
    the plugin delta differs per tenant.  Compiling a full
    :class:`FragmentAutomaton` per tenant would duplicate the dominant
    trie ``N`` times, so the tenancy layer compiles the base **once** and
    pairs it with each tenant's tiny overlay automaton; this class makes
    the pair quack like a single automaton over the tenant's composed
    fragment tuple (base fragments at ids ``0..B-1``, overlay fragments
    offset by ``B`` -- exactly the layout of
    :class:`repro.tenancy.TenantStore`).

    Semantics are unchanged: both parts stream the query independently
    and the union of their occurrence intervals is precisely the
    occurrence set of the full vocabulary (Aho-Corasick emits every
    occurrence of every pattern; partitioning the pattern set partitions
    the occurrences).  Transitions add up, so the Fig. 7 work counter
    honestly reports the two passes.
    """

    __slots__ = ("base", "overlay", "fragments", "node_count")

    def __init__(
        self,
        base: FragmentAutomaton,
        overlay: FragmentAutomaton,
        fragments: tuple[str, ...],
    ) -> None:
        if tuple(base.fragments) + tuple(overlay.fragments) != tuple(fragments):
            raise ValueError(
                "composite fragment tuple must be base fragments followed by "
                "overlay fragments (id offsets depend on it)"
            )
        self.base = base
        self.overlay = overlay
        self.fragments = tuple(fragments)
        self.node_count = base.node_count + overlay.node_count

    def scan(self, text: str) -> tuple[list[int], list[int], list[int], int]:
        """Two streaming passes; same contract as :meth:`FragmentAutomaton.scan`."""
        starts, ends, fragment_ids, transitions = self.base.scan(text)
        o_starts, o_ends, o_ids, o_transitions = self.overlay.scan(text)
        offset = len(self.base.fragments)
        starts.extend(o_starts)
        ends.extend(o_ends)
        fragment_ids.extend(fid + offset for fid in o_ids)
        return starts, ends, fragment_ids, transitions + o_transitions

    def index(self, text: str) -> OccurrenceIndex:
        """Scan ``text`` and build its interval-stabbing index."""
        starts, ends, fragment_ids, transitions = self.scan(text)
        return OccurrenceIndex(starts, ends, fragment_ids, self.fragments, transitions)

    def occurrences(self, text: str) -> Iterator[tuple[int, int, str]]:
        """All ``(start, end, fragment)`` occurrences in ``text`` (test aid)."""
        starts, ends, fragment_ids, __ = self.scan(text)
        fragments = self.fragments
        for start, end, fid in zip(starts, ends, fragment_ids):
            yield start, end, fragments[fid]

    def stats(self) -> dict[str, int]:
        """Size counters; ``shared_nodes`` is the interned (base) share."""
        return {
            "fragments": len(self.fragments),
            "nodes": self.node_count,
            "shared_nodes": self.base.node_count,
            "overlay_nodes": self.overlay.node_count,
        }
