"""The three caches of the PTI analysis pipeline (paper Sections IV-C, VI-A).

1. :class:`QueryCache` -- exact query string -> safety verdict.  "Because
   many queries of a web application are constant and do not rely on any
   user-input, caching improves performance significantly" (IV-C.2).  This
   is what takes WordPress read requests to <4% overhead (Table V).
2. :class:`StructureCache` -- query skeleton -> proof of safety.
   "Caches the structure of the SQL query abstract-syntax-tree without the
   content of data nodes", covering dynamic queries whose literals vary per
   request; takes write requests from 34% to 12% overhead (Table V).
3. :class:`MRUFragmentCache` -- most-recently-used fragments, tried before
   the full store "to take advantage of the SQL query working set of a Web
   application" (VI-A).

Caching safety by structure alone is *not* sound: PTI coverage depends on
the exact text between tokens (whitespace included) and, for a fragment
occurrence that spans a literal, on the literal's contents too.  A
whitespace-collapsing signature served ``... a = 7 OR  b = 7`` as safe after
``... a = 1 OR b = 2`` had been proven safe, although the fragment
``" OR b = "`` no longer occurs in it.  The structure cache is therefore
keyed by the whitespace-exact skeleton key
(:func:`~repro.sqlparser.skeletonize`), and each entry records the coverage
witnesses that cross a literal slot; a hit re-proves those with one
``startswith`` each and falls back to full analysis on any miss.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..sqlparser.skeleton import Skeleton, witness_segments

__all__ = ["QueryCache", "StructureCache", "MRUFragmentCache", "CacheStats"]


class CacheStats:
    """Hit/miss counters shared by the cache classes."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


class _LRUCache:
    """Bounded LRU map from string key to an arbitrary cached payload.

    Thread-safe: even a *read* mutates an LRU (``move_to_end`` rewires the
    recency list), so every operation takes the internal lock.  The lock is
    held only for the O(1) dict work -- never across analysis -- keeping
    the critical section in the nanosecond range (DESIGN.md section 10).
    """

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._store: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, key: str):
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                self.stats.hits += 1
                return self._store[key]
            self.stats.misses += 1
            return None

    def put(self, key: str, value) -> None:
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()

    def __len__(self) -> int:
        return len(self._store)


class QueryCache(_LRUCache):
    """Exact-query-string cache (an in-memory hashtable, IV-C.2).

    Stores ``(safe, critical_tokens)`` pairs: NTI "reuses the critical
    tokens and keywords previously obtained by the PTI Daemon" (Section
    IV-D), so a hit must hand the tokens back without re-lexing.
    """


class StructureCache(_LRUCache):
    """Skeleton-key cache (VI-A); stores proofs of safe verdicts only.

    An entry is ``(token count, rechecks)``: the number of critical tokens
    of the proven-safe instance, and ``(token index, fragment, offset of
    the occurrence before the token, fragment length)`` for every token
    whose coverage witness crossed a literal slot.  Every other witness
    lies inside one inter-literal segment, which skeleton-key equality
    makes byte-identical in any other instance, so it re-occurs with its
    token (see :func:`~repro.sqlparser.skeleton.witness_segments`).
    """

    def remember(
        self,
        skeleton: Skeleton,
        length: int,
        tokens: list,
        witnesses: list,
    ) -> None:
        """Record a safe analysis of a ``length``-character query."""
        placed = witness_segments(skeleton.slots, length, tokens, witnesses)
        if placed is None:
            return
        rechecks = tuple(
            (index, fragment, tokens[index].start - pos, len(fragment))
            for index, ((fragment, pos), (__, crosses)) in enumerate(
                zip(witnesses, placed)
            )
            if crosses
        )
        self.put(skeleton.key, (len(tokens), rechecks))

    def serves(self, key: str, query: str, tokens: list) -> bool:
        """Whether ``query`` (skeleton ``key``) is proven safe by an entry.

        Re-proves the entry's crossing witnesses against ``query``'s own
        critical ``tokens``; a missing entry or any failed re-proof counts
        as a miss, and the caller runs the full analysis.
        """
        with self._lock:
            entry = self._store.get(key)
            if entry is not None:
                count, rechecks = entry
                if len(tokens) == count:
                    startswith = query.startswith
                    for index, fragment, rel, flen in rechecks:
                        token = tokens[index]
                        pos = token.start - rel
                        if (
                            pos < 0
                            or token.end > pos + flen
                            or not startswith(fragment, pos)
                        ):
                            break
                    else:
                        self._store.move_to_end(key)
                        self.stats.hits += 1
                        return True
            self.stats.misses += 1
            return False


class MRUFragmentCache:
    """Move-to-front list of fragments that recently covered a token.

    Benign queries repeat the same small fragment working set, so trying
    these first lets most tokens match on the first few comparisons.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: list[str] = []
        self._lock = threading.Lock()

    def items(self) -> list[str]:
        """Fragments in most-recently-used-first order (stable copy)."""
        with self._lock:
            return list(self._items)

    def touch(self, fragment: str) -> None:
        """Record that ``fragment`` just matched; moves it to the front."""
        with self._lock:
            try:
                self._items.remove(fragment)
            except ValueError:
                pass
            self._items.insert(0, fragment)
            del self._items[self.capacity :]

    def prune(self, is_valid) -> bool:
        """Drop entries rejected by ``is_valid`` (fragment-store membership).

        Called by the analyzer's epoch guard after a store mutation: a
        removed fragment lingering in the MRU would keep "covering" critical
        tokens (containment checks consult only the query text, never store
        membership) -- stale trust that fails open.  Surviving fragments
        keep their recency order, so the working set is not cold-started by
        an unrelated add.  Returns ``True`` when anything was dropped.
        """
        with self._lock:
            kept = [fragment for fragment in self._items if is_valid(fragment)]
            changed = len(kept) != len(self._items)
            self._items = kept
            return changed

    def clear(self) -> None:
        with self._lock:
            self._items.clear()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, fragment: str) -> bool:
        return fragment in self._items
