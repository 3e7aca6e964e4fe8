"""The guard's bounded caches, led by PTI's three (paper Sections IV-C, VI-A).

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

Every bounded map of the guard is one :class:`EpochLRU`: the two PTI caches
above, the shape plans and their doorkeeper window
(:class:`~repro.core.shapecache.ShapeCache`) and the NTI per-query cache
(:class:`~repro.nti.cache.NTIQueryCache`).

Caching safety by structure alone is *not* sound: PTI coverage depends on
the exact text between tokens (whitespace included) and, for a fragment
occurrence that spans a literal, on the literal's contents too.  A
whitespace-collapsing signature served ``... a = 7 OR  b = 7`` as safe after
``... a = 1 OR b = 2`` had been proven safe, although the fragment
``" OR b = "`` no longer occurs in it.  The structure cache is therefore
keyed by the whitespace-exact skeleton key
(:func:`~repro.sqlparser.skeletonize`), and each entry records the coverage
witnesses that cross a literal slot (:func:`witness_records`); a hit
re-proves those with one ``startswith`` each (:func:`witness_misses`) and
falls back to full analysis on any miss.  Shape plans keep and re-prove the
same records.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..sqlparser.skeleton import LiteralSlot, Skeleton

__all__ = [
    "PTI_CACHE_CAPACITY",
    "MRU_CAPACITY",
    "CacheStats",
    "EpochLRU",
    "QueryCache",
    "StructureCache",
    "MRUFragmentCache",
    "witness_records",
    "witness_misses",
]

#: Entries the daemon's query cache and structure cache each hold.
PTI_CACHE_CAPACITY = 10_000

#: Fragments the MRU list holds.
MRU_CAPACITY = 64

#: The epoch of a cache that has not been used since it was built; every
#: fragment-store epoch is newer.
_UNSYNCED = -1


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


class EpochLRU:
    """Bounded LRU map with one lock, hit/miss counters and an epoch.

    ``epoch`` is the fragment-store epoch the entries were computed under.
    Every read and write names the caller's epoch:

    - a newer epoch flushes the entries (counted in ``invalidations`` when
      any were dropped) and the cache moves to it;
    - a read under an older epoch is a miss and flushes nothing: the reader
      pinned its epoch before a store swap that another caller has already
      synced the cache to;
    - a write under an older epoch is refused (counted in ``stale_puts``):
      its entry was proven against a vocabulary that no longer exists.

    Every fragment store draws a distinct epoch, and a store built later
    draws a larger one (:attr:`~repro.pti.fragments.FragmentStore.epoch`),
    so these rules alone keep a swapped-out store's entries from serving
    the new store, and no swap needs to clear a cache.  Caches whose
    contents do not depend on the fragment store pass the default epoch
    throughout.  ``None`` is never stored: a ``None`` answer is a miss.

    Thread-safe: even a read mutates an LRU (``move_to_end`` rewires the
    recency list), so every operation takes the lock.  The lock is held
    only for the O(1) dict work and the caller's ``valid``/``make``
    callbacks, never across analysis (DESIGN.md section 10); the callbacks
    must not call back into the cache.
    """

    def __init__(self, capacity: int = PTI_CACHE_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.epoch = _UNSYNCED
        self.stats = CacheStats()
        self.invalidations = 0
        self.insertions = 0
        self.stale_puts = 0
        self._store: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def _sync(self, epoch: int) -> bool:
        """Move to ``epoch`` if it is newer; ``False`` if it is stale."""
        current = self.epoch
        if epoch == current:
            return True
        if epoch < current:
            return False
        if self._store:
            self.invalidations += 1
            self._store.clear()
        self.epoch = epoch
        return True

    def _insert(self, key, value) -> None:
        store = self._store
        store[key] = value
        store.move_to_end(key)
        self.insertions += 1
        if len(store) > self.capacity:
            store.popitem(last=False)

    def get(self, key, epoch: int = 0, valid=None):
        """The entry under ``key``, or ``None`` (counted as a miss).

        ``valid`` optionally vets a resident entry; a rejected entry counts
        as a miss and keeps its place in the recency order.
        """
        with self._lock:
            if self._sync(epoch):
                value = self._store.get(key)
                if value is not None and (valid is None or valid(value)):
                    self._store.move_to_end(key)
                    self.stats.hits += 1
                    return value
            self.stats.misses += 1
            return None

    def put(self, key, value, epoch: int = 0) -> bool:
        """Store ``value`` as the newest entry; ``False`` if refused as stale."""
        with self._lock:
            if not self._sync(epoch):
                self.stale_puts += 1
                return False
            self._insert(key, value)
            return True

    def setdefault(self, key, make, epoch: int = 0):
        """The entry under ``key``, created by ``make()`` when absent.

        One locked operation: a resident entry counts as a hit, a created
        one as a miss.  Under a stale epoch the created value is returned
        without being stored.
        """
        with self._lock:
            fresh = self._sync(epoch)
            if fresh:
                value = self._store.get(key)
                if value is not None:
                    self._store.move_to_end(key)
                    self.stats.hits += 1
                    return value
            self.stats.misses += 1
            value = make()
            if fresh:
                self._insert(key, value)
            else:
                self.stale_puts += 1
            return value

    def pop(self, key):
        """Remove and return the entry under ``key`` (``None``); uncounted."""
        with self._lock:
            return self._store.pop(key, None)

    def snapshot_stats(self) -> dict[str, float]:
        """One consistent reading of the counters (bench-reporting floats).

        ``epoch`` is the fragment-store epoch the cache is synced to (-1
        before first use).  Under a tenant reload storm this is how an
        operator correlates cache flushes with warm handoffs:
        ``invalidations`` should track handoff swaps, and ``epoch`` should
        equal the tenant store's.
        """
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
                "epoch": float(self.epoch),
            }

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key) -> bool:
        return key in self._store


def witness_records(
    slots: tuple[LiteralSlot, ...],
    length: int,
    tokens,
    witnesses,
) -> tuple[tuple[int, ...], tuple[tuple[int, str, int, int], ...]] | None:
    """Place each token's coverage witness relative to the literal slots.

    ``slots`` are the skeleton slots of a query of ``length`` characters;
    ``witnesses`` holds one ``(fragment, occurrence start)`` pair per
    token (PTI's coverage witness).  Returns ``(segments, records)``:

    - ``segments[i]`` is the index of the inter-literal segment holding
      token ``i`` (= number of slots entirely before it);
    - ``records`` holds ``(token index, fragment, offset, length)`` for
      every token whose witness occurrence reaches outside that segment,
      ``offset`` being the token's start minus the occurrence's.

    A contained occurrence re-occurs, shifted rigidly with its token, in
    every query with the same skeleton key; a crossing one depends on
    literal text and must be re-proven per query (:func:`witness_misses`).
    Returns ``None`` when a token overlaps a slot or has no witness: no
    reusable coverage proof exists.
    """
    nslots = len(slots)
    segments: list[int] = []
    records: list[tuple[int, str, int, int]] = []
    seg = 0
    for index, (token, witness) in enumerate(zip(tokens, witnesses)):
        while seg < nslots and slots[seg].end <= token.start:
            seg += 1
        if witness is None or (seg < nslots and token.end > slots[seg].start):
            return None
        fragment, pos = witness
        seg_start = slots[seg - 1].end if seg else 0
        seg_end = slots[seg].start if seg < nslots else length
        if pos < seg_start or pos + len(fragment) > seg_end:
            records.append((index, fragment, token.start - pos, len(fragment)))
        segments.append(seg)
    return tuple(segments), tuple(records)


def witness_misses(query: str, records, tokens) -> list[int]:
    """Indices of the recorded tokens whose witness does not hold in ``query``.

    ``tokens`` are ``query``'s own critical tokens.  A record holds when
    its fragment occurs verbatim at the recorded offset before the token
    and that occurrence contains the token -- exactly PTI's coverage
    condition, so an empty answer re-proves every record.  A miss means
    "unknown": the caller searches the fragments or analyses in full.
    """
    startswith = query.startswith
    missed: list[int] = []
    for index, fragment, offset, flen in records:
        token = tokens[index]
        pos = token.start - offset
        if pos < 0 or token.end > pos + flen or not startswith(fragment, pos):
            missed.append(index)
    return missed


class QueryCache(EpochLRU):
    """Exact-query-string cache (an in-memory hashtable, IV-C.2).

    Stores the :class:`~repro.pti.daemon.DaemonReply` a hit returns: the
    PTI result with its detections, and the critical tokens, because NTI
    "reuses the critical tokens and keywords previously obtained by the
    PTI Daemon" (Section IV-D), so a hit must hand them back without
    re-lexing.
    """


class StructureCache(EpochLRU):
    """Skeleton-key cache (VI-A); stores proofs of safe verdicts only.

    An entry is ``(token count, records)``: the number of critical tokens
    of the proven-safe instance and its slot-crossing witness records
    (:func:`witness_records`).  Every other witness lies inside one
    inter-literal segment, which skeleton-key equality makes byte-identical
    in any other instance, so it re-occurs with its token.
    """

    def remember(
        self,
        skeleton: Skeleton,
        length: int,
        tokens: list,
        witnesses: list,
        epoch: int = 0,
    ) -> None:
        """Record a safe analysis of a ``length``-character query."""
        placed = witness_records(skeleton.slots, length, tokens, witnesses)
        if placed is not None:
            self.put(skeleton.key, (len(tokens), placed[1]), epoch)

    def serves(self, key: str, query: str, tokens: list, epoch: int = 0) -> bool:
        """Whether ``query`` (skeleton ``key``) is proven safe by an entry.

        Re-proves the entry's crossing witnesses against ``query``'s own
        critical ``tokens``; a missing entry or any failed re-proof counts
        as a miss, and the caller runs the full analysis.
        """
        count = len(tokens)
        return (
            self.get(
                key,
                epoch,
                lambda entry: entry[0] == count
                and not witness_misses(query, entry[1], tokens),
            )
            is not None
        )


class MRUFragmentCache:
    """Move-to-front list of fragments that recently covered a token.

    Benign queries repeat the same small fragment working set, so trying
    these first lets most tokens match on the first few comparisons.  The
    list belongs to one analyzer, and so to one immutable store: every
    fragment in it stays trusted for the list's whole life.
    """

    def __init__(self, capacity: int = MRU_CAPACITY) -> None:
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

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, fragment: str) -> bool:
        return fragment in self._items
