"""Per-query NTI cache, mirroring the PTI query cache (paper Section IV-C.2).

The PTI side caches *query -> verdict* because "many queries of a web
application are constant".  NTI work is keyed by the same query string:
the query's pruning tables (:class:`~repro.matching.substring.TextProfile`)
depend on the query alone, and every substring-match result is a pure
function of ``(input value, query)`` plus the analyzer's fixed threshold
and matcher.  One bounded LRU keyed by query therefore holds both:

- :class:`NTIQueryEntry` -- the query's ``TextProfile`` (built lazily, the
  first time an input gets past the exact-containment short circuit) and
  a plain ``dict`` from input value to the
  :class:`~repro.matching.ratio.RatioMatch`, or ``None`` for a proven
  non-match.  Negative results are cached too: benign traffic is the
  common case, and a cached "no match" skips the whole pruning-plus-scan
  pipeline.
- :class:`NTIQueryCache` -- the LRU of entries, an
  :class:`~repro.pti.caches.EpochLRU` at its default epoch (nothing here
  depends on the fragment store).  An analysis locks and touches it once
  per query (:meth:`NTIQueryCache.entry`), then reads and writes the
  entry's dict without further locking, so a query whose inputs never
  recur pays one dict lookup per candidate instead of two locked LRU
  operations.

Concurrency: two threads analysing the same query share one entry.  Every
write stores a value any other writer would also have computed (the
results are pure and ``RatioMatch``/``SubstringMatch`` are frozen), and
single dict-slot assignments are atomic under the GIL, so the worst
interleaving costs a recomputation, never a wrong result.
"""

from __future__ import annotations

from itertools import islice

from ..matching.ratio import RatioMatch
from ..matching.substring import TextProfile
from ..pti.caches import EpochLRU

__all__ = ["NTIQueryCache", "NTIQueryEntry", "MAX_INPUTS_PER_QUERY"]

#: Bound on the input results one entry memoises.  A constant query sees
#: the inputs of every request, so its dict would otherwise grow without
#: limit; past the bound the oldest results are dropped first.
MAX_INPUTS_PER_QUERY = 256


class NTIQueryEntry:
    """Everything NTI has computed for one query string."""

    __slots__ = ("profile", "matches")

    def __init__(self) -> None:
        self.profile: TextProfile | None = None
        self.matches: dict[str, RatioMatch | None] = {}

    def trim(self) -> None:
        """Drop the oldest input results beyond :data:`MAX_INPUTS_PER_QUERY`."""
        matches = self.matches
        excess = len(matches) - MAX_INPUTS_PER_QUERY
        if excess > 0:
            for value in list(islice(matches, excess)):
                matches.pop(value, None)


class NTIQueryCache(EpochLRU):
    """Bounded LRU: query string -> :class:`NTIQueryEntry`.

    ``capacity`` counts queries.  Hits and misses count per query: a hit
    means the query's entry was resident, so its profile and any input
    results it holds were reused.
    """

    def entry(self, query: str) -> NTIQueryEntry:
        """The query's entry, created (and counted as a miss) when absent."""
        return self.setdefault(query, NTIQueryEntry)
