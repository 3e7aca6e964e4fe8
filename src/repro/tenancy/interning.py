"""Cross-tenant fragment interning: shared strings, shared compiled state.

Two levels of sharing, both exact (never lossy):

- :class:`FragmentInterner` canonicalises fragment *strings*: every
  tenant's ``" OR status = "`` is the same Python object, so even
  tenants with disjoint base sets share the bytes of their common
  fragments.
- :class:`SharedBase` canonicalises whole *vocabulary prefixes*: the
  fragment tuple, membership set, inverted index and compiled
  Aho-Corasick automaton of a base set exist once per fleet, referenced
  by every :class:`~repro.tenancy.store.TenantStore` built on it.  The
  automaton -- the dominant per-tenant memory and compile cost at paper
  scale -- is compiled lazily, once, the first time any tenant needs it.
"""

from __future__ import annotations

import threading
from typing import Iterable

from ..pti.automaton import FragmentAutomaton
from ..pti.fragments import _build_index

__all__ = ["FragmentInterner", "SharedBase"]


class FragmentInterner:
    """Process-wide canonical pool of fragment strings.

    ``sys.intern`` is wrong for this job: it interns forever (fragments
    outlive their tenants) and only handles lookup-friendly strings.  A
    plain dict keyed by value gives the same object-identity guarantee
    with an inspectable size.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pool: dict[str, str] = {}

    def intern(self, fragment: str) -> str:
        """The canonical object equal to ``fragment``."""
        with self._lock:
            return self._pool.setdefault(fragment, fragment)

    def intern_many(self, fragments: Iterable[str]) -> list[str]:
        """Canonicalise a batch under one lock acquisition."""
        pool = self._pool
        with self._lock:
            return [pool.setdefault(f, f) for f in fragments]

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "unique_fragments": len(self._pool),
                "unique_characters": sum(len(f) for f in self._pool),
            }


class SharedBase:
    """One immutable base vocabulary shared by many tenants.

    Holds exactly the derived state a :class:`~repro.pti.fragments
    .FragmentStore` would build per tenant -- fragment tuple, membership
    frozenset, inverted index, compiled automaton -- computed once and
    referenced everywhere.  Immutable by design: a different base set is
    a new :class:`SharedBase` (a new registry), never an in-place edit
    that would tear concurrent readers.
    """

    __slots__ = ("name", "fragments", "seen", "index", "_lock", "_automaton")

    def __init__(self, name: str, fragments: Iterable[str]) -> None:
        seen: set[str] = set()
        unique: list[str] = []
        for fragment in fragments:
            if fragment and fragment not in seen:
                seen.add(fragment)
                unique.append(fragment)
        self.name = name
        self.fragments: tuple[str, ...] = tuple(unique)
        self.seen = frozenset(seen)
        self.index = _build_index(self.fragments)
        self._lock = threading.Lock()
        self._automaton: FragmentAutomaton | None = None

    def __len__(self) -> int:
        return len(self.fragments)

    def automaton(self) -> FragmentAutomaton:
        """The base automaton; compiled on first use, once per fleet."""
        automaton = self._automaton
        if automaton is not None:
            return automaton
        with self._lock:
            if self._automaton is None:
                # Epoch 0: the base is immutable, so its automaton can
                # never go stale; per-tenant staleness is carried by the
                # composite's epoch, not the base's.
                self._automaton = FragmentAutomaton(self.fragments, epoch=0)
            return self._automaton

    def stats(self) -> dict[str, object]:
        automaton = self._automaton
        return {
            "name": self.name,
            "fragments": len(self.fragments),
            "characters": sum(len(f) for f in self.fragments),
            "indexed_tokens": len(self.index),
            "automaton_compiled": automaton is not None,
            "automaton_nodes": automaton.node_count if automaton else 0,
        }
