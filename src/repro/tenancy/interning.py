"""Cross-tenant fragment interning: one object per fragment string.

:class:`FragmentInterner` canonicalises fragment *strings*: every
tenant's ``" OR status = "`` is the same Python object, so even overlays
of different tenants share the bytes of their common fragments.  The
other level of sharing -- one base vocabulary with its index and
automaton -- is the registry's base
:class:`~repro.pti.fragments.FragmentStore`, which every
:class:`~repro.tenancy.store.TenantStore` composes.
"""

from __future__ import annotations

import threading
from typing import Iterable

__all__ = ["FragmentInterner"]


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
