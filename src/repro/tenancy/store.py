"""TenantStore: a FragmentStore composed of shared base + private overlay.

Drop-in for :class:`~repro.pti.fragments.FragmentStore` everywhere the
engine, daemon and analyzers accept one -- immutable like every store,
with its own epoch -- but it *shares* the dominant structures with every
sibling tenant:

- the fragment tuple is ``base.fragments + overlay`` (base ids
  ``0..B-1``, overlay ids offset by ``B``), so base *strings* and the
  base prefix layout are shared;
- the inverted index is a two-level view (:class:`_ComposedIndex`) over
  the shared base index plus a tiny overlay index -- base index
  positions are valid composed positions by construction;
- the compiled matcher is a
  :class:`~repro.pti.automaton.CompositeAutomaton` pairing the base
  store's automaton (compiled once per fleet) with the tenant's overlay
  automaton.

Per-tenant marginal memory is therefore O(overlay) plus one pointer
tuple, instead of a full copy of strings + index + automaton.  A new
overlay is a new :class:`TenantStore` over the same base
(:meth:`~repro.tenancy.registry.TenantRegistry.reload_tenant`).
"""

from __future__ import annotations

from typing import Iterable

from ..pti.automaton import CompositeAutomaton, FragmentAutomaton
from ..pti.fragments import FragmentStore, _dedupe_and_index

__all__ = ["TenantStore"]


class _ComposedSeen:
    """Membership view over base seen-set plus overlay seen-set."""

    __slots__ = ("base", "overlay")

    def __init__(self, base: frozenset, overlay: frozenset) -> None:
        self.base = base
        self.overlay = overlay

    def __contains__(self, fragment: object) -> bool:
        return fragment in self.base or fragment in self.overlay

    def __len__(self) -> int:
        return len(self.base) + len(self.overlay)

    def __iter__(self):
        yield from self.base
        yield from self.overlay


class _ComposedIndex:
    """Inverted-index view: shared base buckets + offset overlay buckets.

    Quacks like the plain dict index where readers consume it
    (``index.get(key, ())`` in :meth:`FragmentStore.iter_candidates`);
    both levels hold positions into the *composed* fragment tuple, the
    base level natively (its positions are ``0..B-1``) and the overlay
    level pre-offset at build time.
    """

    __slots__ = ("base", "overlay")

    def __init__(self, base: dict, overlay: dict) -> None:
        self.base = base
        self.overlay = overlay

    def get(self, key: str, default=()):
        base_hit = self.base.get(key)
        overlay_hit = self.overlay.get(key)
        if overlay_hit is None:
            return base_hit if base_hit is not None else default
        if base_hit is None:
            return overlay_hit
        return base_hit + overlay_hit

    def __contains__(self, key: str) -> bool:
        return key in self.base or key in self.overlay

    def __len__(self) -> int:
        extra = sum(1 for key in self.overlay if key not in self.base)
        return len(self.base) + extra


class TenantStore(FragmentStore):
    """One tenant's fragment vocabulary over a shared base store."""

    def __init__(
        self,
        base: FragmentStore,
        overlay: Iterable[str] = (),
        *,
        tenant_id: str = "",
    ) -> None:
        self.tenant_id = tenant_id
        self._base = base
        # Overlay fragments the base already holds are dropped: the
        # composed vocabulary stays duplicate-free.
        overlay, seen, index = _dedupe_and_index(
            overlay, skip=base._seen, offset=len(base)
        )
        self._overlay = overlay
        self._publish(
            base.fragments + overlay,
            _ComposedSeen(base._seen, seen),
            _ComposedIndex(base._index, index),
        )

    def _compile_automaton(self) -> CompositeAutomaton:
        base_automaton, _ = self._base.compiled_automaton()
        return CompositeAutomaton(
            base_automaton, FragmentAutomaton(self._overlay), self._fragments
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def base(self) -> FragmentStore:
        return self._base

    @property
    def overlay(self) -> tuple[str, ...]:
        """The tenant's private delta (fragments the base does not hold)."""
        return self._overlay

    def stats(self) -> dict[str, object]:
        """The store's statistics plus its interning effectiveness."""
        return {
            **super().stats(),
            "tenant": self.tenant_id,
            "epoch": self.epoch,
            "interned_fragments": len(self._base),
            "private_fragments": len(self._overlay),
        }
