"""TenantStore: a FragmentStore composed of shared base + private overlay.

Drop-in for :class:`~repro.pti.fragments.FragmentStore` everywhere the
engine, daemon and analyzers accept one -- same copy-on-write state
protocol, same epoch semantics, same lock-free readers -- but the state
it publishes *shares* the dominant structures with every sibling tenant:

- the fragment tuple is ``base.fragments + overlay`` (base ids
  ``0..B-1``, overlay ids offset by ``B``), so base *strings* and the
  base prefix layout are shared;
- the inverted index is a two-level view (:class:`_ComposedIndex`) over
  the shared base index plus a tiny overlay index -- base index
  positions are valid composed positions by construction;
- the compiled matcher is a
  :class:`~repro.pti.automaton.CompositeAutomaton` pairing the base
  automaton (compiled once per fleet) with the tenant's overlay
  automaton, injected through the state's
  :class:`~repro.pti.fragments.AutomatonCell` factory.

Per-tenant marginal memory is therefore O(overlay) plus one pointer
tuple, instead of a full copy of strings + index + automaton.

Mutations that cannot preserve the shared prefix -- removing a *base*
fragment, or a full :meth:`reload` that drops base fragments -- detach
the tenant: it degrades to a private, self-contained state (plain index,
plain automaton; strings still interner-shared).  Rare administrative
actions cost memory, never correctness.
"""

from __future__ import annotations

import threading
from typing import Iterable

from ..pti.automaton import CompositeAutomaton, FragmentAutomaton
from ..pti.fragments import AutomatonCell, FragmentStore, _build_index, _StoreState
from .interning import SharedBase

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
    (``state.index.get(key, ())`` in
    :meth:`FragmentStore.iter_candidates`); both levels hold positions
    into the *composed* fragment tuple, the base level natively (its
    positions are ``0..B-1``) and the overlay level pre-offset at build
    time.
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
    """One tenant's fragment vocabulary over a shared base (interned)."""

    def __init__(
        self,
        base: SharedBase,
        overlay: Iterable[str] = (),
        *,
        tenant_id: str = "",
    ) -> None:
        self.tenant_id = tenant_id
        self._base = base
        self._overlay: tuple[str, ...] = ()
        self._private = False
        # Intentionally NOT calling super().__init__: the initial state
        # must already be composed (base-backed), and add_many below runs
        # the tenant-aware path.
        self._mutation_lock = threading.RLock()
        self._state = self._compose((), 0)
        if overlay:
            self.add_many(overlay)

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    def _compose(self, overlay: tuple[str, ...], epoch: int) -> _StoreState:
        base = self._base
        overlay_index = {
            key: tuple(pos + len(base.fragments) for pos in positions)
            for key, positions in _build_index(overlay).items()
        }
        return _StoreState(
            base.fragments + overlay,
            _ComposedSeen(base.seen, frozenset(overlay)),
            _ComposedIndex(base.index, overlay_index),
            epoch,
            AutomatonCell(factory=self._composite_factory),
        )

    def _composite_factory(self, state: _StoreState) -> CompositeAutomaton:
        base_automaton = self._base.automaton()
        overlay = state.fragments[len(self._base.fragments) :]
        return CompositeAutomaton(
            base_automaton,
            FragmentAutomaton(overlay),
            state.fragments,
            epoch=state.epoch,
        )

    def _automaton_cell(self) -> AutomatonCell:
        # Hook used by inherited mutations (the detached/private path):
        # a private state compiles its own full automaton.
        return AutomatonCell()

    def _detach(self, fragments: Iterable[str], epoch: int) -> _StoreState:
        """Build a private (non-interned) successor state."""
        seen: set[str] = set()
        kept: list[str] = []
        for fragment in fragments:
            if fragment and fragment not in seen:
                seen.add(fragment)
                kept.append(fragment)
        self._private = True
        self._overlay = ()
        new_fragments = tuple(kept)
        return _StoreState(
            new_fragments,
            frozenset(seen),
            _build_index(new_fragments),
            epoch,
            AutomatonCell(),
        )

    # ------------------------------------------------------------------
    # Mutations (tenant-aware copy-on-write)
    # ------------------------------------------------------------------

    def add_many(self, fragments: Iterable[str]) -> None:
        with self._mutation_lock:
            if self._private:
                super().add_many(fragments)
                return
            state = self._state
            seen = state.seen
            batch: set[str] = set()
            added: list[str] = []
            for fragment in fragments:
                if not fragment or fragment in seen or fragment in batch:
                    continue
                batch.add(fragment)
                added.append(fragment)
            if not added:
                return
            self._overlay = self._overlay + tuple(added)
            self._state = self._compose(self._overlay, state.epoch + len(added))

    def remove(self, fragment: str) -> bool:
        with self._mutation_lock:
            if self._private:
                return super().remove(fragment)
            state = self._state
            if fragment in frozenset(self._overlay):
                self._overlay = tuple(f for f in self._overlay if f != fragment)
                self._state = self._compose(self._overlay, state.epoch + 1)
                return True
            if fragment in self._base.seen:
                # Revoking a *shared* fragment cannot be expressed as an
                # overlay; the tenant detaches to a private vocabulary.
                self._state = self._detach(
                    (f for f in state.fragments if f != fragment),
                    state.epoch + 1,
                )
                return True
            return False

    def reload(self, fragments: Iterable[str], *, warm: bool = False) -> None:
        with self._mutation_lock:
            if self._private:
                super().reload(fragments, warm=warm)
                return
            kept = [f for f in fragments if f]
            base_seen = self._base.seen
            if base_seen.issubset(kept):
                # The new vocabulary keeps the whole base: stay interned,
                # the delta becomes the overlay.
                self.reload_overlay(
                    (f for f in kept if f not in base_seen), warm=warm
                )
                return
            new_state = self._detach(kept, self._state.epoch + 1)
            if warm:
                new_state.automaton.get_or_build(new_state)
            self._state = new_state

    def reload_overlay(
        self, overlay: Iterable[str], *, warm: bool = True
    ) -> None:
        """Replace this tenant's plugin delta (the tenancy-native reload).

        With ``warm=True`` (the default -- reloads are the storm case)
        the successor composite automaton is compiled before the swap:
        readers keep draining on the old epoch for the entire build, and
        the first post-swap inspect finds a ready matcher.  Only the
        tenant's *overlay* automaton is actually compiled; the base part
        is the fleet-shared instance.
        """
        with self._mutation_lock:
            if self._private:
                raise RuntimeError(
                    f"tenant {self.tenant_id!r} is detached from its base; "
                    "use reload() with the full vocabulary"
                )
            state = self._state
            base_seen = self._base.seen
            seen: set[str] = set()
            kept: list[str] = []
            for fragment in overlay:
                if not fragment or fragment in base_seen or fragment in seen:
                    continue
                seen.add(fragment)
                kept.append(fragment)
            self._overlay = tuple(kept)
            new_state = self._compose(self._overlay, state.epoch + 1)
            if warm:
                new_state.automaton.get_or_build(new_state)
            self._state = new_state

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def base(self) -> SharedBase:
        return self._base

    @property
    def private(self) -> bool:
        """True once this tenant detached from its shared base."""
        return self._private

    @property
    def overlay(self) -> tuple[str, ...]:
        """The tenant's private delta (empty once detached)."""
        return self._overlay

    def tenancy_stats(self) -> dict[str, object]:
        """Interning effectiveness of this tenant's current state."""
        state = self._state
        if self._private:
            return {
                "tenant": self.tenant_id,
                "base": self._base.name,
                "private": True,
                "epoch": state.epoch,
                "fragments": len(state.fragments),
                "interned_fragments": 0,
                "private_fragments": len(state.fragments),
            }
        overlay = len(state.fragments) - len(self._base.fragments)
        return {
            "tenant": self.tenant_id,
            "base": self._base.name,
            "private": False,
            "epoch": state.epoch,
            "fragments": len(state.fragments),
            "interned_fragments": len(self._base.fragments),
            "private_fragments": overlay,
        }
