"""TenantRegistry: tenant-id -> fragment store over one shared base.

Maps tenant-id -> :class:`~repro.tenancy.store.TenantStore`, each
composed over the registry's one interned base
:class:`~repro.pti.fragments.FragmentStore` (DESIGN.md section 13).  A
gateway worker child builds one registry and one engine per tenant;
:meth:`TenantRegistry.reload_tenant` is the warm handoff it runs when the
gateway pushes a tenant's new overlay: it builds the successor store and
its composite automaton off-path, and the worker swaps the store into
the tenant's engine.  The gateway owns replication and durability: it
packs one snapshot frame per reload, pushes it to every worker and
journals the overlay in its durable state.
"""

from __future__ import annotations

import threading
from typing import Iterable

from ..pti.fragments import FragmentStore
from .interning import FragmentInterner
from .store import TenantStore

__all__ = ["TenantRegistry"]


class TenantRegistry:
    """Tenant-id -> fragment store over one interned base."""

    def __init__(self, base_fragments: Iterable[str] = ()) -> None:
        self.interner = FragmentInterner()
        self._lock = threading.Lock()
        self._base = FragmentStore(self.interner.intern_many(base_fragments))
        self._tenants: dict[str, TenantStore] = {}
        self.handoff_swaps = 0

    def add_tenant(
        self, tenant_id: str, overlay: Iterable[str] = ()
    ) -> TenantStore:
        """Provision one tenant over the shared base plus its plugin delta."""
        overlay = self.interner.intern_many(overlay)
        with self._lock:
            if tenant_id in self._tenants:
                raise ValueError(f"tenant {tenant_id!r} already registered")
            store = TenantStore(self._base, overlay, tenant_id=tenant_id)
            self._tenants[tenant_id] = store
            return store

    def reload_tenant(
        self, tenant_id: str, overlay: Iterable[str]
    ) -> TenantStore:
        """Warm handoff of one tenant's overlay; returns the new store.

        The successor store and its composite automaton are built before
        the map entry is replaced, so the first inspect against it pays
        no compile.  The caller swaps the store into the tenant's engine
        (``engine.daemon.refresh_fragments(store)``); inspects in flight
        finish on the old store.
        """
        if tenant_id not in self:
            raise KeyError(f"unknown tenant {tenant_id!r}")
        store = TenantStore(
            self._base, self.interner.intern_many(overlay), tenant_id=tenant_id
        )
        store.compiled_automaton()
        with self._lock:
            self._tenants[tenant_id] = store
            self.handoff_swaps += 1
        return store

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    @property
    def base(self) -> FragmentStore:
        """The shared base vocabulary every tenant composes."""
        return self._base

    def get(self, tenant_id: str) -> TenantStore:
        with self._lock:
            return self._tenants[tenant_id]

    def __contains__(self, tenant_id: str) -> bool:
        with self._lock:
            return tenant_id in self._tenants

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def tenant_ids(self) -> list[str]:
        with self._lock:
            return list(self._tenants)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def tenancy_report(self) -> dict[str, object]:
        """Fleet-state section of a gateway worker's report."""
        with self._lock:
            tenants = list(self._tenants.values())
            handoff_swaps = self.handoff_swaps
        return {
            "tenants": len(tenants),
            "base": self._base.stats(),
            "handoff_swaps": handoff_swaps,
            "interned_fragments": sum(len(store.base) for store in tenants),
            "private_fragments": sum(len(store.overlay) for store in tenants),
            "interner": self.interner.stats(),
        }
