"""TenantRegistry: tenant-id -> versioned fragment store over one base.

Maps tenant-id -> :class:`~repro.tenancy.store.TenantStore`, each
composed over the registry's one interned
:class:`~repro.tenancy.interning.SharedBase` (DESIGN.md section 13).  A
gateway worker child builds one registry and one engine per tenant;
:meth:`TenantRegistry.reload_tenant` is the warm handoff it runs when the
gateway pushes a tenant's new overlay (successor state and composite
automaton compiled off-path, then an atomic swap).  The gateway owns
replication and durability: it packs one snapshot frame per reload,
pushes it to every worker and journals the overlay in its durable state.
"""

from __future__ import annotations

import threading
from typing import Iterable

from .interning import FragmentInterner, SharedBase
from .store import TenantStore

__all__ = ["TenantRegistry"]


class TenantRegistry:
    """Tenant-id -> versioned fragment store over one interned base."""

    def __init__(self, base_fragments: Iterable[str] = ()) -> None:
        self.interner = FragmentInterner()
        self._lock = threading.Lock()
        self._base = SharedBase(
            "shared", self.interner.intern_many(base_fragments)
        )
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
        self, tenant_id: str, overlay: Iterable[str], *, warm: bool = True
    ) -> int:
        """Warm-handoff reload of one tenant's overlay; returns the new epoch.

        With ``warm`` the successor state and its composite automaton are
        built before the atomic swap, so in-flight inspects finish on the
        old epoch and the first one after the swap finds a ready matcher.
        """
        store = self.get(tenant_id)
        store.reload_overlay(self.interner.intern_many(overlay), warm=warm)
        with self._lock:
            self.handoff_swaps += 1
        return store.epoch

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

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
            report: dict[str, object] = {
                "tenants": len(tenants),
                "bases": [self._base.stats()],
                "handoff_swaps": self.handoff_swaps,
            }
        interned = 0
        private = 0
        detached = 0
        for store in tenants:
            stats = store.tenancy_stats()
            interned += stats["interned_fragments"]
            private += stats["private_fragments"]
            detached += 1 if stats["private"] else 0
        report["interned_fragments"] = interned
        report["private_fragments"] = private
        report["detached_tenants"] = detached
        report["interner"] = self.interner.stats()
        return report
