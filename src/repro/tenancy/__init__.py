"""Multi-tenant fragment state: interning, overlays, warm reloads.

The paper deploys one PTI daemon per application; the ROADMAP north star
is a fleet.  At fleet scale the fragment vocabulary grows a *tenant*
dimension -- each tenant (site, application instance) trusts its own
fragment set -- with two structural facts this package exploits
(DESIGN.md section 13):

1. **Tenants overwhelmingly share their vocabulary.**  A WordPress fleet
   runs byte-identical core code on every site; only the plugin delta
   differs.  :class:`SharedBase` stores (and compiles) the common base
   exactly once -- one fragment tuple, one inverted index, one
   Aho-Corasick automaton -- and every :class:`TenantStore` composes it
   with a small per-tenant overlay.  Memory and compile time per tenant
   shrink from O(vocabulary) to O(plugin delta).

2. **Reloads must not stall serving.**  A tenant's fragment reload (plugin
   update) builds the successor state *and its automaton* off-path and
   swaps atomically; in-flight inspects drain on the old epoch.

:class:`TenantRegistry` ties both together inside each gateway worker: it
owns the interner, the one shared base and the tenant stores, performs
the warm handoff and reports the fleet state (``tenancy_report``).  The
gateway is the only writer and replicator of tenant overlays: it packs
one snapshot frame (:func:`repro.pti.wire.pack_store_snapshot`) per
reload, pushes it to every worker and journals the overlay in its durable
state.
"""

from .interning import FragmentInterner, SharedBase
from .registry import TenantRegistry
from .store import TenantStore

__all__ = [
    "FragmentInterner",
    "SharedBase",
    "TenantRegistry",
    "TenantStore",
]
