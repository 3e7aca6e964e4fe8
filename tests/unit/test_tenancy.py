"""Unit tests for the sharded multi-tenant fragment state (tenancy/).

Covers the three layers of DESIGN.md section 13:

- interning: :class:`FragmentInterner` string canonicalisation and the
  base store's once-per-fleet derived state (index + automaton);
- composition: :class:`TenantStore` state parity with a dedicated
  single-tenant :class:`FragmentStore`;
- registry: :class:`TenantRegistry` topology, warm reloads (a new store
  per reload) and the fleet report.
"""

from __future__ import annotations

import pytest

from repro.pti.automaton import CompositeAutomaton, FragmentAutomaton
from repro.pti.fragments import FragmentStore, fragment_index_keys
from repro.tenancy import FragmentInterner, TenantRegistry, TenantStore

BASE = [
    "SELECT * FROM wp_posts WHERE ID = ",
    "SELECT * FROM wp_users WHERE user_login = '",
    " ORDER BY post_date DESC",
    " LIMIT ",
    " AND post_status = 'publish'",
    "SELECT option_value FROM wp_options WHERE option_name = '",
]
OVERLAY_A = ["SELECT * FROM plugin_alpha WHERE slot = ", " AND alpha = 1"]
OVERLAY_B = ["SELECT * FROM plugin_beta WHERE tag = '"]


def make_base(fragments=None) -> FragmentStore:
    return FragmentStore(fragments or BASE)


# ---------------------------------------------------------------------------
# Interning
# ---------------------------------------------------------------------------


def test_interner_returns_canonical_objects():
    interner = FragmentInterner()
    first = interner.intern("SELECT " + "x")
    second = interner.intern("SELECT" + " x")
    assert first is second
    assert interner.stats()["unique_fragments"] == 1


def test_intern_many_batches_under_one_identity():
    interner = FragmentInterner()
    a = interner.intern_many(["one", "two"])
    b = interner.intern_many(["two" + "", "three"])
    assert a[1] is b[0]
    assert interner.stats()["unique_fragments"] == 3


def test_shared_base_dedupes_and_drops_empties():
    base = TenantRegistry(["a", "", "b", "a", "b"]).base
    assert base.fragments == ("a", "b")
    assert "a" in base and "" not in base


def test_shared_base_automaton_compiled_once_and_shared():
    registry = TenantRegistry(BASE)
    alpha = registry.add_tenant("alpha", OVERLAY_A)
    beta = registry.add_tenant("beta", OVERLAY_B)
    auto_a, _ = alpha.compiled_automaton()
    auto_b, _ = beta.compiled_automaton()
    base_automaton, built_now = registry.base.compiled_automaton()
    assert not built_now  # alpha's composite compiled it; beta reused it
    assert auto_a.base is auto_b.base is base_automaton


# ---------------------------------------------------------------------------
# CompositeAutomaton
# ---------------------------------------------------------------------------


def test_composite_occurrences_match_monolithic_automaton():
    composed = tuple(BASE) + tuple(OVERLAY_A)
    composite = CompositeAutomaton(
        FragmentAutomaton(BASE), FragmentAutomaton(OVERLAY_A), composed
    )
    monolithic = FragmentAutomaton(composed)
    text = (
        "SELECT * FROM plugin_alpha WHERE slot = 3 AND alpha = 1 "
        "UNION SELECT * FROM wp_posts WHERE ID = 9 LIMIT 5"
    )
    # Two-pass scan order differs; the occurrence *set* must not.
    assert sorted(composite.occurrences(text)) == sorted(
        monolithic.occurrences(text)
    )


def test_composite_rejects_mismatched_fragment_tuple():
    with pytest.raises(ValueError):
        CompositeAutomaton(
            FragmentAutomaton(BASE),
            FragmentAutomaton(OVERLAY_A),
            tuple(OVERLAY_A) + tuple(BASE),  # wrong order
        )


# ---------------------------------------------------------------------------
# TenantStore: composition parity
# ---------------------------------------------------------------------------


def test_tenant_store_is_base_plus_overlay_in_order():
    store = TenantStore(make_base(), OVERLAY_A, tenant_id="alpha")
    assert store.fragments == tuple(BASE) + tuple(OVERLAY_A)
    assert store.overlay == tuple(OVERLAY_A)
    # Base duplicates, repeats and empties never enter the overlay.
    store = TenantStore(make_base(), ["new ", BASE[0], "", "new "])
    assert store.overlay == ("new ",)


def test_tenant_store_state_parity_with_dedicated_store():
    """Membership, index buckets and automaton match a single-tenant store."""
    tenant = TenantStore(make_base(), OVERLAY_A, tenant_id="alpha")
    dedicated = FragmentStore(list(BASE) + list(OVERLAY_A))
    assert tenant.fragments == dedicated.fragments
    assert all(fragment in tenant for fragment in dedicated)
    keys = {k for fragment in dedicated for k in fragment_index_keys(fragment)}
    for key in keys:
        assert tenant.candidates_for(key) == dedicated.candidates_for(key)
    text = "SELECT * FROM plugin_alpha WHERE slot = 1 AND alpha = 1"
    t_auto, _ = tenant.compiled_automaton()
    d_auto, _ = dedicated.compiled_automaton()
    assert sorted(t_auto.occurrences(text)) == sorted(d_auto.occurrences(text))


def test_tenant_automaton_shares_fleet_base_automaton():
    base = make_base()
    alpha = TenantStore(base, OVERLAY_A, tenant_id="alpha")
    beta = TenantStore(base, OVERLAY_B, tenant_id="beta")
    auto_a, _ = alpha.compiled_automaton()
    auto_b, _ = beta.compiled_automaton()
    assert isinstance(auto_a, CompositeAutomaton)
    assert auto_a.base is auto_b.base  # compiled once per fleet
    assert auto_a.overlay is not auto_b.overlay


# ---------------------------------------------------------------------------
# TenantRegistry: topology + warm reloads
# ---------------------------------------------------------------------------


def test_registry_topology_and_duplicate_guards():
    registry = TenantRegistry(BASE)
    registry.add_tenant("alpha", OVERLAY_A)
    registry.add_tenant("beta", OVERLAY_B)
    assert len(registry) == 2
    assert "alpha" in registry and "ghost" not in registry
    assert sorted(registry.tenant_ids()) == ["alpha", "beta"]
    with pytest.raises(ValueError):
        registry.add_tenant("alpha")


def test_registry_interns_overlays_across_tenants():
    registry = TenantRegistry(BASE)
    shared_plugin = "SELECT * FROM shared_plugin WHERE k = "
    a = registry.add_tenant("alpha", [shared_plugin])
    b = registry.add_tenant("beta", [shared_plugin + ""])
    assert a.overlay[0] is b.overlay[0]


def test_reload_tenant_returns_new_epoch_and_counts_handoff_swaps():
    registry = TenantRegistry(BASE)
    store = registry.add_tenant("alpha", OVERLAY_A)
    # The new epoch comes with the new store reload_tenant returns.
    reloaded = registry.reload_tenant("alpha", ["reloaded "])
    assert reloaded is registry.get("alpha") and reloaded is not store
    assert reloaded.epoch > store.epoch
    assert reloaded.fragments == tuple(BASE) + ("reloaded ",)
    assert store.fragments == tuple(BASE) + tuple(OVERLAY_A)  # untouched
    assert registry.tenancy_report()["handoff_swaps"] == 1
    with pytest.raises(KeyError):
        registry.reload_tenant("ghost", [])


def test_remove_overlay_fragment_keeps_interned():
    registry = TenantRegistry(BASE)
    registry.add_tenant("alpha", OVERLAY_A)
    store = registry.reload_tenant("alpha", OVERLAY_A[1:])
    assert store.base is registry.base
    assert store.fragments == tuple(BASE) + (OVERLAY_A[1],)
    assert store.stats()["interned_fragments"] == len(BASE)


def test_reload_keeping_base_stays_interned():
    registry = TenantRegistry(BASE)
    registry.add_tenant("alpha", OVERLAY_A)
    # An overlay repeating base fragments keeps only its delta.
    store = registry.reload_tenant("alpha", list(BASE) + ["fresh overlay "])
    assert store.base is registry.base
    assert store.overlay == ("fresh overlay ",)


def test_reload_tenant_precompiles_before_swap():
    registry = TenantRegistry(BASE)
    registry.add_tenant("alpha", OVERLAY_A)
    store = registry.reload_tenant("alpha", ["storm overlay "])
    # Warm handoff: the composite automaton is already compiled, so the
    # first query against the new store pays no compile.
    automaton, built_now = store.compiled_automaton()
    assert not built_now
    assert isinstance(automaton, CompositeAutomaton)
    assert automaton.fragments == store.fragments


def test_stores_of_one_registry_get_distinct_increasing_epochs():
    registry = TenantRegistry(BASE)
    alpha = registry.add_tenant("alpha", OVERLAY_A)
    beta = registry.add_tenant("beta", OVERLAY_A)
    assert alpha.fragments == beta.fragments
    assert registry.base.epoch < alpha.epoch < beta.epoch
    assert registry.reload_tenant("alpha", OVERLAY_A).epoch > beta.epoch


def test_tenancy_report_shape():
    registry = TenantRegistry(BASE)
    registry.add_tenant("alpha", OVERLAY_A)
    registry.add_tenant("beta", OVERLAY_B)
    report = registry.tenancy_report()
    assert report["tenants"] == 2
    assert report["interned_fragments"] == 2 * len(BASE)
    assert report["private_fragments"] == len(OVERLAY_A) + len(OVERLAY_B)
    assert report["base"]["fragments"] == len(BASE)
    assert report["interner"]["unique_fragments"] > 0


# ---------------------------------------------------------------------------
# Engine integration (observability satellites)
# ---------------------------------------------------------------------------


def test_engine_reports_tenancy_sections():
    from repro.core import JozaEngine

    registry = TenantRegistry(BASE)
    store = registry.add_tenant("alpha", OVERLAY_A)
    engine = JozaEngine(store)
    section = engine.resilience_report()["store"]
    assert section == store.stats()
    assert section["tenant"] == "alpha"
    assert section["epoch"] == store.epoch
    assert section["fragments"] == len(BASE) + len(OVERLAY_A)
    assert section["interned_fragments"] == len(BASE)
    assert section["private_fragments"] == len(OVERLAY_A)
    # Store fields are not cache readings: reported once.
    assert "tenancy" not in engine.cache_stats()


def test_plain_store_engine_has_no_tenancy_section():
    from repro.core import JozaEngine

    engine = JozaEngine.from_fragments(BASE)
    report = engine.resilience_report()
    assert "tenancy" not in report
    # Every engine reports its store; only a TenantStore adds tenant fields.
    assert report["store"] == engine.store.stats()
    assert report["store"]["fragments"] == len(BASE)
    assert "tenant" not in report["store"]
    assert "tenancy" not in engine.cache_stats()
