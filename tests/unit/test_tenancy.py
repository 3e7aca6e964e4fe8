"""Unit tests for the sharded multi-tenant fragment state (tenancy/).

Covers the three layers of DESIGN.md section 13:

- interning: :class:`FragmentInterner` string canonicalisation and
  :class:`SharedBase` once-per-fleet derived state (index + automaton);
- composition: :class:`TenantStore` state parity with a dedicated
  single-tenant :class:`FragmentStore`, overlay mutations, detach
  semantics, warm overlay reloads;
- registry: :class:`TenantRegistry` topology, warm reloads and the
  fleet report.
"""

from __future__ import annotations

import pytest

from repro.pti.automaton import CompositeAutomaton, FragmentAutomaton
from repro.pti.fragments import FragmentStore
from repro.tenancy import (
    FragmentInterner,
    SharedBase,
    TenantRegistry,
    TenantStore,
)

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


def make_base(fragments=None, name="shared") -> SharedBase:
    return SharedBase(name, fragments or BASE)


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
    base = make_base(["a", "", "b", "a", "b"])
    assert base.fragments == ("a", "b")
    assert "a" in base.seen and "" not in base.seen


def test_shared_base_automaton_compiled_once_and_shared():
    base = make_base()
    assert base.stats()["automaton_compiled"] is False
    first = base.automaton()
    assert base.automaton() is first
    assert base.stats()["automaton_compiled"] is True
    assert base.stats()["automaton_nodes"] == first.node_count


# ---------------------------------------------------------------------------
# CompositeAutomaton
# ---------------------------------------------------------------------------


def test_composite_occurrences_match_monolithic_automaton():
    composed = tuple(BASE) + tuple(OVERLAY_A)
    composite = CompositeAutomaton(
        FragmentAutomaton(BASE),
        FragmentAutomaton(OVERLAY_A),
        composed,
        epoch=7,
    )
    monolithic = FragmentAutomaton(composed, epoch=7)
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
    assert not store.private


def test_tenant_store_state_parity_with_dedicated_store():
    """Seen-set, index buckets and automaton match a single-tenant store."""
    tenant = TenantStore(make_base(), OVERLAY_A, tenant_id="alpha")
    dedicated = FragmentStore(list(BASE) + list(OVERLAY_A))
    t_state, d_state = tenant.snapshot(), dedicated.snapshot()
    assert tuple(t_state.fragments) == tuple(d_state.fragments)
    assert set(t_state.seen) == set(d_state.seen)
    for key in d_state.index:
        assert tuple(t_state.index.get(key, ())) == tuple(
            d_state.index.get(key, ())
        )
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


def test_add_many_extends_overlay_and_bumps_epoch():
    store = TenantStore(make_base(), tenant_id="alpha")
    epoch = store.epoch
    store.add_many(["new fragment ", BASE[0], ""])  # base dup + empty skipped
    assert store.overlay == ("new fragment ",)
    assert store.epoch == epoch + 1
    assert not store.private


def test_remove_overlay_fragment_keeps_interned():
    store = TenantStore(make_base(), OVERLAY_A, tenant_id="alpha")
    assert store.remove(OVERLAY_A[0])
    assert not store.private
    assert store.fragments == tuple(BASE) + (OVERLAY_A[1],)


def test_remove_base_fragment_detaches_tenant():
    store = TenantStore(make_base(), OVERLAY_A, tenant_id="alpha")
    assert store.remove(BASE[0])
    assert store.private
    assert BASE[0] not in store.fragments
    assert OVERLAY_A[0] in store.fragments
    stats = store.tenancy_stats()
    assert stats["interned_fragments"] == 0
    assert stats["private_fragments"] == len(store.fragments)


def test_reload_keeping_base_stays_interned():
    store = TenantStore(make_base(), OVERLAY_A, tenant_id="alpha")
    store.reload(list(BASE) + ["fresh overlay "])
    assert not store.private
    assert store.overlay == ("fresh overlay ",)


def test_reload_dropping_base_detaches():
    store = TenantStore(make_base(), OVERLAY_A, tenant_id="alpha")
    store.reload(["only this "])
    assert store.private
    assert store.fragments == ("only this ",)
    with pytest.raises(RuntimeError):
        store.reload_overlay(["nope"])


def test_reload_overlay_warm_precompiles_before_swap():
    store = TenantStore(make_base(), OVERLAY_A, tenant_id="alpha")
    epoch = store.epoch
    store.reload_overlay(["storm overlay "], warm=True)
    state = store.snapshot()
    assert state.epoch == epoch + 1
    # Warm handoff: the composite automaton is already in the cell, no
    # first-query compile.
    assert state.automaton.peek() is not None
    auto, built_now = store.compiled_automaton()
    assert not built_now
    assert auto.epoch == state.epoch


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
    old_epoch = store.epoch
    new_epoch = registry.reload_tenant("alpha", ["reloaded "])
    assert new_epoch == registry.get("alpha").epoch > old_epoch
    assert registry.tenancy_report()["handoff_swaps"] == 1


def test_tenancy_report_shape():
    registry = TenantRegistry(BASE)
    registry.add_tenant("alpha", OVERLAY_A)
    registry.add_tenant("beta", OVERLAY_B)
    registry.get("beta").remove(BASE[0])  # detach beta
    report = registry.tenancy_report()
    assert report["tenants"] == 2
    assert report["detached_tenants"] == 1
    assert report["interned_fragments"] == len(BASE)  # alpha only
    assert report["private_fragments"] == (
        len(OVERLAY_A) + len(BASE) - 1 + len(OVERLAY_B)
    )
    assert report["bases"][0]["name"] == "shared"
    assert report["interner"]["unique_fragments"] > 0


# ---------------------------------------------------------------------------
# Engine integration (observability satellites)
# ---------------------------------------------------------------------------


def test_engine_reports_tenancy_sections():
    from repro.core import JozaEngine

    registry = TenantRegistry(BASE)
    store = registry.add_tenant("alpha", OVERLAY_A)
    engine = JozaEngine(store)
    report = engine.resilience_report()
    assert report["tenancy"]["tenant"] == "alpha"
    assert report["tenancy"]["interned_fragments"] == len(BASE)
    caches = engine.cache_stats()
    frag = caches["tenancy"]["fragments"]
    assert frag["interned"] == float(len(BASE))
    assert frag["private"] == float(len(OVERLAY_A))


def test_plain_store_engine_has_no_tenancy_section():
    from repro.core import JozaEngine

    engine = JozaEngine.from_fragments(BASE)
    assert "tenancy" not in engine.resilience_report()
    assert "tenancy" not in engine.cache_stats()
