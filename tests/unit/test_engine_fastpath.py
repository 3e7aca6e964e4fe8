"""Unit tests for the query-shape fast path wired into the engine.

Covers hit/miss/plant accounting, NTI still running on shape hits, unsafe
shapes never being cached, vocabulary changes (store swaps) provably
invalidating cached PTI coverage -- including a swap racing a plan plant
--, and the unified ``cache_stats()`` introspection surface.  Plans are
admitted on a shape's second clean sighting, so every test that needs a
plan warms its shape twice.
"""

from repro.core import (
    EngineStats,
    JozaConfig,
    JozaEngine,
    ShapeCacheConfig,
    Technique,
)
from repro.phpapp.context import CapturedInput, RequestContext
from repro.pti import FragmentStore, PTIDaemon
from tests.support.concurrency import MarkerFaultDaemon

FRAGMENTS = ["SELECT * FROM records WHERE ID=", " LIMIT 5", " OR ", " = "]


def ctx(*values):
    return RequestContext(
        inputs=[CapturedInput("get", f"p{i}", v) for i, v in enumerate(values)]
    )


# ---------------------------------------------------------------------------
# Hit / miss / plant accounting
# ---------------------------------------------------------------------------


def test_shape_hit_serves_plan_verdict_and_counts():
    engine = JozaEngine.from_fragments(FRAGMENTS)
    query = "SELECT * FROM records WHERE ID=1 LIMIT 5"
    first = engine.inspect(query, ctx("1"))
    assert first.safe and first.pti.from_cache is None
    assert engine.stats.shape_plans_built == 0  # first sighting: deferred
    engine.inspect(query, ctx("1"))  # second sighting plants the plan
    assert engine.stats.shape_misses == 2
    assert engine.stats.shape_plans_built == 1

    # Same shape, different literal: served by the plan, not the daemon.
    second = engine.inspect("SELECT * FROM records WHERE ID=42 LIMIT 5", ctx("42"))
    assert second.safe
    assert second.pti.from_cache == "shape"
    assert second.nti is not None and second.nti.safe
    assert engine.stats.shape_hits == 1


class BrokenStoreDaemon(MarkerFaultDaemon):
    """An in-process backend whose ``analyzer`` raises; analysis still works."""

    @property
    def analyzer(self):
        raise RuntimeError("analyzer unavailable")


def test_store_errors_fall_through_counted_with_exact_verdicts():
    engine = JozaEngine(
        FragmentStore(FRAGMENTS),
        daemon=BrokenStoreDaemon(PTIDaemon(FragmentStore(FRAGMENTS))),
    )
    benign = "SELECT * FROM records WHERE ID=1 LIMIT 5"
    attack = "SELECT * FROM records WHERE ID=1 OR 1 = 1 LIMIT 5"
    for _ in range(3):
        assert engine.inspect(benign, ctx("1")).safe
    assert not engine.inspect(attack, ctx("1 OR 1 = 1")).safe
    batch = engine.inspect_batch([benign, benign], ctx("1"))
    assert [v.safe for v in batch] == [True, True]
    assert not engine.inspect_batch([attack], ctx("1 OR 1 = 1"))[0].safe
    assert not any(v.failsafe for v in batch)

    shape = engine.stats.shape_counters()
    assert engine.stats.queries_checked == 7
    assert shape["shape_fallthroughs"] == 7
    assert shape["shape_hits"] == shape["shape_misses"] == 0


def test_shape_hit_still_runs_nti_and_detects():
    engine = JozaEngine.from_fragments(FRAGMENTS + ["1"])
    query = "SELECT * FROM records WHERE ID=1 OR 1 = 1 LIMIT 5"
    # Warm the shape with a benign (input-free) request.
    assert engine.inspect(query, ctx()).safe
    # Same shape with the attacking input: NTI must flag it on the hit.
    verdict = engine.inspect(query, ctx("1 OR 1 = 1"))
    assert not verdict.safe
    assert verdict.detected_by() == {Technique.NTI}
    assert verdict.pti.from_cache in ("query", "shape")


def test_unsafe_shapes_are_never_cached():
    engine = JozaEngine.from_fragments(FRAGMENTS)
    attack = "SELECT * FROM records WHERE ID=1 UNION SELECT 2 LIMIT 5"
    for _ in range(3):
        verdict = engine.inspect(attack, ctx("9"))
        assert not verdict.safe
        assert verdict.detected_by() == {Technique.PTI}
    assert engine.stats.shape_plans_built == 0
    assert len(engine.shape_cache) == 0
    assert engine.stats.shape_misses == 3


# ---------------------------------------------------------------------------
# Store-swap invalidation (acceptance criterion: a vocabulary change
# provably invalidates cached PTI coverage)
# ---------------------------------------------------------------------------


def swap(engine, fragments):
    """Install a new vocabulary the production way: a new store, swapped in."""
    engine.daemon.refresh_fragments(FragmentStore(fragments))
    return engine.store


def test_fragment_removal_invalidates_cached_pti_coverage():
    engine = JozaEngine.from_fragments(["SELECT a FROM t WHERE id = ", " LIMIT 2"])
    query = "SELECT a FROM t WHERE id = 1 LIMIT 2"
    assert engine.inspect(query, ctx("1")).safe
    assert engine.inspect(query, ctx("1")).safe
    warm = engine.inspect(query, ctx("1"))
    assert warm.safe and warm.pti.from_cache == "shape"

    # Plugin uninstalled: the only fragment covering LIMIT disappears.
    # The cached plan proved coverage against the old vocabulary; serving
    # it now would vouch an uncoverable query safe.
    swap(engine, ["SELECT a FROM t WHERE id = "])

    stale = engine.inspect("SELECT a FROM t WHERE id = 9 LIMIT 2", ctx("9"))
    assert not stale.safe
    assert stale.detected_by() == {Technique.PTI}
    assert stale.pti.from_cache is None  # re-analysed, not served stale
    assert len(engine.shape_cache) == 0


def test_fragment_add_bumps_epoch_and_replans():
    engine = JozaEngine.from_fragments(["SELECT a FROM t WHERE id = "])
    query = "SELECT a FROM t WHERE id = 1 LIMIT 2"
    # LIMIT uncovered: unsafe, and no plan planted.
    assert not engine.inspect(query, ctx("1")).safe
    assert engine.stats.shape_plans_built == 0

    old_epoch = engine.store.epoch
    assert swap(engine, [*engine.store, " LIMIT 2"]).epoch > old_epoch
    healed = engine.inspect(query, ctx("1"))
    assert healed.safe
    assert engine.inspect(query, ctx("1")).safe
    assert engine.stats.shape_plans_built == 1
    # And the healed shape now serves hits.
    again = engine.inspect("SELECT a FROM t WHERE id = 7 LIMIT 2", ctx("7"))
    assert again.safe and again.pti.from_cache == "shape"


def test_refresh_fragments_store_swap_flushes_plans():
    engine = JozaEngine.from_fragments(["SELECT a FROM t WHERE id = ", " LIMIT 2"])
    query = "SELECT a FROM t WHERE id = 1 LIMIT 2"
    assert engine.inspect(query, ctx("1")).safe
    assert engine.inspect(query, ctx("1")).safe
    assert engine.inspect(query, ctx("1")).pti.from_cache == "shape"

    # Whole-store swap (bulk plugin update) to a vocabulary that no longer
    # covers LIMIT: the engine rebinds on store identity and flushes.
    swap(engine, ["SELECT a FROM t WHERE id = "])
    verdict = engine.inspect(query, ctx("1"))
    assert not verdict.safe
    assert verdict.detected_by() == {Technique.PTI}


def test_equal_stores_get_distinct_increasing_epochs():
    first = FragmentStore(["SELECT * FROM t WHERE id=", " ORDER BY x"])
    second = FragmentStore(["SELECT * FROM t WHERE id=", " ORDER BY x"])
    assert first.fragments == second.fragments
    assert second.epoch > first.epoch


def test_swap_racing_a_plan_plant_never_serves_the_old_vocabulary(monkeypatch):
    """A plan proven under S1 and planted after an equal-size S2 is swapped in.

    While the plan is being built, the wrapper swaps S1 for S2 and another
    request rebinds the shape state to S2.  The late plant names S1's
    epoch; S2 was built later, so its epoch is larger and the cache
    refuses the plant.  (Were the two epochs equal, the plan would serve
    S2 and vouch for ``ORDER BY x``, which S2 no longer covers.)
    """
    import threading

    import repro.core.engine as engine_module

    s1 = ["SELECT * FROM t WHERE id=", " ORDER BY x"]
    s2 = ["SELECT * FROM t WHERE id=", " ORDER BY y"]
    engine = JozaEngine.from_fragments(s1)
    real = engine_module.build_plan
    swapped = []

    def racing_build_plan(*args, **kwargs):
        plan = real(*args, **kwargs)
        if not swapped:
            swapped.append(swap(engine, s2))
            other = threading.Thread(
                target=engine.inspect,
                args=("SELECT * FROM t WHERE id=5 ORDER BY y", ctx("5")),
            )
            other.start()
            other.join()
        return plan

    monkeypatch.setattr(engine_module, "build_plan", racing_build_plan)
    query = "SELECT * FROM t WHERE id=1 ORDER BY x"
    assert engine.inspect(query, ctx("1")).safe  # first sighting
    assert engine.inspect(query, ctx("1")).safe  # second: plants, races
    assert swapped and len(swapped[0]) == len(s1)
    assert engine.shape_cache.stale_puts == 1  # the S1 plan was refused

    probe = "SELECT * FROM t WHERE id=2 ORDER BY x"
    verdict = engine.inspect(probe, ctx("2"))
    fresh = JozaEngine.from_fragments(s2).inspect(probe, ctx("2"))
    assert (verdict.safe, verdict.detected_by()) == (
        fresh.safe,
        fresh.detected_by(),
    )
    assert not verdict.safe and verdict.pti.from_cache is None


# ---------------------------------------------------------------------------
# Configuration gates
# ---------------------------------------------------------------------------


def test_fastpath_disabled_by_config_or_single_technique():
    off = JozaEngine.from_fragments(
        FRAGMENTS, JozaConfig(shape=ShapeCacheConfig(enabled=False))
    )
    assert off.shape_cache is None
    query = "SELECT * FROM records WHERE ID=1 LIMIT 5"
    assert off.inspect(query, ctx("1")).safe
    assert off.inspect(query, ctx("1")).pti.from_cache == "query"
    assert off.stats.shape_hits == off.stats.shape_misses == 0

    # The plan encodes joint PTI+NTI state; with either technique off the
    # fast path stays out of the way.
    pti_only = JozaEngine.from_fragments(FRAGMENTS, JozaConfig(enable_nti=False))
    assert pti_only.shape_cache is None
    nti_only = JozaEngine.from_fragments([], JozaConfig(enable_pti=False))
    assert nti_only.shape_cache is None


# ---------------------------------------------------------------------------
# Introspection surfaces
# ---------------------------------------------------------------------------


def test_cache_stats_unifies_all_cache_families():
    engine = JozaEngine.from_fragments(FRAGMENTS)
    query = "SELECT * FROM records WHERE ID=1 LIMIT 5"
    engine.inspect(query, ctx("1"))
    engine.inspect(query, ctx("1"))
    engine.inspect(query, ctx("1"))
    stats = engine.cache_stats()
    assert set(stats) == {"nti", "pti", "shape"}
    assert set(stats["pti"]) == {"query", "structure", "matcher"}
    for name, family in stats["pti"].items():
        if name == "matcher":
            assert {"comparisons", "automaton_builds"} <= set(family)
            continue
        assert {"hits", "misses", "hit_rate", "entries"} <= set(family)
    plans = stats["shape"]["plans"]
    assert plans["entries"] == 1.0
    # The plan cache's own EpochLRU reading; the engine's fast-path
    # counters are reported once, in resilience_report()["shape_fastpath"].
    assert plans == engine.shape_cache.snapshot_stats()
    assert engine.resilience_report()["shape_fastpath"]["shape_hits"] >= 1
    # The NTI slice is the analyzer's own report (the old alias is gone).
    assert stats["nti"] == engine.nti.cache_stats()


def test_resilience_report_and_export_carry_shape_counters():
    import json

    engine = JozaEngine.from_fragments(FRAGMENTS)
    query = "SELECT * FROM records WHERE ID=1 LIMIT 5"
    engine.check_query(query, ctx("1"))
    engine.check_query(query, ctx("1"))
    engine.check_query(query, ctx("1"))
    report = engine.resilience_report()
    assert report["shape_fastpath"] == engine.stats.shape_counters()
    payload = json.loads(engine.export_attack_log())
    resilience = payload["application_stats"]["resilience"]
    assert resilience["shape_fastpath"]["shape_hits"] >= 1


# ---------------------------------------------------------------------------
# One counter commit per query
# ---------------------------------------------------------------------------


def count_bumps(monkeypatch) -> list[dict]:
    """Record every ``EngineStats.bump`` call (class-level patch)."""
    calls: list[dict] = []
    bump = EngineStats.bump

    def counting(self, **deltas):
        calls.append(deltas)
        bump(self, **deltas)

    monkeypatch.setattr(EngineStats, "bump", counting)
    return calls


def test_warm_hit_commits_one_bump_and_cold_query_at_most_three(monkeypatch):
    engine = JozaEngine.from_fragments(FRAGMENTS + ["1"])
    query = "SELECT * FROM records WHERE ID=1 OR 1 = 1 LIMIT 5"
    engine.inspect(query, ctx())
    engine.inspect(query, ctx())  # second sighting plants the plan
    calls = count_bumps(monkeypatch)

    same_shape = "SELECT * FROM records WHERE ID=2 OR 2 = 2 LIMIT 5"
    hit = engine.inspect(same_shape, ctx("7"))
    assert hit.safe and hit.pti.from_cache == "shape"
    assert len(calls) == 1
    assert calls[0]["queries_checked"] == 1 and calls[0]["shape_hits"] == 1
    assert calls[0]["pti_seconds"] > 0 and calls[0]["nti_seconds"] > 0

    # An NTI detection on a hit rides the same commit.
    calls.clear()
    attack = engine.inspect(query, ctx("1 OR 1 = 1"))
    assert not attack.safe and attack.pti.from_cache == "shape"
    assert len(calls) == 1 and calls[0]["nti_detections"] == 1
    assert engine.stats.nti_detections == 1

    # A cold query: the lookup miss, the daemon exchange, the cold step.
    calls.clear()
    cold = engine.inspect("SELECT * FROM records WHERE ID=3", ctx("3"))
    assert cold.safe and cold.pti.from_cache is None
    assert 1 <= len(calls) <= 3
    assert sum(call.get("queries_checked", 0) for call in calls) == 1
    assert engine.stats.queries_checked == 5


# ---------------------------------------------------------------------------
# Second-sighting admission
# ---------------------------------------------------------------------------


def _count_plan_builds(monkeypatch):
    import repro.core.engine as engine_module

    calls = []
    real = engine_module.build_plan

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_module, "build_plan", counting)
    return calls


def test_one_off_shapes_never_reach_build_plan(monkeypatch):
    calls = _count_plan_builds(monkeypatch)
    engine = JozaEngine.from_fragments(FRAGMENTS + [" = 1", " OR "])
    queries = [
        "SELECT * FROM records WHERE ID=1 LIMIT 5",
        "SELECT * FROM records WHERE ID=1 OR ID = 1 LIMIT 5",
        "SELECT * FROM records WHERE ID=1 OR ID = 1 OR ID = 1 LIMIT 5",
    ]
    for query in queries:
        assert engine.inspect(query, ctx("1")).safe
    assert calls == []
    assert engine.stats.shape_plans_built == 0
    assert engine.stats.shape_admissions_deferred == len(queries)
    assert len(engine.shape_cache) == 0


def test_second_sighting_in_window_plants_a_plan(monkeypatch):
    calls = _count_plan_builds(monkeypatch)
    engine = JozaEngine.from_fragments(FRAGMENTS)
    engine.inspect("SELECT * FROM records WHERE ID=1 LIMIT 5", ctx("1"))
    # Another literal is the same shape: its clean sighting is the second.
    engine.inspect("SELECT * FROM records WHERE ID=2 LIMIT 5", ctx("2"))
    assert calls == ["SELECT * FROM records WHERE ID=2 LIMIT 5"]
    assert engine.stats.shape_plans_built == 1
    assert engine.stats.shape_admissions_deferred == 1
    hit = engine.inspect("SELECT * FROM records WHERE ID=3 LIMIT 5", ctx("3"))
    assert hit.safe and hit.pti.from_cache == "shape"


def test_unsafe_sightings_do_not_count_towards_admission():
    engine = JozaEngine.from_fragments(FRAGMENTS)
    query = "SELECT * FROM records WHERE ID=1 OR 1 = 1 LIMIT 5"
    for _ in range(2):  # PTI covers it; NTI flags the injected input
        assert not engine.inspect(query, ctx("1 OR 1 = 1")).safe
    assert engine.stats.shape_admissions_deferred == 0
    assert engine.inspect(query, ctx("7")).safe
    assert engine.stats.shape_plans_built == 0  # first *clean* sighting
    assert engine.stats.shape_admissions_deferred == 1


def test_aged_out_shape_starts_over():
    engine = JozaEngine.from_fragments(
        FRAGMENTS, JozaConfig(shape=ShapeCacheConfig(capacity=2))
    )
    records = "SELECT * FROM records WHERE ID=1 LIMIT 5"
    engine.inspect(records, ctx("1"))
    # Two other clean shapes push it out of the two-key window.
    engine.inspect("SELECT * FROM records WHERE ID=1", ctx("1"))
    engine.inspect("SELECT * FROM records WHERE ID=1 OR ID = 2", ctx("1"))
    engine.inspect(records, ctx("1"))
    assert engine.stats.shape_plans_built == 0
    engine.inspect(records, ctx("1"))
    assert engine.stats.shape_plans_built == 1


def test_plan_after_epoch_flush_comes_from_a_clean_cold_analysis_at_the_new_epoch():
    fragments = ["SELECT a FROM t WHERE id = ", " LIMIT 2"]
    engine = JozaEngine.from_fragments(fragments)
    query = "SELECT a FROM t WHERE id = 1 LIMIT 2"
    assert engine.inspect(query, ctx("1")).safe  # first sighting
    # The only fragment covering LIMIT disappears: the remembered key must
    # not carry trust across the swap.
    swap(engine, fragments[:1])
    unsafe = engine.inspect(query, ctx("1"))
    assert not unsafe.safe and unsafe.detected_by() == {Technique.PTI}
    assert engine.stats.shape_plans_built == 0
    # Back in the vocabulary: the key is still remembered, so the first
    # clean sighting is admitted, and its plan is built from that analysis
    # against the current store.
    epoch = swap(engine, fragments).epoch
    assert engine.inspect(query, ctx("1")).safe
    assert engine.stats.shape_plans_built == 1
    assert engine.shape_cache.snapshot_stats()["epoch"] == float(epoch)
    hit = engine.inspect("SELECT a FROM t WHERE id = 5 LIMIT 2", ctx("5"))
    assert hit.safe and hit.pti.from_cache == "shape"
    swap(engine, fragments[:1])
    stale = engine.inspect("SELECT a FROM t WHERE id = 6 LIMIT 2", ctx("6"))
    assert not stale.safe and stale.pti.from_cache is None


def test_a_store_swap_keeps_the_doorkeeper_window():
    engine = JozaEngine.from_fragments(FRAGMENTS)
    assert engine.inspect("SELECT * FROM records WHERE ID=1 LIMIT 5", ctx("1")).safe
    assert engine.stats.shape_admissions_deferred == 1
    epoch = swap(engine, FRAGMENTS).epoch  # same vocabulary, new store
    # The first clean sighting after the swap is admitted and builds the
    # plan from its own cold analysis at the new store's epoch.
    second = engine.inspect("SELECT * FROM records WHERE ID=2 LIMIT 5", ctx("2"))
    assert second.safe and second.pti.from_cache is None
    assert engine.stats.shape_plans_built == 1
    assert engine.stats.shape_admissions_deferred == 1
    assert engine.shape_cache.snapshot_stats()["epoch"] == float(epoch)
    hit = engine.inspect("SELECT * FROM records WHERE ID=3 LIMIT 5", ctx("3"))
    assert hit.safe and hit.pti.from_cache == "shape"


def test_deferred_admissions_are_a_shape_counter():
    engine = JozaEngine.from_fragments(FRAGMENTS)
    engine.inspect("SELECT * FROM records WHERE ID=1 LIMIT 5", ctx("1"))
    counters = engine.stats.shape_counters()
    assert counters["shape_admissions_deferred"] == 1
    assert engine.resilience_report()["shape_fastpath"] == counters
    assert "shape_admissions_deferred" not in engine.cache_stats()["shape"]["plans"]
