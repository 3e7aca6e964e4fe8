"""Property tests: observability snapshots stay consistent mid-traffic.

``cache_stats()`` / ``resilience_report()`` are advertised as safe to call
from an operator thread while request threads hammer the engine
(DESIGN.md section 10).  These properties pin what "safe" means:

- every counter a sampler thread observes is **monotone non-decreasing**
  across successive samples (no lost increments, no torn decrements);
- per-sample values are internally consistent (non-negative, hits+misses
  never exceeding what monotonicity allows, breaker state a valid name);
- the final quiesced state is **exact**: ``queries_checked`` equals the
  number of ``inspect`` calls issued, query-cache ``hits + misses ==
  lookups``, and every fault-marked query is accounted as a failsafe
  block.

Every engine is warmed before its swarm: each hot shape is sighted twice
(plans are admitted on the second sighting) and then served once from its
plan, so the swarm runs against planted shapes (``shape_hits > 0``).

Each Hypothesis example runs a fresh engine, a small barrier-started
swarm, and one sampler thread; examples are capped so the whole module
stays inside the CI smoke budget.
"""

from __future__ import annotations

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JozaConfig, JozaEngine, ResilienceConfig
from repro.pti import FragmentStore
from repro.pti.daemon import PTIDaemon
from tests.support.concurrency import (
    SWARM_FRAGMENTS,
    MarkerFaultDaemon,
    _hot_items,
    build_workload,
    run_swarm,
)

#: Resilience counters that must never decrease while traffic flows.
MONOTONE_KEYS = (
    "deadline_exceeded",
    "breaker_open",
    "failsafe_blocks",
)
SHAPE_KEYS = (
    "shape_hits",
    "shape_misses",
    "shape_fallthroughs",
    "shape_plans_built",
    "shadow_checks",
)


def make_engine() -> JozaEngine:
    store = FragmentStore(SWARM_FRAGMENTS)
    return JozaEngine(
        store,
        JozaConfig(resilience=ResilienceConfig(deadline_seconds=5.0)),
        daemon=MarkerFaultDaemon(PTIDaemon(store)),
    )


def warm(engine) -> int:
    """Plant every hot shape and prove a hit; returns the inspections made."""
    items = _hot_items()
    for _ in range(3):
        for item in items:
            assert engine.inspect(item.query, item.context()).safe
    assert engine.stats.shape_hits > 0
    return 3 * len(items)


def sample(engine) -> dict[str, int]:
    """One flat observability sample (taken the way an operator would)."""
    report = engine.resilience_report()
    cache = engine.daemon.inner.query_cache.stats
    flat = {key: report[key] for key in MONOTONE_KEYS}
    flat.update(
        (key, report["shape_fastpath"][key]) for key in SHAPE_KEYS
    )
    flat["cache_hits"] = cache.hits
    flat["cache_misses"] = cache.misses
    return flat


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    threads=st.integers(min_value=2, max_value=4),
    per_thread=st.integers(min_value=5, max_value=12),
    churn=st.booleans(),
)
def test_snapshots_mid_traffic_are_consistent_and_monotone(
    seed, threads, per_thread, churn
):
    engine = make_engine()
    warmed = warm(engine)
    schedules = build_workload(seed, threads, per_thread)
    samples: list[dict[str, int]] = []
    done = threading.Event()

    def sampler() -> None:
        while not done.is_set():
            samples.append(sample(engine))
        samples.append(sample(engine))  # one quiesced sample at the end

    thread = threading.Thread(target=sampler, daemon=True)
    thread.start()
    try:
        result = run_swarm(
            engine,
            schedules,
            mutator_reloads=10 if churn else 0,
        )
    finally:
        done.set()
        thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert result.errors == []

    # Per-sample consistency.
    for snap in samples:
        for key, value in snap.items():
            assert value >= 0, f"{key} went negative: {value}"

    # Monotonicity across the sampler's sequential observations.
    for earlier, later in zip(samples, samples[1:]):
        for key in earlier:
            assert later[key] >= earlier[key], (
                f"counter {key} decreased mid-traffic: "
                f"{earlier[key]} -> {later[key]}"
            )

    # Quiesced exactness.
    total = threads * per_thread + warmed
    assert engine.stats.queries_checked == total
    stats = engine.daemon.inner.query_cache.stats
    assert stats.hits + stats.misses == stats.lookups
    faults = sum(
        item.is_fault for schedule in schedules for item in schedule
    )
    assert engine.stats.failsafe_blocks == faults
    final = samples[-1]
    assert final["cache_hits"] == stats.hits
    assert final["cache_misses"] == stats.misses
    assert final["failsafe_blocks"] == faults


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_report_shape_counters_agree_with_stats_object(seed):
    """resilience_report's shape block mirrors EngineStats exactly when
    quiesced -- the report is a projection, not a second set of books."""
    engine = make_engine()
    warm(engine)
    schedules = build_workload(seed, 2, 6)
    result = run_swarm(engine, schedules)
    assert result.errors == []
    report = engine.resilience_report()
    assert report["shape_fastpath"] == engine.stats.shape_counters()
    for key in MONOTONE_KEYS:
        assert report[key] == getattr(engine.stats, key)
