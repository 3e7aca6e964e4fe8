"""Targeted race regression tests for the concurrency-hardened primitives.

Each test hits one specific race the thread-safety pass closed:
RingLog append-vs-drop accounting, Counters' multi-field bumps, the
circuit breaker's half-open probe token, FragmentStore epochs drawn by
concurrent store builds (every store swap relies on them), the LRU
caches' lookup accounting, and ShapeCache's stale-epoch refusal.  These
are *regression* tests: on the pre-lock code they fail with high
probability; deterministic logic (probe counts, epoch uniqueness) is
asserted exactly.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.resilience import (
    BreakerState,
    CircuitBreaker,
    Counters,
    RingLog,
)
from repro.core.shapecache import ShapeCache, build_plan
from repro.pti.caches import MRUFragmentCache, QueryCache
from repro.pti.fragments import FragmentStore
from tests.support.faults import FakeClock


def run_threads(n: int, target, *args) -> None:
    """Start n barrier-synchronized threads and join them all."""
    barrier = threading.Barrier(n)

    def wrapped(index: int) -> None:
        barrier.wait(timeout=30.0)
        target(index, *args)

    threads = [
        threading.Thread(target=wrapped, args=(i,), daemon=True)
        for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
        assert not t.is_alive(), "worker thread deadlocked"


# ---------------------------------------------------------------------------
# Counters: no lost increments, no torn multi-field bumps
# ---------------------------------------------------------------------------


def test_counters_multi_field_bumps_are_atomic_and_never_lost():
    per_thread = 3000
    threads = 6
    counters = Counters(("queries", "seconds"))
    stop = threading.Event()
    torn: list[dict] = []
    reads = [0]

    def reader() -> None:
        # Every bump moves both fields together: a snapshot that sees one
        # without the other read a half-applied bump.
        while not stop.is_set():
            snap = counters.snapshot()
            if snap["seconds"] != 2 * snap["queries"]:
                torn.append(snap)
            reads[0] += 1

    def bumper(index: int) -> None:
        for __ in range(per_thread):
            counters.bump(queries=1, seconds=2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    watcher = threading.Thread(target=reader, daemon=True)
    watcher.start()
    try:
        run_threads(threads, bumper)
    finally:
        stop.set()
        watcher.join(timeout=30.0)
        sys.setswitchinterval(interval)
    assert not watcher.is_alive()
    assert reads[0] > 0
    assert torn == []
    total = threads * per_thread
    assert counters.snapshot() == {"queries": total, "seconds": 2 * total}
    assert counters.queries == total


# ---------------------------------------------------------------------------
# RingLog: no lost appends, no lost or double-counted drops
# ---------------------------------------------------------------------------


def test_ringlog_concurrent_append_accounting():
    capacity = 64
    per_thread = 500
    threads = 8
    log = RingLog(capacity)

    def appender(index: int) -> None:
        for i in range(per_thread):
            log.append((index, i))

    run_threads(threads, appender)
    total = threads * per_thread
    assert len(log) == capacity
    # Every append either survives in the ring or was counted as dropped --
    # a torn check-then-append loses exactly this equality.
    assert log.dropped_records == total - capacity
    # Items are genuine appended values (no torn/duplicated entries).
    items = list(log)
    assert len(items) == capacity
    assert all(0 <= t < threads and 0 <= i < per_thread for t, i in items)


def test_ringlog_concurrent_append_and_iterate():
    log = RingLog(32)
    stop = threading.Event()
    errors: list[str] = []

    def reader(_index: int) -> None:
        while not stop.is_set():
            snapshot = list(log)
            if len(snapshot) > 32:
                errors.append(f"oversized snapshot: {len(snapshot)}")
                return

    def writer(_index: int) -> None:
        for i in range(2000):
            log.append(i)
        stop.set()

    run_threads(2, lambda i: reader(i) if i == 0 else writer(i))
    stop.set()
    assert errors == []


# ---------------------------------------------------------------------------
# CircuitBreaker: the half-open probe token is won by exactly K threads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("probes", [1, 2])
def test_breaker_half_open_probe_claimed_atomically(probes: int):
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=1,
        reset_timeout=1.0,
        half_open_probes=probes,
        clock=clock,
    )
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    clock.advance(1.5)  # -> half-open on next allow

    allowed: list[bool] = []
    lock = threading.Lock()

    def prober(_index: int) -> None:
        verdict = breaker.allow()
        with lock:
            allowed.append(verdict)

    run_threads(16, prober)
    # Exactly `probes` winners: a torn check-then-increment lets a
    # thundering herd through the half-open breaker.
    assert sum(allowed) == probes
    assert len(allowed) == 16
    # A probe success re-closes; everyone flows again.
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.allow()


def test_breaker_concurrent_failures_single_open_transition():
    breaker = CircuitBreaker(failure_threshold=8, reset_timeout=60.0)

    def failer(_index: int) -> None:
        breaker.record_failure()

    run_threads(8, failer)
    assert breaker.state is BreakerState.OPEN
    assert breaker.times_opened == 1  # no double transition under race


# ---------------------------------------------------------------------------
# FragmentStore: concurrent builds draw distinct epochs, compile once
# ---------------------------------------------------------------------------


def test_concurrent_store_builds_draw_distinct_epochs():
    fragments = [f"FRAG_{i} " for i in range(8)]
    epochs: list[list[int]] = [[] for _ in range(8)]

    def build_stores(index: int) -> None:
        for _ in range(100):
            epochs[index].append(FragmentStore(fragments).epoch)

    run_threads(8, build_stores)
    every = [epoch for per_thread in epochs for epoch in per_thread]
    # Equal contents, yet no two stores share an epoch (a shared epoch
    # would let a cache proven under one serve the other) ...
    assert len(set(every)) == len(every) == 800
    # ... and each thread saw its later builds draw larger epochs.
    for per_thread in epochs:
        assert per_thread == sorted(per_thread)


def test_store_compiles_its_automaton_once():
    store = FragmentStore(["SELECT a FROM t WHERE id = ", " LIMIT 5"])
    results: list = []
    run_threads(4, lambda _index: results.append(store.compiled_automaton()))
    automata = {id(automaton) for automaton, _ in results}
    assert len(automata) == 1
    assert sum(built_now for _, built_now in results) == 1
    assert store.compiled_automaton() == (results[0][0], False)


# ---------------------------------------------------------------------------
# LRU / MRU caches: consistent accounting under contention
# ---------------------------------------------------------------------------


def test_query_cache_hits_plus_misses_equals_lookups_under_race():
    cache = QueryCache(capacity=128)
    lookups_per_thread = 400

    def worker(index: int) -> None:
        for i in range(lookups_per_thread):
            key = f"q{(index * lookups_per_thread + i) % 200}"
            if cache.get(key) is None:
                cache.put(key, (True, None))

    run_threads(8, worker)
    stats = cache.stats
    assert stats.hits + stats.misses == stats.lookups
    assert stats.lookups == 8 * lookups_per_thread
    assert len(cache) <= 128


def test_mru_cache_touch_race_keeps_invariants():
    mru = MRUFragmentCache(capacity=16)
    fragments = [f"F{i}" for i in range(32)]

    def toucher(index: int) -> None:
        for i in range(500):
            mru.touch(fragments[(index + i) % len(fragments)])

    run_threads(6, toucher)
    items = mru.items()
    assert len(items) <= 16
    assert len(set(items)) == len(items)  # no duplicate entries from races


# ---------------------------------------------------------------------------
# ShapeCache: stale epochs are refused on both get and put
# ---------------------------------------------------------------------------


def _make_plan():
    from repro.pti.inference import PTIAnalyzer
    from repro.sqlparser.parser import critical_tokens
    from repro.sqlparser.skeleton import skeletonize

    fragments = ["SELECT * FROM t WHERE id=", " LIMIT 1"]
    store = FragmentStore(fragments)
    analyzer = PTIAnalyzer(store)
    query = "SELECT * FROM t WHERE id=1 LIMIT 1"
    skeleton = skeletonize(query)
    plan = build_plan(query, skeleton, critical_tokens(query), analyzer)
    assert plan is not None
    return skeleton.key, plan


def test_shapecache_refuses_stale_put():
    key, plan = _make_plan()
    cache = ShapeCache(capacity=8)
    assert cache.get(key, epoch=5) is None  # syncs to epoch 5
    cache.put(key, plan, epoch=4)  # built under a superseded vocabulary
    assert cache.stale_puts == 1
    assert cache.get(key, epoch=5) is None  # nothing was planted
    cache.put(key, plan, epoch=5)
    assert cache.get(key, epoch=5) is plan


def test_shapecache_stale_reader_misses_without_flushing():
    key, plan = _make_plan()
    cache = ShapeCache(capacity=8)
    cache.put(key, plan, epoch=7)
    assert cache.get(key, epoch=7) is plan
    # A reader that pinned an older epoch gets a miss -- and must NOT wipe
    # the current-epoch plans on its way through.
    assert cache.get(key, epoch=6) is None
    assert cache.get(key, epoch=7) is plan

