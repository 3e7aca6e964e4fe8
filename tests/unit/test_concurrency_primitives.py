"""Targeted race regression tests for the concurrency-hardened primitives.

Each test hits one specific race the thread-safety pass closed:
RingLog append-vs-drop accounting, the circuit breaker's half-open probe
token, FragmentStore's copy-on-write snapshots under reload, the LRU
caches' lookup accounting, and ShapeCache's stale-epoch refusal.  These
are *regression* tests: on the pre-lock code they fail with high
probability; deterministic logic (probe counts, snapshot atomicity) is
asserted exactly.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.resilience import (
    BreakerState,
    CircuitBreaker,
    RingLog,
)
from repro.core.shapecache import ShapeCache, build_plan
from repro.pti.caches import MRUFragmentCache, QueryCache
from repro.pti.fragments import FragmentStore
from repro.testbed.faults import FakeClock


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
# FragmentStore: copy-on-write readers vs reload
# ---------------------------------------------------------------------------


def test_fragment_store_readers_never_see_torn_state():
    set_a = [f"FRAG_A_{i} " for i in range(40)]
    set_b = [f"FRAG_B_{i} " for i in range(40)]
    store = FragmentStore(set_a)
    errors: list[str] = []
    stop = threading.Event()

    def reader(_index: int) -> None:
        while not stop.is_set():
            state = store.snapshot()
            fragments = set(state.fragments)
            # A snapshot is entirely set A or entirely set B -- a mix means
            # a reader observed a half-applied reload.
            if not (fragments == set(set_a) or fragments == set(set_b)):
                errors.append(f"torn snapshot at epoch {state.epoch}")
                return
            # The membership set of the same snapshot agrees with its
            # fragment tuple (checking the *live* store would race with
            # the mutator, which is exactly what snapshots avoid).
            for fragment in state.fragments[:3]:
                assert fragment in state.seen

    def mutator(_index: int) -> None:
        for i in range(300):
            store.reload(set_b if i % 2 == 0 else set_a)
        stop.set()

    run_threads(4, lambda i: mutator(i) if i == 0 else reader(i))
    stop.set()
    assert errors == []


def test_fragment_store_epoch_monotone_under_concurrent_adds():
    store = FragmentStore([])
    epochs: list[int] = []
    lock = threading.Lock()

    def adder(index: int) -> None:
        for i in range(100):
            store.add(f"T{index}_FRAGMENT_{i} ")
            with lock:
                epochs.append(store.epoch)

    run_threads(4, adder)
    assert len(store) == 400
    assert store.epoch == 400  # one bump per effective add, none lost
    assert max(epochs) == 400


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


def test_mru_cache_touch_prune_race_keeps_invariants():
    mru = MRUFragmentCache(capacity=16)
    fragments = [f"F{i}" for i in range(32)]

    def toucher(index: int) -> None:
        for i in range(500):
            mru.touch(fragments[(index + i) % len(fragments)])
            if i % 50 == 0:
                mru.prune(lambda f: not f.endswith("7"))

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

