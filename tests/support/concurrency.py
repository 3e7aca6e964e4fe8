"""Concurrency chaos harness: barrier-started swarms, serial replay.

The thread-safety work of DESIGN.md section 10 claims an invariant --
*N threads hammering one engine produce exactly the verdicts a serial run
would, and never a fail-open* -- and, like the fault-injection harness in
:mod:`tests.support.faults`, an invariant wants an adversary.  This module
provides three:

- :class:`MarkerFaultDaemon` -- **content-keyed** fault injection: queries
  carrying a chaos marker substring deterministically raise the matching
  typed failure (crash / hang / corrupt), everything else is analysed by
  the wrapped in-process daemon.  Content keying is what makes
  *serial == concurrent* checkable at all: a positional schedule (fault on
  the i-th call) diverges under interleaving, but a fault that is a pure
  function of the query text yields the same verdict no matter which
  thread runs it when.
- :func:`run_swarm` -- a barrier-started thread swarm interleaving hot
  (repeated), cold (unique-literal), attack and fault-marker traffic from
  per-thread seeded schedules, optionally with a mutator thread swapping
  new fragment stores in mid-flight (the churn exercises every store
  rebind and cache flush without changing any verdict: each new store
  holds the *same* fragments).
- :func:`serial_replay` -- the oracle: a fresh engine runs the exact same
  schedules single-threaded; :func:`diff_verdicts` compares.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.cli import SWARM_FRAGMENTS
from repro.core.resilience import (
    CorruptReply,
    Counters,
    DaemonCrash,
    DaemonTimeout,
    Deadline,
)
from repro.phpapp.context import CapturedInput, RequestContext
from repro.pti.daemon import PTIDaemon
from repro.pti.fragments import FragmentStore
from repro.pti.inference import PTIAnalyzer
from .faults import POISON_MARKER

__all__ = [
    "CRASH_MARKER",
    "HANG_MARKER",
    "CORRUPT_MARKER",
    "MarkerFaultDaemon",
    "WorkloadItem",
    "VerdictRecord",
    "SwarmResult",
    "SWARM_FRAGMENTS",
    "build_workload",
    "run_swarm",
    "serial_replay",
    "diff_verdicts",
    "fail_open_keys",
]

#: Content-keyed fault markers: a query containing one deterministically
#: triggers that failure in :class:`MarkerFaultDaemon`, on every thread,
#: every retry, every replay.  (:data:`~tests.support.faults.POISON_MARKER`
#: is honored too, as a crash.)
CRASH_MARKER = "/*chaos:crash*/"
HANG_MARKER = "/*chaos:hang*/"
CORRUPT_MARKER = "/*chaos:corrupt*/"


class MarkerFaultDaemon:
    """In-process daemon whose faults are a pure function of the query.

    A :class:`~repro.pti.daemon.PTIBackend` delegating to ``inner``, so it
    sits in the engine's daemon slot; a marker query fails its whole
    batch, as a fault would a whole exchange.
    Thread-safe: the wrapped :class:`~repro.pti.daemon.PTIDaemon`
    serializes its pipeline internally, the marker check touches only
    the immutable query, and the counters lock themselves.
    """

    def __init__(self, inner: PTIDaemon) -> None:
        self.inner = inner
        self.counters = Counters(("calls", "faults_fired"))

    @property
    def store(self) -> FragmentStore:
        return self.inner.store

    @property
    def analyzer(self) -> PTIAnalyzer:
        return self.inner.analyzer

    @property
    def timings(self):
        return self.inner.timings

    def refresh_fragments(self, store: FragmentStore) -> None:
        self.inner.refresh_fragments(store)

    def cache_stats(self) -> dict[str, dict[str, float]]:
        return self.inner.cache_stats()

    def resilience_snapshot(self) -> dict[str, int]:
        return self.counters.snapshot()

    def analyze_batch(self, queries: list[str], deadline: Deadline | None = None):
        return [self.analyze_query(query, deadline) for query in queries]

    def analyze_query(self, query: str, deadline: Deadline | None = None):
        self.counters.bump(calls=1)
        if CRASH_MARKER in query or POISON_MARKER in query:
            self.counters.bump(faults_fired=1)
            raise DaemonCrash("chaos marker: injected child crash")
        if HANG_MARKER in query:
            self.counters.bump(faults_fired=1)
            raise DaemonTimeout("chaos marker: injected hang")
        if CORRUPT_MARKER in query:
            self.counters.bump(faults_fired=1)
            raise CorruptReply("chaos marker: injected corrupt reply")
        return self.inner.analyze_query(query, deadline=deadline)


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadItem:
    """One scheduled request: query text, its inputs, expected class."""

    query: str
    values: tuple[str, ...] = ()
    is_attack: bool = False
    is_fault: bool = False

    def context(self) -> RequestContext:
        return RequestContext(
            inputs=[
                CapturedInput("get", f"p{i}", value)
                for i, value in enumerate(self.values)
            ]
        )


def _hot_items() -> list[WorkloadItem]:
    """The fixed hot working set (query-cache / shape-cache hits)."""
    return [
        WorkloadItem("SELECT * FROM records WHERE ID=7 LIMIT 5", ("7",)),
        WorkloadItem("SELECT name FROM users WHERE id=3 LIMIT 1", ("3",)),
        WorkloadItem(
            "SELECT option_value FROM options WHERE option_name='home'", ()
        ),
    ]


def _cold_item(n: int) -> WorkloadItem:
    """Unique-literal instance of a hot shape (shape-cache traffic)."""
    if n % 2:
        return WorkloadItem(
            f"SELECT * FROM records WHERE ID={n} LIMIT 5", (str(n),)
        )
    return WorkloadItem(
        f"SELECT COUNT(*) FROM comments WHERE post_id={n} AND approved=1",
        (str(n),),
    )


def _attack_item(n: int) -> WorkloadItem:
    """Injection attempts: PTI-visible (uncovered tokens) and NTI-visible."""
    if n % 2:
        payload = f"{n} UNION SELECT user_pass FROM users"
        return WorkloadItem(
            f"SELECT * FROM records WHERE ID={payload} LIMIT 5",
            (payload,),
            is_attack=True,
        )
    payload = f"{n}; DROP TABLE records--"
    return WorkloadItem(
        f"SELECT name FROM users WHERE id={payload} LIMIT 1",
        (payload,),
        is_attack=True,
    )


def _fault_item(n: int, marker: str) -> WorkloadItem:
    """A benign-shaped query that deterministically faults the daemon.

    The engine must block it (``failsafe``); it is *not* an attack, but
    it must never come back ``safe`` either.
    """
    return WorkloadItem(
        f"SELECT * FROM records WHERE ID={n} {marker} LIMIT 5",
        (str(n),),
        is_fault=True,
    )


def build_workload(
    seed: int,
    threads: int,
    queries_per_thread: int,
    *,
    fault_rate: float = 0.15,
    attack_rate: float = 0.2,
) -> list[list[WorkloadItem]]:
    """Per-thread seeded schedules mixing hot/cold/attack/fault traffic.

    Deterministic in ``(seed, threads, queries_per_thread, rates)`` --
    thread ``t`` draws from ``random.Random(seed * 1_000_003 + t)`` so
    schedules are independent of interleaving and re-derivable by the
    serial replay.
    """
    schedules: list[list[WorkloadItem]] = []
    markers = (CRASH_MARKER, HANG_MARKER, CORRUPT_MARKER)
    hot = _hot_items()
    for t in range(threads):
        rng = random.Random(seed * 1_000_003 + t)
        schedule: list[WorkloadItem] = []
        for i in range(queries_per_thread):
            n = t * queries_per_thread + i
            draw = rng.random()
            if draw < fault_rate:
                schedule.append(_fault_item(n, rng.choice(markers)))
            elif draw < fault_rate + attack_rate:
                schedule.append(_attack_item(n))
            elif draw < fault_rate + attack_rate + 0.35:
                schedule.append(rng.choice(hot))
            else:
                schedule.append(_cold_item(n))
        schedules.append(schedule)
    return schedules


# ----------------------------------------------------------------------
# Swarm execution + serial oracle
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VerdictRecord:
    """The interleaving-independent projection of one verdict."""

    query: str
    safe: bool
    detected_by: frozenset[str]
    failsafe: bool

    @classmethod
    def of(cls, query: str, verdict) -> "VerdictRecord":
        return cls(
            query=query,
            safe=verdict.safe,
            detected_by=frozenset(
                t.value for t in verdict.detected_by()
            ),
            failsafe=verdict.failsafe,
        )


@dataclass
class SwarmResult:
    """Everything a chaos assertion needs from one swarm run."""

    #: ``(thread_index, query_index) -> VerdictRecord``
    records: dict[tuple[int, int], VerdictRecord] = field(default_factory=dict)
    #: Uncaught exceptions per thread (must be empty: ``inspect`` never
    #: raises; an entry here is a thread-safety bug).
    errors: list[tuple[int, str]] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    reloads_performed: int = 0

    def queries_run(self) -> int:
        return len(self.records)


def run_swarm(
    engine,
    schedules: list[list[WorkloadItem]],
    *,
    mutator_reloads: int = 0,
    mutator_fragments: list[str] | None = None,
    join_timeout: float = 120.0,
) -> SwarmResult:
    """Run the schedules on ``engine`` from barrier-started threads.

    With ``mutator_reloads > 0`` an extra thread swaps a new fragment
    store into the engine's daemon that many times while traffic is in
    flight, through ``refresh_fragments`` -- the production swap.  Every
    new store holds the *same* fragments (default: the current store's),
    so each swap exercises the engine's rebind, the cache flushes and the
    automaton compile without changing a single verdict -- the serial
    oracle therefore remains exact.

    Raises :class:`RuntimeError` if any thread fails to finish within
    ``join_timeout`` (deadlock detector for CI).
    """
    result = SwarmResult()
    result_lock = threading.Lock()
    mutating = mutator_reloads > 0
    barrier = threading.Barrier(len(schedules) + (1 if mutating else 0))
    done = threading.Event()

    def worker(thread_index: int, schedule: list[WorkloadItem]) -> None:
        try:
            barrier.wait(timeout=join_timeout)
            for query_index, item in enumerate(schedule):
                verdict = engine.inspect(item.query, item.context())
                record = VerdictRecord.of(item.query, verdict)
                with result_lock:
                    result.records[(thread_index, query_index)] = record
        except Exception as exc:  # noqa: BLE001 - recorded for assertion
            with result_lock:
                result.errors.append((thread_index, repr(exc)))

    def mutator() -> None:
        fragments = (
            list(mutator_fragments)
            if mutator_fragments is not None
            else list(engine.store.iter_all())
        )
        try:
            barrier.wait(timeout=join_timeout)
            for _ in range(mutator_reloads):
                if done.is_set():
                    break
                engine.daemon.refresh_fragments(FragmentStore(fragments))
                with result_lock:
                    result.reloads_performed += 1
                time.sleep(0.0005)
        except Exception as exc:  # noqa: BLE001
            with result_lock:
                result.errors.append((-1, repr(exc)))

    workers = [
        threading.Thread(target=worker, args=(t, schedule), daemon=True)
        for t, schedule in enumerate(schedules)
    ]
    mutator_thread = (
        threading.Thread(target=mutator, daemon=True) if mutating else None
    )
    t0 = time.perf_counter()
    for thread in workers:
        thread.start()
    if mutator_thread is not None:
        mutator_thread.start()
    deadline = time.monotonic() + join_timeout
    for thread in workers:
        thread.join(timeout=max(deadline - time.monotonic(), 0.0))
        if thread.is_alive():
            done.set()
            raise RuntimeError(
                "swarm thread failed to finish (deadlock or livelock)"
            )
    done.set()  # workers are done; tell the mutator to stop churning
    if mutator_thread is not None:
        mutator_thread.join(timeout=max(deadline - time.monotonic(), 1.0))
        if mutator_thread.is_alive():
            raise RuntimeError("mutator thread failed to finish")
    result.elapsed_seconds = time.perf_counter() - t0
    return result


def serial_replay(
    make_engine,
    schedules: list[list[WorkloadItem]],
) -> dict[tuple[int, int], VerdictRecord]:
    """The oracle: the same schedules on a fresh engine, single-threaded."""
    engine = make_engine()
    records: dict[tuple[int, int], VerdictRecord] = {}
    for thread_index, schedule in enumerate(schedules):
        for query_index, item in enumerate(schedule):
            verdict = engine.inspect(item.query, item.context())
            records[(thread_index, query_index)] = VerdictRecord.of(
                item.query, verdict
            )
    return records


def diff_verdicts(
    concurrent: dict[tuple[int, int], VerdictRecord],
    serial: dict[tuple[int, int], VerdictRecord],
) -> list[str]:
    """Human-readable divergences between a swarm run and its oracle."""
    problems: list[str] = []
    for key in sorted(set(concurrent) | set(serial)):
        a, b = concurrent.get(key), serial.get(key)
        if a is None or b is None:
            problems.append(f"{key}: missing ({'concurrent' if a is None else 'serial'})")
        elif a != b:
            problems.append(f"{key}: concurrent={a} serial={b}")
    return problems


def fail_open_keys(
    records: dict[tuple[int, int], VerdictRecord],
    schedules: list[list[WorkloadItem]],
) -> list[tuple[int, int]]:
    """Keys where an attack or fault-marked query came back ``safe``.

    Must be empty: attacks are detected, faulted queries fail closed.
    """
    bad: list[tuple[int, int]] = []
    for (t, i), record in records.items():
        item = schedules[t][i]
        if (item.is_attack or item.is_fault) and record.safe:
            bad.append((t, i))
    return sorted(bad)
