"""Seeded fault-injection harness for the guard runtime.

The resilience layer (DESIGN.md section 7) claims an invariant -- *no query
ever reaches the database without a verdict, under any fault schedule* --
and invariants want adversaries.  This module provides two of them, both
driven by a reproducible :class:`FaultSchedule`:

- :class:`ChaosPTIDaemon` -- a :class:`~repro.pti.daemon.SubprocessPTIDaemon`
  whose *children* misbehave for real: they crash mid-exchange
  (``os._exit``), hang (sleep far past every timeout), reply slowly, reply
  garbage, and die deterministically on poison queries.  The children
  speak the production packed wire, so a fault hits a whole exchange (one
  request frame, i.e. every query of a batch).  This exercises the full
  production stack: ``poll``-bounded receives, kill-and-respawn, backoff,
  the circuit breaker.  A cross-respawn shared counter keeps the schedule
  positional (exchange *i* gets fault *i* no matter how many children died
  before it).

- :class:`FlakyDaemon` -- an in-process injector raising the same typed
  failures the resilient wrapper can surface, without any real processes.
  This is what the hypothesis property suite drives: thousands of random
  fault schedules per minute, asserting the engine's never-fail-open
  resolution, which would be hopelessly slow with real children.

Both are :class:`~repro.pti.daemon.PTIBackend` implementations, so either
can sit in the engine's daemon slot.

Poison queries are content-keyed (the :data:`POISON_MARKER` substring or an
explicit set), so they re-trigger after every respawn -- the deterministic
crash the single-respawn-retry seed code could not survive.
"""

from __future__ import annotations

import enum
import functools
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field

from repro.core.resilience import (
    CorruptReply,
    DaemonCrash,
    DaemonTimeout,
    Deadline,
)
from repro.pti.daemon import DaemonConfig, PTIDaemon, SubprocessPTIDaemon
from repro.pti.fragments import FragmentStore

__all__ = [
    "FaultKind",
    "FaultSchedule",
    "FakeClock",
    "ChaosPTIDaemon",
    "FlakyDaemon",
    "POISON_MARKER",
]

#: Queries containing this substring deterministically kill the analysis
#: child (the "poison query" fault class): every respawn dies again.
POISON_MARKER = "/*chaos:poison*/"


class FaultKind(enum.Enum):
    """The injectable fault classes (tentpole fault taxonomy)."""

    CRASH = "crash"  # child dies mid-exchange (SIGKILL-style, no cleanup)
    HANG = "hang"  # child goes silent far past every timeout
    SLOW = "slow"  # child replies, but late
    CORRUPT = "corrupt"  # child replies garbage (shape-invalid message)


@dataclass(frozen=True)
class FaultSchedule:
    """A reproducible position -> fault mapping.

    Positions are *global exchange indices*: the i-th request the (possibly
    respawned-many-times) daemon is asked to serve -- one query for
    ``inspect``, a whole batch for ``inspect_batch``; :class:`FlakyDaemon`
    counts queries.  Retries consume fresh positions, which is exactly
    transient-fault semantics: a crash at position k makes the retry run
    at position k+1, where the schedule usually holds no fault.
    """

    faults: dict[int, FaultKind] = field(default_factory=dict)
    seed: int | None = None

    @classmethod
    def none(cls) -> "FaultSchedule":
        return cls({})

    @classmethod
    def fixed(cls, mapping: dict[int, FaultKind]) -> "FaultSchedule":
        return cls(dict(mapping))

    @classmethod
    def seeded(
        cls,
        seed: int,
        length: int,
        rate: float = 0.25,
        kinds: tuple[FaultKind, ...] = (
            FaultKind.CRASH,
            FaultKind.SLOW,
            FaultKind.CORRUPT,
        ),
    ) -> "FaultSchedule":
        """Draw a random schedule reproducibly from ``seed``.

        ``kinds`` defaults to the transient faults; HANG is opt-in because
        each hang costs a real receive-timeout of wall-clock time in the
        subprocess harness.
        """
        rng = random.Random(seed)
        faults = {
            i: rng.choice(kinds) for i in range(length) if rng.random() < rate
        }
        return cls(faults, seed=seed)

    def fault_at(self, index: int) -> FaultKind | None:
        return self.faults.get(index)

    def positions(self, kind: FaultKind | None = None) -> list[int]:
        return sorted(
            i for i, k in self.faults.items() if kind is None or k is kind
        )


class FakeClock:
    """An injectable monotonic clock: hangs become arithmetic, not sleeps.

    Plugged into :class:`~repro.core.resilience.Deadline` /
    :class:`~repro.core.resilience.CircuitBreaker` by the in-process fault
    tests so timeout behavior is exercised deterministically and instantly.
    """

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Real-subprocess chaos
# ----------------------------------------------------------------------


def _chaos_exchange(
    schedule: FaultSchedule,
    counter,
    hang_seconds: float,
    slow_seconds: float,
    queries: list[str],
) -> bytes | None:
    """Child-side fault hook: misbehave on schedule, once per exchange.

    Returns garbage bytes to send instead of the reply (CORRUPT), or
    ``None`` to let the production loop analyse and reply.
    """
    if any(POISON_MARKER in query for query in queries):
        # Deterministic: this query kills every child ever spawned.
        os._exit(139)
    with counter.get_lock():
        index = counter.value
        counter.value += 1
    fault = schedule.fault_at(index)
    if fault is FaultKind.CRASH:
        os._exit(137)
    if fault is FaultKind.HANG:
        # Go silent for far longer than any sane receive timeout; the
        # parent is expected to declare us hung and kill us.
        time.sleep(hang_seconds)
        os._exit(134)
    if fault is FaultKind.SLOW:
        time.sleep(slow_seconds)
    if fault is FaultKind.CORRUPT:
        return b"\x00garbage"
    return None


class ChaosPTIDaemon(SubprocessPTIDaemon):
    """A subprocess PTI daemon whose children misbehave on schedule.

    Everything parent-side is the production
    :class:`~repro.pti.daemon.SubprocessPTIDaemon`, and the child runs the
    production loop with a fault hook -- so the recovery machinery under
    test is byte-for-byte the deployed one.
    """

    def __init__(
        self,
        store: FragmentStore,
        config: DaemonConfig | None = None,
        *,
        schedule: FaultSchedule,
        hang_seconds: float = 30.0,
        slow_seconds: float = 0.02,
        **kwargs,
    ) -> None:
        super().__init__(store, config, **kwargs)
        self.schedule = schedule
        self.hang_seconds = hang_seconds
        self.slow_seconds = slow_seconds
        # Shared across respawns so the schedule stays positional.
        self._counter = multiprocessing.Value("q", 0)

    def _fault_hook(self):
        return functools.partial(
            _chaos_exchange,
            self.schedule,
            self._counter,
            self.hang_seconds,
            self.slow_seconds,
        )

    @property
    def queries_seen(self) -> int:
        """Global exchange positions consumed so far (includes retries)."""
        return int(self._counter.value)

    def clear_faults(self) -> None:
        """Stop injecting (fault recovery scenario: the outage ends)."""
        self.schedule = FaultSchedule.none()
        self.close()  # running children still hold the old schedule


# ----------------------------------------------------------------------
# In-process fault injection (property-test speed)
# ----------------------------------------------------------------------


class FlakyDaemon:
    """In-process :class:`~repro.pti.daemon.PTIBackend` injecting faults.

    Raises the typed failures the resilient subprocess wrapper surfaces
    (:class:`DaemonCrash`, :class:`DaemonTimeout`, :class:`CorruptReply`)
    -- or, with ``raw_errors=True``, the *raw* exceptions a non-resilient
    daemon would leak (``EOFError``/``TimeoutError``/``ValueError``), to
    exercise the engine's catch-all fail-closed path.

    HANG faults consume the query's remaining deadline on the injected
    :class:`FakeClock` (when provided) before raising, mimicking a receive
    that waited its full timeout.
    """

    def __init__(
        self,
        inner: PTIDaemon,
        schedule: FaultSchedule,
        *,
        clock: FakeClock | None = None,
        hang_seconds: float = 30.0,
        raw_errors: bool = False,
        poison_queries: frozenset[str] = frozenset(),
    ) -> None:
        self.inner = inner
        self.schedule = schedule
        self.clock = clock
        self.hang_seconds = hang_seconds
        self.raw_errors = raw_errors
        self.poison_queries = poison_queries
        self.calls = 0
        self.faults_fired = 0

    @property
    def store(self) -> FragmentStore:
        return self.inner.store

    @property
    def timings(self):
        return self.inner.timings

    def refresh_fragments(self, store: FragmentStore) -> None:
        self.inner.refresh_fragments(store)

    def cache_stats(self) -> dict[str, dict[str, float]]:
        return self.inner.cache_stats()

    def resilience_snapshot(self) -> dict[str, int]:
        return {"calls": self.calls, "faults_fired": self.faults_fired}

    def analyze_batch(self, queries: list[str], deadline: Deadline | None = None):
        """Each query consumes a position; any fault fails the whole batch."""
        return [self.analyze_query(query, deadline) for query in queries]

    def analyze_query(self, query: str, deadline: Deadline | None = None):
        index = self.calls
        self.calls += 1
        if POISON_MARKER in query or query in self.poison_queries:
            self.faults_fired += 1
            if self.raw_errors:
                raise EOFError("poison query killed the daemon")
            raise DaemonCrash("poison query killed the daemon")
        fault = self.schedule.fault_at(index)
        if fault is FaultKind.CRASH:
            self.faults_fired += 1
            if self.raw_errors:
                raise EOFError("injected child crash")
            raise DaemonCrash("injected child crash")
        if fault is FaultKind.HANG:
            self.faults_fired += 1
            if self.clock is not None:
                remaining = deadline.remaining() if deadline is not None else None
                self.clock.advance(
                    self.hang_seconds if remaining is None else remaining
                )
            if self.raw_errors:
                raise TimeoutError("injected hang")
            raise DaemonTimeout("injected hang")
        if fault is FaultKind.CORRUPT:
            self.faults_fired += 1
            if self.raw_errors:
                raise ValueError("injected corrupt reply")
            raise CorruptReply("injected corrupt reply")
        # SLOW is a no-op in-process (latency is the subprocess harness's
        # concern); fall through to a genuine analysis.
        return self.inner.analyze_query(query, deadline=deadline)
