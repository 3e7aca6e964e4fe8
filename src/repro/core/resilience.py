"""Fault-tolerance primitives for the guard runtime.

The paper's deployment story ("the daemon approach requires no
administrative privileges", Section IV-C) makes the PTI analysis a separate
process reached over a pipe -- which means the *availability* of the
analysis is a distributed-systems problem: children crash, hang, reply
slowly, reply garbage, or crash deterministically on one particular query.
The guard's contract is stronger than the happy path: it **never fails
open** -- a query reaches the database only after a live analysis vouched
for it -- and its failure behavior must be *bounded* (a hung child must
not stall a request forever) and *observable* (operators must see the
runtime absorbing faults).

This module provides the policy-free mechanisms; the wiring lives in
:class:`~repro.core.engine.JozaEngine` and
:class:`~repro.pti.daemon.SubprocessPTIDaemon`:

- :class:`Deadline` -- a per-query analysis budget threaded through every
  analysis path (daemon IPC, the NTI input x token comparison loop).
- :class:`RetryPolicy` -- exponential backoff with full deterministic
  jitter for daemon respawn/IPC retries.
- :class:`CircuitBreaker` -- the classic closed -> open -> half-open state
  machine guarding daemon spawn/IPC, so a crash-looping child trips the
  breaker instead of spawn-storming the host.
- :class:`RingLog` -- a capacity-bounded audit ring buffer (the attack log
  must not grow without bound under a sustained attack flood).
- :class:`Counters` -- named numeric cells under one lock: the engine's,
  the gateway's and the PTI daemon's counters and stage timings.
- The :class:`PTIFailure` exception family -- the *only* exceptions the
  resilient daemon wrapper lets escape into the request path, each
  carrying a reason string that ends up in the audit export.
"""

from __future__ import annotations

import collections
import enum
import random
import threading
import time
import typing
from dataclasses import dataclass

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "PTIFailure",
    "DaemonTimeout",
    "DaemonCrash",
    "CorruptReply",
    "DaemonUnavailable",
    "RetryPolicy",
    "BreakerState",
    "CircuitBreaker",
    "ResilienceConfig",
    "RingLog",
    "Counters",
]


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


class DeadlineExceeded(Exception):
    """An analysis stage ran past the per-query budget.

    Never escapes :meth:`JozaEngine.inspect`: the engine converts it into a
    fail-closed verdict.
    """

    def __init__(self, stage: str, budget: float) -> None:
        super().__init__(f"analysis deadline exceeded in {stage} (budget {budget:.3f}s)")
        self.stage = stage
        self.budget = budget


class Deadline:
    """A monotonic per-query analysis budget.

    A ``Deadline`` is created once per intercepted query and handed down
    through every analysis stage.  Stages that loop (the NTI input x token
    comparison loop, the daemon retry loop) call :meth:`check` per
    iteration; stages that block (pipe receive) bound their wait with
    :meth:`remaining`.

    ``seconds=None`` means unbounded -- every ``check`` passes and
    ``remaining`` returns ``None`` -- so un-configured deployments keep the
    seed behavior exactly.

    The clock is injectable so the fault-injection harness can simulate
    hangs without sleeping.
    """

    __slots__ = ("seconds", "_clock", "_t0")

    def __init__(
        self,
        seconds: float | None,
        clock: typing.Callable[[], float] = time.monotonic,
    ) -> None:
        self.seconds = seconds
        self._clock = clock
        self._t0 = clock()

    @classmethod
    def unbounded(cls) -> "Deadline":
        return cls(None)

    def elapsed(self) -> float:
        return self._clock() - self._t0

    def remaining(self) -> float | None:
        """Seconds left, floored at 0.0; ``None`` when unbounded."""
        if self.seconds is None:
            return None
        return max(self.seconds - self.elapsed(), 0.0)

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def check(self, stage: str) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(stage, self.seconds or 0.0)

    def bound(self, timeout: float | None) -> float | None:
        """Clamp a stage timeout to the remaining budget.

        ``min`` of the two bounds, treating ``None`` as infinite on both
        sides; used to derive the pipe ``poll`` timeout from the configured
        receive timeout and the query's remaining budget.
        """
        remaining = self.remaining()
        if remaining is None:
            return timeout
        if timeout is None:
            return remaining
        return min(timeout, remaining)


# ----------------------------------------------------------------------
# Failure taxonomy
# ----------------------------------------------------------------------


class PTIFailure(Exception):
    """Base of the typed failures a resilient daemon wrapper may raise.

    The request path (``JozaEngine.inspect``) catches this family and
    resolves it to a fail-closed verdict; it never reaches application
    code.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class DaemonTimeout(PTIFailure):
    """The child did not reply within the receive timeout (hang / overload)."""


class DaemonCrash(PTIFailure):
    """The pipe broke mid-flight: the child died under the query."""


class CorruptReply(PTIFailure):
    """The child replied with a malformed message (memory corruption, bug)."""


class DaemonUnavailable(PTIFailure):
    """All recovery attempts were exhausted (or the breaker is open)."""

    def __init__(self, reason: str, *, breaker_open: bool = False) -> None:
        super().__init__(reason)
        self.breaker_open = breaker_open


# ----------------------------------------------------------------------
# Retry with exponential backoff + jitter
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic full-range jitter.

    The un-jittered delay for attempt ``i`` (0-based) is
    ``base_delay * multiplier ** i`` capped at ``max_delay``; the actual
    delay is drawn uniformly from ``[delay * (1 - jitter), delay]`` so a
    fleet of workers whose daemons died together do not respawn in
    lock-step (the classic thundering-herd jitter argument).  Draws come
    from a caller-supplied :class:`random.Random`, so fault-injection runs
    are reproducible from a seed.
    """

    max_attempts: int = 3
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def raw_delay(self, attempt: int) -> float:
        """The un-jittered (upper-bound) delay before retry ``attempt``."""
        return min(self.base_delay * self.multiplier ** attempt, self.max_delay)

    def delay(self, attempt: int, rng: random.Random) -> float:
        """The jittered delay before retry ``attempt`` (0-based)."""
        upper = self.raw_delay(attempt)
        lower = upper * (1.0 - self.jitter)
        return rng.uniform(lower, upper)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Closed -> open -> half-open -> closed state machine.

    - **closed**: operations flow; ``failure_threshold`` *consecutive*
      failures trip the breaker open.
    - **open**: operations are refused outright (no spawn storm) until
      ``reset_timeout`` seconds have passed, after which the next
      :meth:`allow` transitions to half-open.
    - **half-open**: up to ``half_open_probes`` trial operations are let
      through; a success re-closes the breaker (and resets the failure
      count), a failure re-opens it and restarts the timeout.

    The clock is injectable for deterministic tests.  The breaker is a pure
    state machine -- it never sleeps and never spawns anything itself.

    Thread safety: every transition runs under an internal lock, so the
    breaker can guard a daemon shared by N request threads.  The critical
    atomicity is the half-open probe token: ``allow`` consumes a probe slot
    and exactly ``half_open_probes`` concurrent callers may win it -- a torn
    check-then-increment would let a thundering herd through a half-open
    breaker, exactly the spawn storm it exists to prevent.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 5.0,
        half_open_probes: int = 1,
        clock: typing.Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.RLock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probes_in_flight = 0
        # Observability counters.
        self.times_opened = 0
        self.times_reclosed = 0
        self.rejections = 0

    def _current_state(self) -> BreakerState:
        """Lock held: apply the open -> half-open timeout transition."""
        if (
            self._state is BreakerState.OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = BreakerState.HALF_OPEN
            self._probes_in_flight = 0
        return self._state

    @property
    def state(self) -> BreakerState:
        """Current state, applying the open -> half-open timeout transition."""
        with self._lock:
            return self._current_state()

    def allow(self) -> bool:
        """Whether one operation may proceed now.

        In half-open state each ``allow`` atomically consumes one probe
        slot; callers must follow up with :meth:`record_success` or
        :meth:`record_failure`.
        """
        with self._lock:
            state = self._current_state()
            if state is BreakerState.CLOSED:
                return True
            if state is BreakerState.HALF_OPEN:
                if self._probes_in_flight < self.half_open_probes:
                    self._probes_in_flight += 1
                    return True
                self.rejections += 1
                return False
            self.rejections += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probes_in_flight = max(self._probes_in_flight - 1, 0)
            if self._state is not BreakerState.CLOSED:
                self._state = BreakerState.CLOSED
                self._opened_at = None
                self.times_reclosed += 1

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            self._probes_in_flight = max(self._probes_in_flight - 1, 0)
            if self._state is BreakerState.HALF_OPEN or (
                self._state is BreakerState.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = BreakerState.OPEN
                self._opened_at = self._clock()
                self.times_opened += 1

    def snapshot(self) -> dict[str, object]:
        """Counters + state for the audit export (one consistent read)."""
        with self._lock:
            return {
                "state": self._current_state().value,
                "consecutive_failures": self._consecutive_failures,
                "times_opened": self.times_opened,
                "times_reclosed": self.times_reclosed,
                "rejections": self.rejections,
            }


# ----------------------------------------------------------------------
# Engine-level configuration
# ----------------------------------------------------------------------


@dataclass
class ResilienceConfig:
    """Engine-level fault-tolerance knobs (see DESIGN.md section 7).

    Attributes:
        deadline_seconds: per-query analysis budget across *all* stages
            (PTI daemon round-trip including retries, plus the NTI
            comparison loop).  ``None`` (the default) keeps the seed's
            unbounded behavior.
        attack_log_capacity: ring-buffer capacity of the audit attack log;
            older records are dropped (and counted) beyond this.
        clock: monotonic time source used for deadlines; injectable so the
            chaos harness can simulate hangs without wall-clock sleeps.
    """

    deadline_seconds: float | None = None
    attack_log_capacity: int = 10_000
    clock: typing.Callable[[], float] = time.monotonic

    def start_deadline(self) -> Deadline:
        """A fresh per-query deadline on this config's clock."""
        return Deadline(self.deadline_seconds, self.clock)


# ----------------------------------------------------------------------
# Bounded audit log
# ----------------------------------------------------------------------


class RingLog:
    """A capacity-bounded append-only ring buffer with a drop counter.

    Drop-in replacement for the engine's former ``list`` attack log: it
    supports ``append``, ``len``, truthiness, iteration, indexing (incl.
    negative), and ``clear``.  When full, appends evict the *oldest*
    record and increment :attr:`dropped_records` -- under an attack flood
    the most recent evidence is what an operator wants, and memory stays
    bounded.

    Thread safety: ``append`` is a check-then-count-then-push sequence; two
    unsynchronized appenders at capacity could both observe "full" before
    either pushed (double-counted drop) or interleave count and push (lost
    drop).  Every mutation and the drop counter therefore share one lock;
    iteration snapshots the deque so concurrent appends never invalidate a
    reader mid-walk.

    Persistence: :meth:`attach_sink` registers a callable that receives
    every appended record (a gateway's durable state journals it; DESIGN.md
    section 15).  Evicting a record the sink accepted loses no attack
    evidence -- the ring bounds memory while the journal keeps the full
    trail -- so each entry remembers whether it was persisted, and its
    eviction counts in :attr:`drops_recovered` if it was and in
    :attr:`dropped_records` if not.  A raising sink must never take the guard's
    audit path down with it: the record still lands in the ring, the
    failure is counted in :attr:`sink_failures`, and the error is
    swallowed (availability of the in-memory log wins; durability gaps
    are surfaced through the counter, not through an exception on the
    block path).
    """

    __slots__ = (
        "_capacity",
        "_items",
        "_persisted",
        "_lock",
        "_sink",
        "dropped_records",
        "drops_recovered",
        "persisted_records",
        "sink_failures",
    )

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self._items: "collections.deque" = collections.deque(maxlen=capacity)
        #: Whether the sink accepted each entry of ``_items`` (same order).
        self._persisted: "collections.deque" = collections.deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._sink: typing.Callable[[typing.Any], None] | None = None
        self.dropped_records = 0
        self.drops_recovered = 0
        self.persisted_records = 0
        self.sink_failures = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def attach_sink(self, sink: typing.Callable[[typing.Any], None] | None) -> None:
        """Register (or with ``None`` detach) the persistence sink."""
        with self._lock:
            self._sink = sink

    def append(self, item) -> None:
        with self._lock:
            persisted = False
            if self._sink is not None:
                try:
                    self._sink(item)
                    persisted = True
                    self.persisted_records += 1
                except Exception:
                    self.sink_failures += 1
            if len(self._items) == self._capacity:
                if self._persisted[0]:
                    self.drops_recovered += 1
                else:
                    self.dropped_records += 1
            self._items.append(item)
            self._persisted.append(persisted)

    def clear(self) -> None:
        """Drop all records (keeps the cumulative drop counter)."""
        with self._lock:
            self._items.clear()
            self._persisted.clear()

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self):
        with self._lock:
            return iter(tuple(self._items))

    def __getitem__(self, index):
        with self._lock:
            if isinstance(index, slice):
                return list(self._items)[index]
            return self._items[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RingLog(capacity={self._capacity}, size={len(self._items)}, "
            f"dropped={self.dropped_records})"
        )


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------


class Counters:
    """Named numeric cells, all behind one lock.

    The one counter type of the runtime: the engine's query counters
    (``EngineStats``), the gateway's, and the PTI daemon's fault counters
    and stage timings.  The names are fixed at construction; each cell
    starts at 0.

    Thread safety: :meth:`bump` applies all its deltas under one lock
    acquisition and :meth:`snapshot` reads under the same lock, so a
    reader never observes one field of a bump without the others, and no
    increment is lost to a read-modify-write race (DESIGN.md section 10).
    A single cell reads as an attribute (``stats.shape_hits``).
    """

    __slots__ = ("_cells", "_lock")

    def __init__(self, names: typing.Iterable[str]) -> None:
        self._cells: dict[str, float] = dict.fromkeys(names, 0)
        self._lock = threading.Lock()

    def bump(self, **deltas: float) -> None:
        """Add each delta to its cell, all under one lock acquisition.

        An unknown name raises :class:`KeyError` (a programming error).
        """
        cells = self._cells
        with self._lock:
            for name, delta in deltas.items():
                cells[name] += delta

    def snapshot(self, names: typing.Iterable[str] | None = None) -> dict[str, float]:
        """One consistent read of ``names`` (default: every cell)."""
        with self._lock:
            if names is None:
                return dict(self._cells)
            return {name: self._cells[name] for name in names}

    def reset(self) -> None:
        """Zero every cell."""
        with self._lock:
            self._cells.update(dict.fromkeys(self._cells, 0))

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self._cells[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__} has no counter {name!r}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.snapshot()})"
