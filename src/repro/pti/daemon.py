"""The PTI daemon (paper Section IV-C).

The paper runs PTI as a separate native daemon so that deployment needs no
administrator privileges: the PHP application spawns the daemon and talks to
it over pipes.  This module provides both flavours:

- :class:`PTIDaemon` -- the analysis service itself (fragment matching plus
  the query and structure caches), usable in-process.  Per-stage wall-clock
  timings are recorded so the Figure 7 breakdown can be regenerated.
- :class:`SubprocessPTIDaemon` -- a real child process hosting a
  :class:`PTIDaemon`, reached over a pipe.  Two lifetimes mirror the paper:
  ``persistent=True`` spawns once and reuses the process (the optimized
  daemon); ``persistent=False`` spawns a fresh process per query (the
  paper's unoptimized initial implementation).  Spawn and IPC times are
  accounted separately because the paper's "PHP extension" overhead
  estimate is computed by excluding exactly those costs (Section VI-C).

Failure model (DESIGN.md section 7): the subprocess wrapper is the
resilient edge of the system.  Receives are ``poll(timeout)``-bounded (a
hung child cannot stall a request forever), respawn/IPC retries follow an
exponential-backoff-with-jitter :class:`~repro.core.resilience.RetryPolicy`,
and a :class:`~repro.core.resilience.CircuitBreaker` around spawn/IPC turns
a crash-looping child into fast typed refusals instead of a spawn storm.
The only exceptions that escape :meth:`SubprocessPTIDaemon.analyze_batch`
are the typed :class:`~repro.core.resilience.PTIFailure` family and
:class:`~repro.core.resilience.DeadlineExceeded`; the engine converts both
into fail-closed verdicts, never letting a query through unvetted.

One protocol (DESIGN.md section 11): every backend -- in-process or
subprocess -- is a :class:`PTIBackend`, analysis is called through
``analyze_batch(queries, deadline)``, and the subprocess pipe carries
nothing but packed :mod:`~repro.pti.wire` request and reply frames.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import time
import typing
from dataclasses import dataclass, field

from . import wire
from ..core.resilience import (
    CircuitBreaker,
    CorruptReply,
    Counters,
    DaemonCrash,
    DaemonTimeout,
    DaemonUnavailable,
    Deadline,
    PTIFailure,
    RetryPolicy,
)
from ..core.verdict import AnalysisResult, Technique
from ..sqlparser.parser import critical_tokens
from ..sqlparser.skeleton import Skeleton, skeletonize
from ..sqlparser.tokens import Token
from .caches import QueryCache, StructureCache
from .fragments import FragmentStore
from .inference import PTIAnalyzer, PTIConfig

__all__ = [
    "DaemonReply",
    "PTIBackend",
    "PTIDaemon",
    "SubprocessPTIDaemon",
    "reap_child",
]


@dataclass
class DaemonReply:
    """What the daemon communicates back to the application wrapper."""

    safe: bool
    result: AnalysisResult
    tokens: list[Token] | None = None  # None when served from a cache
    from_cache: str | None = None  # "query" | "structure" | None


@dataclass
class DaemonConfig:
    """Cache/optimization switches (each a Table V / Fig. 7 ablation axis).

    ``strict_tokens`` selects the Ray/Ligatti-style token policy in which
    identifiers are critical too (paper Section II's adjustable policy).

    The embedded :class:`~repro.pti.inference.PTIConfig` carries the
    matching-engine selector (``matcher=auto|scan|automaton``, DESIGN.md
    section 9); because the whole config is pickled into
    :class:`SubprocessPTIDaemon` children, the one-pass automaton engine is
    threaded through the real subprocess deployment unchanged.
    """

    use_query_cache: bool = True
    use_structure_cache: bool = True
    pti: PTIConfig = field(default_factory=PTIConfig)
    strict_tokens: bool = False


class PTIBackend(typing.Protocol):
    """What the engine calls on its PTI backend (DESIGN.md section 11).

    ``timings`` holds wall-clock seconds per :data:`~repro.pti.wire.STAGES`
    stage (Figure 7); ``cache_stats`` reads the caches this process can
    see (``{}`` when they live in a child); ``resilience_snapshot`` reads
    the backend's fault and call counters.
    """

    timings: Counters

    @property
    def store(self) -> FragmentStore: ...

    def analyze_batch(
        self, queries: list[str], deadline: Deadline | None = None
    ) -> list[DaemonReply]: ...

    def analyze_query(
        self, query: str, deadline: Deadline | None = None
    ) -> DaemonReply: ...

    def refresh_fragments(self, store: FragmentStore) -> None: ...

    def cache_stats(self) -> dict[str, dict[str, float]]: ...

    def resilience_snapshot(self) -> dict[str, object]: ...


class PTIDaemon:
    """The PTI analysis service: parse, cache-lookup, fragment-match."""

    def __init__(
        self, store: FragmentStore, config: DaemonConfig | None = None
    ) -> None:
        self.config = config or DaemonConfig()
        self.analyzer = PTIAnalyzer(store, self.config.pti)
        #: Both caches hold results for the fragment-store epoch they were
        #: proven under (:class:`~repro.pti.caches.EpochLRU`); after a store
        #: swap (:meth:`refresh_fragments`) the first lookup under the new
        #: store's epoch flushes them.
        self.query_cache = QueryCache()
        self.structure_cache = StructureCache()
        self.timings = Counters(wire.STAGES)
        self.queries_analyzed = 0
        #: Serializes the analysis pipeline.  The caches and timings lock
        #: themselves, but a store swap replaces the analyzer; one
        #: in-process daemon shared by N threads must not interleave them.
        #: In-process match work is GIL-serialized anyway -- parallel
        #: analysis comes from the gateway's worker fleet (DESIGN.md
        #: section 12).
        self._lock = threading.RLock()

    @property
    def store(self) -> FragmentStore:
        return self.analyzer.store

    def refresh_fragments(self, store: FragmentStore) -> None:
        """Swap in a new fragment set (plugin installed/updated, IV-B).

        Cached verdicts were computed against the old vocabulary; the new
        store's epoch is larger, so each cache drops them at its first
        lookup under it.
        """
        with self._lock:
            self.analyzer = PTIAnalyzer(store, self.config.pti)

    def warm(self) -> None:
        """Precompile the matcher for the current store.

        Called while the daemon is off the request path (a benchmark's
        setup, after :meth:`refresh_fragments`) so the first query against
        the vocabulary does not pay the automaton build inline.
        """
        with self._lock:
            self.analyzer.warm()

    def cache_stats(self) -> dict[str, dict[str, float]]:
        """Query and structure cache readings plus the matcher counters."""
        return {
            "query": self.query_cache.snapshot_stats(),
            "structure": self.structure_cache.snapshot_stats(),
            "matcher": self.analyzer.matcher_stats(),
        }

    def resilience_snapshot(self) -> dict[str, object]:
        """An in-process daemon absorbs no faults: its call count only."""
        return {"queries_analyzed": self.queries_analyzed}

    def analyze_batch(
        self, queries: list[str], deadline: Deadline | None = None
    ) -> list[DaemonReply]:
        """Analyze a batch under ONE lock acquisition.

        Semantically identical to ``[analyze_query(q) for q in queries]``
        -- same caches, same epoch flush, same deadline checks -- and
        built from exactly those calls (the lock is reentrant), but the
        daemon lock is held for the whole batch, so concurrent callers
        cannot interleave mid-batch.  Because the epoch check runs under
        the same continuously-held lock, every query in the batch is
        served against one consistent fragment-store epoch.
        """
        with self._lock:
            return [self.analyze_query(query, deadline) for query in queries]

    def analyze_query(
        self, query: str, deadline: Deadline | None = None
    ) -> DaemonReply:
        """Full daemon pipeline for one query.

        ``deadline`` bounds the in-process stages: it is checked between
        the cache-lookup, parse and match stages (the match stage -- a scan
        over the whole fragment corpus for malicious queries -- is the only
        one that can realistically run long).  On expiry
        :class:`~repro.core.resilience.DeadlineExceeded` propagates to the
        engine, which fails the query closed.

        Thread-safe: the whole pipeline runs under the daemon lock, so an
        epoch flush can never interleave with another thread's cache fill
        and the stage timings stay consistent.
        """
        with self._lock:
            return self._analyze_locked(query, deadline)

    def _analyze_locked(
        self, query: str, deadline: Deadline | None
    ) -> DaemonReply:
        self.queries_analyzed += 1
        if deadline is not None:
            deadline.check("pti")
        # Every cache access names the store's epoch, so results proven
        # against one store never serve another.
        epoch = self.analyzer.store.epoch
        if self.config.use_query_cache:
            t0 = time.perf_counter()
            cached = self.query_cache.get(query, epoch)
            self.timings.bump(cache=time.perf_counter() - t0)
            if cached is not None:
                safe, cached_tokens = cached
                return DaemonReply(
                    safe=safe,
                    result=AnalysisResult(
                        technique=Technique.PTI, safe=safe, from_cache="query"
                    ),
                    tokens=cached_tokens,
                    from_cache="query",
                )
        skeleton: Skeleton | None = None
        t0 = time.perf_counter()
        if self.config.use_structure_cache:
            skeleton = skeletonize(query)
        tokens = critical_tokens(query, strict=self.config.strict_tokens)
        self.timings.bump(parse=time.perf_counter() - t0)
        if skeleton is not None:
            t0 = time.perf_counter()
            hit = self.structure_cache.serves(skeleton.key, query, tokens, epoch)
            self.timings.bump(cache=time.perf_counter() - t0)
            if hit:
                if self.config.use_query_cache:
                    self.query_cache.put(query, (True, tokens), epoch)
                return DaemonReply(
                    safe=True,
                    result=AnalysisResult(
                        technique=Technique.PTI, safe=True, from_cache="structure"
                    ),
                    tokens=tokens,
                    from_cache="structure",
                )
        if deadline is not None:
            deadline.check("pti")
        t0 = time.perf_counter()
        result, witnesses = self.analyzer.analyze_witnessed(query, tokens)
        self.timings.bump(match=time.perf_counter() - t0)
        t0 = time.perf_counter()
        if self.config.use_query_cache:
            self.query_cache.put(query, (result.safe, tokens), epoch)
        # Only SAFE verdicts are cacheable by skeleton, together with the
        # witnesses a later instance must re-prove (StructureCache).
        # Unsafe verdicts are not structural facts, and attacks are rare
        # enough that re-analysing them costs nothing -- "malicious queries
        # may require scanning the entire set of fragments" (Section VI-A).
        if skeleton is not None and result.safe:
            self.structure_cache.remember(
                skeleton, len(query), tokens, witnesses, epoch
            )
        self.timings.bump(cache=time.perf_counter() - t0)
        return DaemonReply(safe=result.safe, result=result, tokens=tokens)


def _reply_frame(replies: list[DaemonReply], deltas: dict[str, float]) -> bytearray:
    """Pack one reply frame.

    Critical tokens travel as spans; a batch whose tokens the packed
    format cannot carry exactly (``wire.spans_from_tokens`` refuses, or
    the spans overflow the frame) ships its verdicts without tokens, and
    the parent lexes those queries itself -- the verdicts are exact either
    way.
    """
    try:
        return wire.pack_batch_reply(
            [
                (
                    r.safe,
                    r.from_cache,
                    None if r.tokens is None else wire.spans_from_tokens(r.tokens),
                )
                for r in replies
            ],
            deltas,
        )
    except wire.WireFormatError:
        return wire.pack_batch_reply(
            [(r.safe, r.from_cache, None) for r in replies], deltas
        )


def _daemon_loop(conn, fragments: list[str], config: DaemonConfig, fault=None) -> None:
    """Child-process entry point: serve packed frames until told to stop.

    A request frame is answered with one reply frame -- one IPC exchange
    per frame -- carrying the child's per-stage timing deltas so the
    parent can attribute analysis time to parse/match/cache even across
    the process boundary (needed for the Figure 7 breakdown).  Anything
    else ends the loop: the parent's shutdown message is an empty one, and
    any other frame (a pickle or a store snapshot included) makes the
    parent see EOF -> ``DaemonCrash`` -> fail-closed, never a made-up
    verdict.

    ``fault`` is the fault-injection hook of the test harnesses
    (``tests/support/faults.py``): called with each request's queries
    before analysis, it may sleep, exit the process, or return bytes that
    are sent instead of the reply.  ``None`` in production.
    """
    daemon = PTIDaemon(FragmentStore(fragments), config)
    while True:
        try:
            buf = conn.recv_bytes()
        except EOFError:
            break
        try:
            queries = wire.unpack_batch_request(buf)
        except wire.WireFormatError:
            break
        injected = None if fault is None else fault(queries)
        if injected is not None:
            conn.send_bytes(injected)
            continue
        replies = daemon.analyze_batch(queries)
        # The loop is single-threaded: nothing moves the timings between
        # this read and the reset, so each reply carries its own deltas.
        deltas = daemon.timings.snapshot()
        daemon.timings.reset()
        conn.send_bytes(_reply_frame(replies, deltas))
    conn.close()


def reap_child(
    conn, process: multiprocessing.Process | None, *, graceful: bool = False
) -> None:
    """Tear one child down: close the pipe, then join -> terminate -> kill.

    The one reaper of both framed pipes (PTI daemon children and gateway
    workers).  ``graceful`` first sends the shutdown message (an empty
    one) and gives the child a second to exit on its own.  Children in an
    unknown state (hung, mid-crash, pipe desynchronized) skip straight to
    signals with bounded joins -- never leave a zombie behind.
    """
    if conn is not None:
        if graceful:
            try:
                conn.send_bytes(b"")
            except OSError:
                pass
        try:
            conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
    if process is None:
        return
    process.join(timeout=1.0 if graceful else 0.05)
    if process.is_alive():
        process.terminate()
        process.join(timeout=1.0)
    if process.is_alive():  # pragma: no cover - SIGTERM blocked
        process.kill()
        process.join(timeout=1.0)


#: :class:`SubprocessPTIDaemon`'s fault-absorption counters: children
#: spawned, batch retries, hung children, pipes broken mid-exchange, reply
#: frames that failed validation, batches refused (breaker open or every
#: attempt failed), and ``analyze_batch`` calls admitted past the breaker.
SUBPROCESS_COUNTERS = (
    "spawns",
    "retries",
    "timeouts",
    "crashes",
    "corrupt_replies",
    "unavailable",
    "batches",
)


class SubprocessPTIDaemon:
    """A real PTI daemon child process reached over an anonymous pipe.

    In ``persistent`` mode the process is spawned once (named-pipe-style
    long-lived daemon); otherwise every query pays a fresh spawn (the
    unoptimized configuration of Figure 7).

    Resilience contract: :meth:`analyze_batch` either returns one
    :class:`DaemonReply` per query or raises a typed
    :class:`~repro.core.resilience.PTIFailure` /
    :class:`~repro.core.resilience.DeadlineExceeded`.  Raw pipe errors
    (``EOFError``, ``BrokenPipeError``, ``OSError``) never escape; replies
    are shape-validated so a corrupted child message surfaces as
    :class:`~repro.core.resilience.CorruptReply` rather than an unpacking
    crash in the request path.

    Args:
        store: fragment vocabulary served to spawned children.
        config: cache/optimization switches (pickled/forked into children).
        persistent: reuse one child (True) vs spawn per query (False).
        recv_timeout: ``poll`` bound on each reply wait; a child that stays
            silent longer is declared hung, killed and (maybe) retried.
        retry: backoff schedule for respawn/IPC retries.
        breaker: circuit breaker guarding spawn/IPC; ``None`` installs a
            default :class:`~repro.core.resilience.CircuitBreaker`.
        seed: RNG seed for backoff jitter (reproducible chaos runs).
    """

    def __init__(
        self,
        store: FragmentStore,
        config: DaemonConfig | None = None,
        *,
        persistent: bool = True,
        recv_timeout: float | None = 5.0,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        seed: int | None = None,
    ) -> None:
        self._store = store
        self.config = config or DaemonConfig()
        self.persistent = persistent
        self.recv_timeout = recv_timeout
        self.retry = retry or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self._rng = random.Random(seed)
        self.timings = Counters(wire.STAGES)
        self._conn = None
        self._process: multiprocessing.Process | None = None
        #: Guards the ``_conn``/``_process`` slots (check-spawn-assign,
        #: discard, close are each atomic).  Reentrant: ``_exchange``
        #: holds it during checkout and may call ``_discard_child``.
        self._lifecycle = threading.RLock()
        #: Serializes pipe I/O: the persistent pipe is strict FIFO, so two
        #: threads interleaving send/recv would desynchronize replies.
        #: ``close()`` deliberately does NOT take this lock -- it swaps the
        #: slots under ``_lifecycle`` and closes the pipe, which surfaces
        #: in a blocked reader as ``OSError`` -> ``DaemonCrash`` (the
        #: in-flight request fails closed; no child is leaked).
        self._io_lock = threading.Lock()
        #: Fault-absorption counters (surfaced via resilience_snapshot()).
        self.counters = Counters(SUBPROCESS_COUNTERS)

    # ------------------------------------------------------------------
    # Fragment access (engine shape analyzer + protect() refresh hook)
    # ------------------------------------------------------------------

    @property
    def store(self) -> FragmentStore:
        """The fragment vocabulary served to spawned children."""
        return self._store

    def refresh_fragments(self, store: FragmentStore) -> None:
        """Swap the fragment set; the child is restarted on next use.

        Waits for an exchange in flight (the I/O lock), which finishes on
        the old child: retiring the child under it would fail it closed,
        and a run of swaps under traffic would open the breaker.
        """
        with self._io_lock:
            with self._lifecycle:
                self._store = store
            self.close()

    # ------------------------------------------------------------------
    # Child lifecycle
    # ------------------------------------------------------------------

    def _fault_hook(self):
        """Child-side fault hook (see :func:`_daemon_loop`); tests only."""
        return None

    def _spawn(self):
        t0 = time.perf_counter()
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_daemon_loop,
            args=(
                child_conn, self._store.fragments, self.config, self._fault_hook()
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.counters.bump(spawns=1)
        self.timings.bump(spawn=time.perf_counter() - t0)
        return parent_conn, process

    def _discard_child(self, conn, process) -> None:
        """Drop a failed child; clears persistent state when it matches.

        The slot check-and-clear is atomic under the lifecycle lock so a
        concurrent ``close()`` (which swaps the slots first) and a failing
        round trip both reap *their own* child exactly once -- reaping an
        already-reaped process is a no-op, so the overlap is harmless.
        """
        with self._lifecycle:
            if self.persistent and conn is self._conn:
                self._conn = None
                self._process = None
        reap_child(conn, process)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def _exchange(
        self, queries: list[str], frames: list[bytearray], deadline: Deadline
    ) -> list[DaemonReply]:
        """One spawn-if-needed pass sending ``frames`` and reading replies.

        Each frame (at most ``wire.MAX_BATCH`` queries) is one send, one
        deadline-clamped ``poll`` and one receive.  Serialized on the I/O
        lock (the pipe is strict FIFO); the child checkout is additionally
        atomic under the lifecycle lock so a concurrent ``close()`` or
        ``refresh_fragments()`` can never observe a half-assigned
        ``(_conn, _process)`` pair or leak a child.  Any failed frame
        discards the child and fails the whole batch -- never partially.
        """
        with self._io_lock:
            with self._lifecycle:
                if self.persistent:
                    if self._process is None or not self._process.is_alive():
                        self._discard_child(self._conn, self._process)
                        self._conn, self._process = self._spawn()
                    conn, process = self._conn, self._process
                else:
                    conn, process = self._spawn()
            replies: list[DaemonReply] = []
            analysis = 0.0
            t0 = time.perf_counter()
            try:
                for start, frame in zip(range(0, len(queries), wire.MAX_BATCH), frames):
                    try:
                        conn.send_bytes(frame)
                        timeout = deadline.bound(self.recv_timeout)
                        if timeout is not None and not conn.poll(timeout):
                            self.counters.bump(timeouts=1)
                            raise DaemonTimeout(
                                f"daemon reply not received within {timeout:.3f}s"
                            )
                        payload = conn.recv_bytes()
                    except (EOFError, BrokenPipeError, ConnectionError, OSError) as exc:
                        self.counters.bump(crashes=1)
                        raise DaemonCrash(f"daemon pipe failed: {exc!r}") from exc
                    try:
                        decoded, child_deltas = self._decode_batch(
                            queries[start : start + wire.MAX_BATCH], payload
                        )
                    except CorruptReply:
                        self.counters.bump(corrupt_replies=1)
                        raise
                    replies.extend(decoded)
                    # Attribute the child's analysis stages; only the
                    # residual (codec + pipe transit + scheduling) is IPC.
                    self.timings.bump(**child_deltas)
                    analysis += sum(child_deltas.values())
            except PTIFailure:
                # The pipe is dead or desynchronized; this child is unusable.
                self._discard_child(conn, process)
                raise
            self.timings.bump(ipc=max(time.perf_counter() - t0 - analysis, 0.0))
            if not self.persistent:
                reap_child(conn, process, graceful=True)
            return replies

    def _decode_batch(
        self, queries: list[str], payload: bytes
    ) -> tuple[list[DaemonReply], dict[str, float]]:
        """Validate + decode one reply frame (anything else: ``CorruptReply``)."""
        try:
            verdicts, child_deltas = wire.unpack_batch_reply(payload)
            if len(verdicts) != len(queries):
                raise CorruptReply(
                    f"batch reply count {len(verdicts)} != request {len(queries)}"
                )
            replies = [
                DaemonReply(
                    safe=safe,
                    result=AnalysisResult(
                        technique=Technique.PTI, safe=safe, from_cache=from_cache
                    ),
                    tokens=None
                    if spans is None
                    else wire.tokens_from_spans(query, spans),
                    from_cache=from_cache,
                )
                for query, (safe, from_cache, spans) in zip(queries, verdicts)
            ]
        except wire.WireFormatError as exc:
            raise CorruptReply(f"malformed reply frame: {exc}") from exc
        return replies, child_deltas

    def analyze_batch(
        self, queries: list[str], deadline: Deadline | None = None
    ) -> list[DaemonReply]:
        """Ship a batch to the child and wait (boundedly) for its verdicts.

        The batch travels as packed frames of at most ``wire.MAX_BATCH``
        queries each, all under the one deadline, and succeeds or fails
        closed as a unit.  A persistent daemon that died between calls
        (crash, OOM-kill) is respawned transparently -- losing only its
        caches, never failing open: a query is executed only after a live
        daemon vouches for it.  Transient failures are retried, re-sending
        the whole batch, with jittered exponential backoff; a batch that
        *deterministically* kills the child (a poison query) exhausts the
        attempts and surfaces as
        :class:`~repro.core.resilience.DaemonUnavailable` with the failure
        chain recorded -- never as a raw ``EOFError`` in the request path.
        When the breaker is open, no spawn is attempted at all.
        """
        if not queries:
            return []
        if deadline is None:
            deadline = Deadline.unbounded()
        if not self.breaker.allow():
            self.counters.bump(unavailable=1)
            raise DaemonUnavailable(
                "circuit breaker open: daemon spawn/IPC suspended",
                breaker_open=True,
            )
        try:
            frames = [
                wire.pack_batch_request(queries[start : start + wire.MAX_BATCH])
                for start in range(0, len(queries), wire.MAX_BATCH)
            ]
        except wire.WireFormatError as exc:
            raise PTIFailure(f"request cannot be framed: {exc}") from exc
        self.counters.bump(batches=1)
        last_failure: PTIFailure | None = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                self.counters.bump(retries=1)
                delay = deadline.bound(self.retry.delay(attempt - 1, self._rng))
                if delay:
                    time.sleep(delay)
            deadline.check("pti-daemon")
            try:
                replies = self._exchange(queries, frames, deadline)
            except PTIFailure as failure:
                last_failure = failure
                self.breaker.record_failure()
                if not self.breaker.allow():
                    break
                continue
            self.breaker.record_success()
            return replies
        self.counters.bump(unavailable=1)
        reason = last_failure.reason if last_failure is not None else "unknown"
        raise DaemonUnavailable(
            f"daemon analysis failed after {self.retry.max_attempts} "
            f"attempt(s): {reason}"
        ) from last_failure

    def analyze_query(
        self, query: str, deadline: Deadline | None = None
    ) -> DaemonReply:
        """One query: :meth:`analyze_batch` of one."""
        return self.analyze_batch([query], deadline)[0]

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def cache_stats(self) -> dict[str, dict[str, float]]:
        """None visible here: the caches live in the child process."""
        return {}

    def resilience_snapshot(self) -> dict[str, object]:
        """Fault-absorption counters for the audit export / bench reports."""
        return {**self.counters.snapshot(), "breaker": self.breaker.snapshot()}

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down a persistent child process.

        Idempotent, and safe against every child state: a healthy child
        gets the graceful shutdown message; a hung or half-dead one is
        escalated terminate -> kill with bounded joins so no zombie (nor
        stuck parent) survives ``close()``.

        Safe against a concurrent in-flight round trip: the slots are
        swapped out atomically under the lifecycle lock, then the pipe is
        closed from this thread.  A reader blocked in ``poll``/``recv`` on
        that pipe observes ``OSError``, which the round trip converts into
        :class:`~repro.core.resilience.DaemonCrash` (fail-closed) and whose
        ``_discard_child`` reaps its own handle -- already-reaped children
        make that a no-op, so no child is leaked and none double-freed.
        """
        with self._lifecycle:
            conn, self._conn = self._conn, None
            process, self._process = self._process, None
        reap_child(conn, process, graceful=True)

    def __enter__(self) -> "SubprocessPTIDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
