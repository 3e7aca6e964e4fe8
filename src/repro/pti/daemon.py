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
The only exceptions that escape :meth:`SubprocessPTIDaemon.analyze_query`
are the typed :class:`~repro.core.resilience.PTIFailure` family and
:class:`~repro.core.resilience.DeadlineExceeded`; the engine converts both
into fail-closed or degraded verdicts, never letting a query through
unvetted.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random
import threading
import time
from dataclasses import dataclass, field

from . import wire
from ..core.resilience import (
    CircuitBreaker,
    CorruptReply,
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

__all__ = ["DaemonReply", "StageTimings", "PTIDaemon", "SubprocessPTIDaemon"]


class StageTimings:
    """Accumulated wall-clock seconds per pipeline stage."""

    STAGES = ("spawn", "ipc", "parse", "match", "cache")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {stage: 0.0 for stage in self.STAGES}

    def add(self, stage: str, dt: float) -> None:
        self.seconds[stage] = self.seconds.get(stage, 0.0) + dt

    def total(self, *, exclude: tuple[str, ...] = ()) -> float:
        return sum(v for k, v in self.seconds.items() if k not in exclude)

    def reset(self) -> None:
        for stage in self.seconds:
            self.seconds[stage] = 0.0

    def snapshot(self) -> dict[str, float]:
        return dict(self.seconds)


# The wire format packs stage deltas positionally; the two stage tuples
# must never drift apart.
assert StageTimings.STAGES == wire.STAGES


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
    query_cache_capacity: int = 10_000
    structure_cache_capacity: int = 10_000
    strict_tokens: bool = False


class PTIDaemon:
    """The PTI analysis service: parse, cache-lookup, fragment-match."""

    def __init__(
        self, store: FragmentStore, config: DaemonConfig | None = None
    ) -> None:
        self.config = config or DaemonConfig()
        self.analyzer = PTIAnalyzer(store, self.config.pti)
        self.query_cache = QueryCache(self.config.query_cache_capacity)
        self.structure_cache = StructureCache(self.config.structure_cache_capacity)
        self.timings = StageTimings()
        self.queries_analyzed = 0
        #: Serializes the analysis pipeline.  The individual caches are
        #: independently locked, but the epoch-flush is check-then-act and
        #: the stage timings are read-modify-write; one in-process daemon
        #: shared by N threads must not interleave them.  In-process match
        #: work is GIL-serialized anyway -- parallel PTI throughput comes
        #: from the subprocess pool (DESIGN.md section 10).
        self._lock = threading.RLock()
        #: Fragment-store epoch the caches were built under; any in-place
        #: store mutation (add/remove/reload) flushes them on next use.
        self._cache_epoch = store.epoch

    @property
    def store(self) -> FragmentStore:
        return self.analyzer.store

    def refresh_fragments(self, store: FragmentStore) -> None:
        """Swap in a new fragment set (plugin installed/updated, IV-B).

        Cached verdicts were computed against the old vocabulary, so both
        caches are invalidated.
        """
        with self._lock:
            self.analyzer = PTIAnalyzer(store, self.config.pti)
            self.query_cache.clear()
            self.structure_cache.clear()
            self._cache_epoch = store.epoch

    def warm(self) -> None:
        """Precompile the matcher for the current epoch (warm handoff).

        Called after :meth:`refresh_fragments` while the daemon is off the
        request path (snapshot application in a child, pool worker
        refresh) so the first query against the new vocabulary does not
        pay the per-epoch automaton build inline.
        """
        with self._lock:
            self.analyzer.warm()

    def analyze_query(
        self, query: str, deadline: Deadline | None = None
    ) -> DaemonReply:
        """Full daemon pipeline for one query.

        ``deadline`` bounds the in-process stages: it is checked between
        the cache-lookup, parse and match stages (the match stage -- a scan
        over the whole fragment corpus for malicious queries -- is the only
        one that can realistically run long).  On expiry
        :class:`~repro.core.resilience.DeadlineExceeded` propagates to the
        engine, which resolves it per its failure policy.

        Thread-safe: the whole pipeline runs under the daemon lock, so an
        epoch flush can never interleave with another thread's cache fill
        and the stage timings stay consistent.
        """
        with self._lock:
            return self._analyze_query_locked(query, deadline)

    def analyze_batch(
        self, queries: list[str], deadline: Deadline | None = None
    ) -> list[DaemonReply]:
        """Analyze a batch under ONE lock acquisition.

        Semantically identical to ``[analyze_query(q) for q in queries]``
        -- same caches, same epoch flush, same deadline checks -- but the
        daemon lock is taken once for the whole batch, so concurrent
        callers cannot interleave mid-batch and the per-query lock
        round-trip cost is amortised away.  Because the epoch check runs
        under the same continuously-held lock, every query in the batch is
        served against one consistent fragment-store epoch.
        """
        with self._lock:
            return [self._analyze_query_locked(q, deadline) for q in queries]

    def _analyze_query_locked(
        self, query: str, deadline: Deadline | None
    ) -> DaemonReply:
        self.queries_analyzed += 1
        if deadline is not None:
            deadline.check("pti")
        store = self.analyzer.store
        if store.epoch != self._cache_epoch:
            # The vocabulary changed in place (plugin add/remove): every
            # cached verdict was computed against the old epoch.  The
            # analyzer guards its own derived state (MRU prune, automaton
            # recompile) via the same epoch on its next call.
            self._cache_epoch = store.epoch
            self.query_cache.clear()
            self.structure_cache.clear()
        if self.config.use_query_cache:
            t0 = time.perf_counter()
            cached = self.query_cache.get(query)
            self.timings.add("cache", time.perf_counter() - t0)
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
        self.timings.add("parse", time.perf_counter() - t0)
        if skeleton is not None:
            t0 = time.perf_counter()
            hit = self.structure_cache.serves(skeleton.key, query, tokens)
            self.timings.add("cache", time.perf_counter() - t0)
            if hit:
                if self.config.use_query_cache:
                    self.query_cache.put(query, (True, tokens))
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
        self.timings.add("match", time.perf_counter() - t0)
        t0 = time.perf_counter()
        if self.config.use_query_cache:
            self.query_cache.put(query, (result.safe, tokens))
        # Only SAFE verdicts are cacheable by skeleton, together with the
        # witnesses a later instance must re-prove (StructureCache).
        # Unsafe verdicts are not structural facts, and attacks are rare
        # enough that re-analysing them costs nothing -- "malicious queries
        # may require scanning the entire set of fragments" (Section VI-A).
        if skeleton is not None and result.safe:
            self.structure_cache.remember(skeleton, len(query), tokens, witnesses)
        self.timings.add("cache", time.perf_counter() - t0)
        return DaemonReply(safe=result.safe, result=result, tokens=tokens)


def _reply_deltas(daemon: PTIDaemon, previous: dict[str, float]) -> dict[str, float]:
    """Stage-timing deltas since ``previous``, updating it in place."""
    current = daemon.timings.snapshot()
    deltas = {k: current[k] - previous.get(k, 0.0) for k in current}
    previous.clear()
    previous.update(current)
    return deltas


def _daemon_loop(conn, fragments: list[str], config: DaemonConfig) -> None:
    """Child-process entry point: serve queries over the pipe until EOF.

    Each reply carries the child's per-stage timing deltas so the parent can
    attribute analysis time to parse/match/cache even across the process
    boundary (needed for the Figure 7 breakdown).

    One loop serves both protocols, sniffed per message on the raw bytes
    (``recv_bytes`` + explicit ``pickle.loads`` is exactly what
    ``Connection.recv`` does internally, so the legacy path is
    byte-compatible with old parents):

    - legacy: a pickled query string (or ``None`` shutdown sentinel),
      answered with a pickled ``(safe, from_cache, tokens, deltas)`` tuple;
    - batch: a packed ``wire`` request frame (magic ``b"JZ"``; a pickle
      can never start with those bytes), answered with one packed reply
      frame -- one IPC exchange for the whole batch.  A reply the packed
      format cannot express exactly (see ``wire.spans_from_tokens``) falls
      back to a pickled verdict list, which the parent also accepts; a
      malformed request frame ends the loop (the parent sees EOF ->
      ``DaemonCrash`` -> fail-closed, never a made-up verdict).
    """
    daemon = PTIDaemon(FragmentStore(fragments), config)
    previous = daemon.timings.snapshot()
    while True:
        try:
            buf = conn.recv_bytes()
        except EOFError:
            break
        if wire.is_frame(buf):
            try:
                kind = wire.peek_kind(buf)
            except wire.WireFormatError:
                break
            if kind == wire.KIND_SNAPSHOT:
                # Replication push (tenancy warm handoff): swap the
                # vocabulary in place -- no child respawn -- precompile
                # the new epoch's automaton, then ack.  The parent holds
                # this worker out of service until the ack, so the build
                # never runs under a live query.
                try:
                    _tenant, epoch, new_fragments = wire.unpack_store_snapshot(buf)
                except wire.WireFormatError:
                    break
                daemon.refresh_fragments(FragmentStore(new_fragments))
                daemon.warm()
                conn.send_bytes(wire.pack_snapshot_ack(epoch))
                continue
            try:
                queries = wire.unpack_batch_request(buf)
            except wire.WireFormatError:
                break
            replies = daemon.analyze_batch(queries)
            deltas = _reply_deltas(daemon, previous)
            try:
                verdicts = [
                    (
                        r.safe,
                        r.from_cache,
                        None
                        if r.tokens is None
                        else wire.spans_from_tokens(r.tokens),
                    )
                    for r in replies
                ]
                frame = wire.pack_batch_reply(verdicts, deltas)
            except wire.WireFormatError:
                conn.send_bytes(
                    pickle.dumps(
                        [
                            (r.safe, r.from_cache, r.tokens, deltas)
                            for r in replies
                        ]
                    )
                )
            else:
                conn.send_bytes(frame)
            continue
        message = pickle.loads(buf)
        if message is None:
            break
        reply = daemon.analyze_query(message)
        deltas = _reply_deltas(daemon, previous)
        conn.send((reply.safe, reply.from_cache, reply.tokens, deltas))
    conn.close()


class SubprocessPTIDaemon:
    """A real PTI daemon child process reached over an anonymous pipe.

    In ``persistent`` mode the process is spawned once (named-pipe-style
    long-lived daemon); otherwise every query pays a fresh spawn (the
    unoptimized configuration of Figure 7).

    Resilience contract: :meth:`analyze_query` either returns a
    :class:`DaemonReply` or raises a typed
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
        breaker: circuit breaker guarding spawn/IPC; ``None`` disables
            breaking (the seed behavior).
        seed: RNG seed for backoff jitter (reproducible chaos runs).
    """

    #: Whether this daemon's child loop understands packed ``wire`` batch
    #: frames.  Subclasses that install their own child loop (the chaos
    #: and pacing harnesses) set this False and :meth:`analyze_batch`
    #: degrades to per-query legacy round-trips -- same verdicts, no
    #: protocol assumptions about the replacement loop.
    supports_batch_wire = True

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
        self.fragments = store.fragments
        self._store: FragmentStore | None = store
        self.config = config or DaemonConfig()
        self.persistent = persistent
        self.recv_timeout = recv_timeout
        self.retry = retry or RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._rng = random.Random(seed)
        self.timings = StageTimings()
        self._conn = None
        self._process: multiprocessing.Process | None = None
        #: Guards the ``_conn``/``_process`` slots (check-spawn-assign,
        #: discard, close are each atomic).  Reentrant: ``_round_trip``
        #: holds it during checkout and may call ``_discard_child``.
        self._lifecycle = threading.RLock()
        #: Serializes pipe I/O: the persistent pipe is strict FIFO, so two
        #: threads interleaving send/recv would desynchronize replies.
        #: ``close()`` deliberately does NOT take this lock -- it swaps the
        #: slots under ``_lifecycle`` and closes the pipe, which surfaces
        #: in a blocked reader as ``OSError`` -> ``DaemonCrash`` (the
        #: in-flight request fails closed; no child is leaked).
        self._io_lock = threading.Lock()
        #: Guards counters mutated outside the I/O critical section.
        self._stats_lock = threading.Lock()
        # Observability counters (surfaced via resilience_snapshot()).
        self.spawns = 0
        self.retries = 0
        self.timeouts = 0
        self.crashes = 0
        self.corrupt_replies = 0
        self.unavailable = 0
        self.batches = 0
        self.oversized_batches = 0
        self.snapshot_applies = 0
        self.snapshot_fallbacks = 0

    # ------------------------------------------------------------------
    # Fragment access (engine fallback path + protect() refresh hook)
    # ------------------------------------------------------------------

    @property
    def store(self) -> FragmentStore:
        """The fragment vocabulary (rebuilt lazily after a refresh)."""
        with self._lifecycle:
            if self._store is None:
                self._store = FragmentStore(self.fragments)
            return self._store

    def refresh_fragments(self, store: FragmentStore) -> None:
        """Swap the fragment set; the child is restarted on next use."""
        with self._lifecycle:
            self.fragments = store.fragments
            self._store = store
        self.close()

    def apply_snapshot(self, store: FragmentStore, frame=None) -> None:
        """Hot-swap the child's vocabulary in place (replication push).

        The fast-path alternative to :meth:`refresh_fragments`: instead of
        killing the child and paying a full respawn on next use, a packed
        snapshot frame (``frame``, packed once per epoch by the pusher and
        shared across all workers; packed here when absent) is sent to the
        live child, which rebuilds its store, precompiles the new epoch's
        automaton and acks -- a warm handoff with no process churn.

        Fail-safe: any pipe error, timeout or malformed ack discards the
        child, and the next use respawns it over the *new* fragments --
        a worker can end up cold, never stale.  Children running a
        replacement loop (``supports_batch_wire=False``) or non-persistent
        daemons fall back to the legacy close-and-respawn refresh.
        """
        if not self.persistent or not self.supports_batch_wire:
            with self._stats_lock:
                self.snapshot_fallbacks += 1
            self.refresh_fragments(store)
            return
        with self._io_lock:
            with self._lifecycle:
                self.fragments = store.fragments
                self._store = store
                conn, process = self._conn, self._process
                alive = process is not None and process.is_alive()
            if not alive:
                # No live child: nothing to push; the next spawn reads the
                # new fragments.  Still counts as an apply (the swap is
                # complete from the parent's perspective).
                with self._stats_lock:
                    self.snapshot_applies += 1
                return
            epoch = store.epoch
            if frame is None:
                frame = wire.pack_store_snapshot(store.fragments, epoch)
            try:
                try:
                    conn.send_bytes(frame)
                    timeout = self.recv_timeout if self.recv_timeout else 5.0
                    if not conn.poll(timeout):
                        self.timeouts += 1
                        raise DaemonTimeout(
                            f"snapshot ack not received within {timeout:.3f}s"
                        )
                    payload = conn.recv_bytes()
                except (EOFError, BrokenPipeError, ConnectionError, OSError) as exc:
                    self.crashes += 1
                    raise DaemonCrash(f"daemon pipe failed: {exc!r}") from exc
                try:
                    acked = wire.unpack_snapshot_ack(payload)
                except wire.WireFormatError as exc:
                    self.corrupt_replies += 1
                    raise CorruptReply(f"malformed snapshot ack: {exc}") from exc
                if acked != epoch:
                    self.corrupt_replies += 1
                    raise CorruptReply(
                        f"snapshot ack epoch {acked} != pushed epoch {epoch}"
                    )
            except PTIFailure:
                # The child is in an unknown state; drop it.  The slots
                # were already swapped, so the respawn is over the new
                # vocabulary -- cold but correct.
                self._discard_child(conn, process)
                with self._stats_lock:
                    self.snapshot_fallbacks += 1
                return
            with self._stats_lock:
                self.snapshot_applies += 1

    # ------------------------------------------------------------------
    # Child lifecycle
    # ------------------------------------------------------------------

    def _loop_target(self):
        """Child entry point -- overridable (the chaos harness hooks here)."""
        return _daemon_loop

    def _loop_args(self, child_conn) -> tuple:
        return (child_conn, self.fragments, self.config)

    def _spawn(self):
        t0 = time.perf_counter()
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=self._loop_target(),
            args=self._loop_args(child_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.spawns += 1
        self.timings.add("spawn", time.perf_counter() - t0)
        return parent_conn, process

    @staticmethod
    def _reap(conn, process: multiprocessing.Process | None) -> None:
        """Tear one child down hard: close pipe, terminate -> kill -> join.

        Used for children in an unknown state (hung, mid-crash, pipe
        desynchronized); the graceful shutdown message is pointless here,
        so escalate straight to signals with bounded joins -- never leave a
        zombie behind.
        """
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        if process is None:
            return
        process.join(timeout=0.05)
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
        if process.is_alive():  # pragma: no cover - SIGTERM blocked
            process.kill()
            process.join(timeout=1.0)

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
        self._reap(conn, process)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def _decode(self, payload) -> tuple[bool, str | None, list | None, dict]:
        """Validate the child's reply shape (corruption containment)."""
        if not isinstance(payload, tuple) or len(payload) != 4:
            raise CorruptReply(f"malformed daemon reply: {payload!r:.120}")
        safe, from_cache, tokens, child_deltas = payload
        if not isinstance(safe, bool) or not isinstance(child_deltas, dict):
            raise CorruptReply(f"malformed daemon reply fields: {payload!r:.120}")
        if from_cache is not None and not isinstance(from_cache, str):
            raise CorruptReply(f"malformed from_cache: {from_cache!r:.120}")
        if tokens is not None and not isinstance(tokens, list):
            raise CorruptReply(f"malformed tokens: {tokens!r:.120}")
        return safe, from_cache, tokens, child_deltas

    def _round_trip(self, query: str, deadline: Deadline) -> DaemonReply:
        """One spawn-if-needed + send + bounded receive attempt.

        Serialized on the I/O lock (the pipe is strict FIFO); the child
        checkout is additionally atomic under the lifecycle lock so a
        concurrent ``close()`` or ``refresh_fragments()`` can never observe
        a half-assigned ``(_conn, _process)`` pair or leak a child.
        """
        with self._io_lock:
            return self._round_trip_io(query, deadline)

    def _round_trip_io(self, query: str, deadline: Deadline) -> DaemonReply:
        with self._lifecycle:
            if self.persistent:
                if self._process is None or not self._process.is_alive():
                    self._discard_child(self._conn, self._process)
                    self._conn, self._process = self._spawn()
                conn, process = self._conn, self._process
            else:
                conn, process = self._spawn()
        t0 = time.perf_counter()
        try:
            try:
                conn.send(query)
                timeout = deadline.bound(self.recv_timeout)
                if timeout is not None and not conn.poll(timeout):
                    self.timeouts += 1
                    raise DaemonTimeout(
                        f"daemon reply not received within {timeout:.3f}s"
                    )
                payload = conn.recv()
            except (EOFError, BrokenPipeError, ConnectionError, OSError) as exc:
                self.crashes += 1
                raise DaemonCrash(f"daemon pipe failed: {exc!r}") from exc
            try:
                safe, from_cache, tokens, child_deltas = self._decode(payload)
            except CorruptReply:
                self.corrupt_replies += 1
                raise
        except PTIFailure:
            # The pipe is dead or desynchronized; this child is unusable.
            self._discard_child(conn, process)
            raise
        elapsed = time.perf_counter() - t0
        # Attribute the child's analysis stages, and count only the residual
        # (serialisation + pipe transit + scheduling) as IPC.
        analysis = 0.0
        for stage, dt in child_deltas.items():
            self.timings.add(stage, dt)
            analysis += dt
        self.timings.add("ipc", max(elapsed - analysis, 0.0))
        if not self.persistent:
            try:
                conn.send(None)
                conn.close()
            except (BrokenPipeError, OSError):  # pragma: no cover - defensive
                pass
            self._reap(None, process)
        return DaemonReply(
            safe=safe,
            result=AnalysisResult(
                technique=Technique.PTI, safe=safe, from_cache=from_cache
            ),
            tokens=tokens,
            from_cache=from_cache,
        )

    def _round_trip_batch(
        self, queries: list[str], deadline: Deadline
    ) -> list[DaemonReply]:
        """One batched round-trip: one send, one deadline clamp, one recv.

        The request is packed into a single pre-sized buffer
        (``wire.pack_batch_request``) and handed to ``send_bytes`` -- no
        per-query pickling, no length-prefix concatenation.  The reply is
        sniffed: a packed frame decodes without pickle; a pickled verdict
        list (the child's fallback for token streams the packed format
        cannot express exactly) goes through the same per-item shape
        validation as the legacy protocol.  Either way a count mismatch or
        malformed payload raises ``CorruptReply`` -- the batch fails
        closed as a unit, never partially.
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
            t0 = time.perf_counter()
            try:
                try:
                    request = wire.pack_batch_request(queries)
                    conn.send_bytes(request)
                    timeout = deadline.bound(self.recv_timeout)
                    if timeout is not None and not conn.poll(timeout):
                        self.timeouts += 1
                        raise DaemonTimeout(
                            f"daemon batch reply not received within {timeout:.3f}s"
                        )
                    payload = conn.recv_bytes()
                except (EOFError, BrokenPipeError, ConnectionError, OSError) as exc:
                    self.crashes += 1
                    raise DaemonCrash(f"daemon pipe failed: {exc!r}") from exc
                try:
                    decoded, child_deltas = self._decode_batch(queries, payload)
                except CorruptReply:
                    self.corrupt_replies += 1
                    raise
            except PTIFailure:
                self._discard_child(conn, process)
                raise
            elapsed = time.perf_counter() - t0
            analysis = 0.0
            for stage, dt in child_deltas.items():
                self.timings.add(stage, dt)
                analysis += dt
            self.timings.add("ipc", max(elapsed - analysis, 0.0))
            if not self.persistent:
                try:
                    conn.send(None)
                    conn.close()
                except (BrokenPipeError, OSError):  # pragma: no cover - defensive
                    pass
                self._reap(None, process)
            return decoded

    def _decode_batch(
        self, queries: list[str], payload: bytes
    ) -> tuple[list[DaemonReply], dict[str, float]]:
        """Validate + decode one batch reply payload (packed or pickled)."""
        if wire.is_frame(payload):
            try:
                verdicts, child_deltas = wire.unpack_batch_reply(payload)
            except wire.WireFormatError as exc:
                raise CorruptReply(f"malformed batch frame: {exc}") from exc
            if len(verdicts) != len(queries):
                raise CorruptReply(
                    f"batch reply count {len(verdicts)} != request {len(queries)}"
                )
            replies: list[DaemonReply] = []
            for query, (safe, from_cache, spans) in zip(queries, verdicts):
                try:
                    tokens = (
                        None
                        if spans is None
                        else wire.tokens_from_spans(query, spans)
                    )
                except wire.WireFormatError as exc:
                    raise CorruptReply(f"malformed batch token span: {exc}") from exc
                replies.append(
                    DaemonReply(
                        safe=safe,
                        result=AnalysisResult(
                            technique=Technique.PTI, safe=safe, from_cache=from_cache
                        ),
                        tokens=tokens,
                        from_cache=from_cache,
                    )
                )
            return replies, child_deltas
        # Child fell back to a pickled verdict list (rare: a token stream
        # the packed format refuses to ship lossily).
        try:
            items = pickle.loads(payload)
        except Exception as exc:
            raise CorruptReply(f"unpicklable batch reply: {exc!r}") from exc
        if not isinstance(items, list) or len(items) != len(queries):
            raise CorruptReply(f"malformed batch reply list: {items!r:.120}")
        replies = []
        child_deltas: dict[str, float] = {}
        for item in items:
            safe, from_cache, tokens, child_deltas = self._decode(item)
            replies.append(
                DaemonReply(
                    safe=safe,
                    result=AnalysisResult(
                        technique=Technique.PTI, safe=safe, from_cache=from_cache
                    ),
                    tokens=tokens,
                    from_cache=from_cache,
                )
            )
        # Every item carries the same batch-level delta block; attributing
        # the last one once is the packed-path equivalent.
        return replies, child_deltas

    def analyze_batch(
        self, queries: list[str], deadline: Deadline | None = None
    ) -> list[DaemonReply]:
        """Ship a whole batch to the child in one IPC exchange.

        Same resilience contract as :meth:`analyze_query` -- breaker gate,
        bounded receive, retry with backoff, typed failures only -- but
        paid once per *batch*: the batch succeeds or fails closed as a
        unit.  Oversized batches are refused before any I/O with the
        reason recorded (``oversized_batches``); daemons whose child loop
        does not speak the packed protocol degrade to per-query calls.
        """
        if not queries:
            return []
        if not self.supports_batch_wire:
            return [self.analyze_query(q, deadline) for q in queries]
        if len(queries) > wire.MAX_BATCH:
            with self._stats_lock:
                self.oversized_batches += 1
            raise PTIFailure(
                f"batch of {len(queries)} queries exceeds wire MAX_BATCH="
                f"{wire.MAX_BATCH}; split the batch"
            )
        if deadline is None:
            deadline = Deadline.unbounded()
        if self.breaker is not None and not self.breaker.allow():
            with self._stats_lock:
                self.unavailable += 1
            raise DaemonUnavailable(
                "circuit breaker open: daemon spawn/IPC suspended",
                breaker_open=True,
            )
        with self._stats_lock:
            self.batches += 1
        last_failure: PTIFailure | None = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                with self._stats_lock:
                    self.retries += 1
                delay = deadline.bound(self.retry.delay(attempt - 1, self._rng))
                if delay:
                    time.sleep(delay)
            deadline.check("pti-daemon-batch")
            try:
                replies = self._round_trip_batch(queries, deadline)
            except PTIFailure as failure:
                last_failure = failure
                if self.breaker is not None:
                    self.breaker.record_failure()
                    if not self.breaker.allow():
                        break
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            return replies
        with self._stats_lock:
            self.unavailable += 1
        reason = last_failure.reason if last_failure is not None else "unknown"
        raise DaemonUnavailable(
            f"daemon batch analysis failed after {self.retry.max_attempts} "
            f"attempt(s): {reason}"
        ) from last_failure

    def analyze_query(
        self, query: str, deadline: Deadline | None = None
    ) -> DaemonReply:
        """Ship one query to the child and wait (boundedly) for its verdict.

        A persistent daemon that died between queries (crash, OOM-kill) is
        respawned transparently -- losing only its caches, never failing
        open: a query is executed only after a live daemon vouches for it.
        Transient failures are retried with jittered exponential backoff;
        a query that *deterministically* kills the child (a poison query)
        exhausts the attempts and surfaces as
        :class:`~repro.core.resilience.DaemonUnavailable` with the failure
        chain recorded -- never as a raw ``EOFError`` in the request path.
        When the breaker is open, no spawn is attempted at all.
        """
        if deadline is None:
            deadline = Deadline.unbounded()
        if self.breaker is not None and not self.breaker.allow():
            with self._stats_lock:
                self.unavailable += 1
            raise DaemonUnavailable(
                "circuit breaker open: daemon spawn/IPC suspended",
                breaker_open=True,
            )
        last_failure: PTIFailure | None = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                with self._stats_lock:
                    self.retries += 1
                delay = deadline.bound(self.retry.delay(attempt - 1, self._rng))
                if delay:
                    time.sleep(delay)
            deadline.check("pti-daemon")
            try:
                reply = self._round_trip(query, deadline)
            except PTIFailure as failure:
                last_failure = failure
                if self.breaker is not None:
                    self.breaker.record_failure()
                    if not self.breaker.allow():
                        break
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            return reply
        with self._stats_lock:
            self.unavailable += 1
        reason = last_failure.reason if last_failure is not None else "unknown"
        raise DaemonUnavailable(
            f"daemon analysis failed after {self.retry.max_attempts} "
            f"attempt(s): {reason}"
        ) from last_failure

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def resilience_snapshot(self) -> dict[str, object]:
        """Fault-absorption counters for the audit export / bench reports."""
        out: dict[str, object] = {
            "spawns": self.spawns,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "corrupt_replies": self.corrupt_replies,
            "unavailable": self.unavailable,
            "batches": self.batches,
            "oversized_batches": self.oversized_batches,
            "snapshot_applies": self.snapshot_applies,
            "snapshot_fallbacks": self.snapshot_fallbacks,
        }
        if self.breaker is not None:
            out["breaker"] = self.breaker.snapshot()
        return out

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
        if conn is not None:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        if process is not None:
            process.join(timeout=1.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - SIGTERM blocked
                process.kill()
                process.join(timeout=1.0)

    def __enter__(self) -> "SubprocessPTIDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
