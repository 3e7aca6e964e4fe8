"""PTI daemon pool: N workers, bounded admission, load shedding.

The paper deploys PTI as one native daemon per application.  Under
concurrent request load a single child pipe becomes the bottleneck: the
pipe is strict FIFO, so every in-flight query serializes behind the
slowest one.  :class:`DaemonPool` multiplexes requests over ``size``
independent :class:`~repro.pti.daemon.SubprocessPTIDaemon` workers -- each
with its own child process, pipe, retry policy and circuit breaker -- so
request service times overlap (the parent threads block in ``poll``/
``recv`` with the GIL released while children analyse).

Overload behavior is explicit, not emergent (DESIGN.md section 10):

- **Admission control** -- at most ``size + max_queue`` requests are ever
  inside the pool.  A request beyond that is *shed immediately* (no
  unbounded queue, no latency collapse).
- **Deadline-aware checkout** -- an admitted request waits for a free
  worker at most ``admission_timeout`` seconds, clamped to the query's
  remaining deadline.  Expiry sheds.
- **Shed semantics** -- every shed raises
  :class:`~repro.core.resilience.PoolSaturated` whose ``fail_closed`` flag
  carries the configured :class:`~repro.core.resilience.OverloadPolicy`:
  ``SHED_FAIL_CLOSED`` (default) makes the engine block the query
  fail-closed; ``DEGRADE_TO_OTHER_TECHNIQUE`` lets it degrade to an
  NTI-only verdict.  A shed request is **never silently dropped** -- the
  engine records a verdict for it either way.
- **Worker replacement** -- a worker whose calls fail
  ``replace_after`` consecutive times is torn down (child reaped) and
  replaced with a fresh one; the pool never shrinks below ``size``.

Thread-safety: the free-worker list is a :class:`queue.Queue` (one worker
is checked out by exactly one thread at a time, so the per-worker pipe
never sees interleaved requests), admission is a
:class:`threading.BoundedSemaphore`, and the counters live behind a stats
lock.  ``close()`` is idempotent and reaps every worker, including ones
returned late by in-flight requests.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Callable

from ..core.resilience import (
    DaemonUnavailable,
    Deadline,
    OverloadPolicy,
    PTIFailure,
    PoolSaturated,
)
from . import wire
from .daemon import DaemonConfig, DaemonReply, SubprocessPTIDaemon
from .fragments import FragmentStore

__all__ = ["DaemonPool", "PoolWorker"]


class PoolWorker:
    """One pool slot: a daemon plus its health bookkeeping.

    A worker is owned by at most one request thread at a time (checkout via
    the pool's free queue), so its mutable fields need no extra locking
    beyond the daemon's own.
    """

    __slots__ = (
        "worker_id",
        "daemon",
        "generation",
        "served",
        "failures",
        "consecutive_failures",
    )

    def __init__(self, worker_id: int, daemon, generation: int) -> None:
        self.worker_id = worker_id
        self.daemon = daemon
        #: Fragment-set generation the daemon was (last) built against.
        self.generation = generation
        self.served = 0
        self.failures = 0
        self.consecutive_failures = 0

    def health(self) -> dict[str, object]:
        out: dict[str, object] = {
            "worker_id": self.worker_id,
            "served": self.served,
            "failures": self.failures,
            "consecutive_failures": self.consecutive_failures,
            "generation": self.generation,
        }
        snapshot = getattr(self.daemon, "resilience_snapshot", None)
        if callable(snapshot):
            out["daemon"] = snapshot()
        return out


class DaemonPool:
    """Bounded pool of PTI daemon workers with explicit overload policy.

    Drop-in for the single :class:`~repro.pti.daemon.SubprocessPTIDaemon`
    slot of :class:`~repro.core.JozaEngine`: exposes ``analyze_batch``
    (deadline-aware; ``analyze_query`` is a batch of one), ``store``,
    ``refresh_fragments``, ``resilience_snapshot`` and ``close``.  Workers
    are called only through their own ``analyze_batch``.

    Args:
        store: fragment vocabulary served to workers.
        config: daemon cache/optimization switches.
        size: number of workers (children) kept alive.
        max_queue: admitted requests allowed to *wait* beyond the ``size``
            in service; ``size + max_queue`` is the hard in-flight bound.
        overload_policy: what a shed means downstream (fail closed vs
            degrade to NTI-only).
        admission_timeout: max seconds an admitted request waits for a free
            worker (clamped to the query deadline).  Bounds worst-case
            inspect latency even with an unbounded deadline.
        replace_after: consecutive worker-call failures that trigger
            replacement of that worker.
        daemon_factory: ``(store, config, worker_index) -> daemon`` --
            override to pool fakes (tests) or tune per-worker daemons;
            defaults to persistent :class:`SubprocessPTIDaemon` workers.
        seed: base RNG seed forwarded to default workers (worker ``i`` gets
            ``seed + i``) so chaos runs are reproducible.
    """

    def __init__(
        self,
        store: FragmentStore,
        config: DaemonConfig | None = None,
        *,
        size: int = 2,
        max_queue: int = 8,
        overload_policy: OverloadPolicy = OverloadPolicy.SHED_FAIL_CLOSED,
        admission_timeout: float = 1.0,
        replace_after: int = 3,
        daemon_factory: Callable[[FragmentStore, DaemonConfig, int], object]
        | None = None,
        seed: int | None = None,
    ) -> None:
        if size <= 0:
            raise ValueError("pool size must be positive")
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        if admission_timeout <= 0:
            raise ValueError("admission_timeout must be positive")
        if replace_after <= 0:
            raise ValueError("replace_after must be positive")
        self.size = size
        self.max_queue = max_queue
        self.overload_policy = overload_policy
        self.admission_timeout = admission_timeout
        self.replace_after = replace_after
        self.config = config or DaemonConfig()
        self._seed = seed
        self._factory = daemon_factory or self._default_factory
        self._store = store
        self._generation = 0
        #: Packed snapshot frame of the current generation (one-shot
        #: serialisation per refresh, shared by every worker push); None
        #: until the first refresh or when the store exceeds the wire
        #: frame bound (workers then fall back to the legacy refresh).
        self._snapshot_frame: bytes | None = None
        #: Hard bound on requests inside the pool (in service + waiting).
        self._admission = threading.BoundedSemaphore(size + max_queue)
        #: Free workers; checkout gives one thread exclusive pipe access.
        self._free: queue.Queue[PoolWorker] = queue.Queue()
        #: Guards counters, generation bumps, close state and worker ids.
        self._lock = threading.RLock()
        self._closed = False
        self._next_worker_id = 0
        self._inflight = 0
        # Shed / saturation accounting.
        self.checkouts = 0
        self.sheds_queue_full = 0
        self.sheds_no_worker = 0
        self.replacements = 0
        # Replication accounting: worker refreshes actually performed
        # (zero under steady-state traffic -- the checkout hot path is one
        # int compare), split by how the new vocabulary reached the worker.
        self.refreshes = 0
        self.snapshot_pushes = 0
        self.snapshot_push_failures = 0
        self._wait_samples: deque[float] = deque(maxlen=2048)
        for _ in range(size):
            self._free.put(self._new_worker())

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _default_factory(
        self, store: FragmentStore, config: DaemonConfig, index: int
    ):
        seed = None if self._seed is None else self._seed + index
        return SubprocessPTIDaemon(store, config, persistent=True, seed=seed)

    def _new_worker(self) -> PoolWorker:
        with self._lock:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            generation = self._generation
            store = self._store
        daemon = self._factory(store, self.config, worker_id)
        return PoolWorker(worker_id, daemon, generation)

    @staticmethod
    def _close_daemon(daemon) -> None:
        close = getattr(daemon, "close", None)
        if callable(close):
            try:
                close()
            except Exception:  # pragma: no cover - defensive teardown
                pass

    def _replace_worker(self, worker: PoolWorker) -> PoolWorker:
        """Tear the worker's daemon down and build a fresh slot."""
        self._close_daemon(worker.daemon)
        with self._lock:
            self.replacements += 1
        return self._new_worker()

    # ------------------------------------------------------------------
    # Admission + checkout
    # ------------------------------------------------------------------

    def _shed(self, reason: str, counter: str) -> PoolSaturated:
        fail_closed = self.overload_policy is OverloadPolicy.SHED_FAIL_CLOSED
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)
        return PoolSaturated(reason, fail_closed=fail_closed)

    def analyze_batch(
        self, queries: list[str], deadline: Deadline | None = None
    ) -> list[DaemonReply]:
        """Admit, check out a worker, run the batch, return the worker.

        The batch counts as a single request against the in-flight bound
        and occupies one worker pipe for one batched exchange -- that is
        the point: under batch load the pool serves ``size`` *batches*
        concurrently instead of ``size`` queries.  A shed batch is shed
        whole; the engine records a verdict for every query in it either
        way.

        Raises :class:`~repro.core.resilience.PoolSaturated` on shed,
        :class:`~repro.core.resilience.DaemonUnavailable` when the pool is
        closed, and otherwise propagates exactly what the worker's
        ``analyze_batch`` raises (the typed
        :class:`~repro.core.resilience.PTIFailure` family /
        :class:`~repro.core.resilience.DeadlineExceeded`).
        """
        if not queries:
            return []
        if self._closed:
            raise DaemonUnavailable("daemon pool is closed")
        if deadline is None:
            deadline = Deadline.unbounded()
        if not self._admission.acquire(blocking=False):
            raise self._shed(
                f"shed: admission queue full "
                f"(in_flight={self.size + self.max_queue})",
                "sheds_queue_full",
            )
        try:
            with self._lock:
                self._inflight += 1
            worker = self._checkout(deadline)
            try:
                replies = worker.daemon.analyze_batch(queries, deadline)
            except PTIFailure:
                worker.failures += 1
                worker.consecutive_failures += 1
                self._release(worker)
                raise
            except BaseException:
                # Deadline expiry / interrupts are not the worker's fault.
                self._release(worker)
                raise
            worker.served += len(queries)
            worker.consecutive_failures = 0
            self._release(worker)
            return replies
        finally:
            with self._lock:
                self._inflight -= 1
            self._admission.release()

    def analyze_query(
        self, query: str, deadline: Deadline | None = None
    ) -> DaemonReply:
        """One query: :meth:`analyze_batch` of one."""
        return self.analyze_batch([query], deadline)[0]

    def _checkout(self, deadline: Deadline) -> PoolWorker:
        timeout = deadline.bound(self.admission_timeout)
        if timeout is None:
            timeout = self.admission_timeout
        t0 = time.perf_counter()
        try:
            worker = self._free.get(timeout=max(timeout, 0.0))
        except queue.Empty:
            waited = time.perf_counter() - t0
            with self._lock:
                self._wait_samples.append(waited)
            raise self._shed(
                f"shed: no free worker within {timeout:.3f}s "
                f"(size={self.size})",
                "sheds_no_worker",
            ) from None
        waited = time.perf_counter() - t0
        with self._lock:
            self._wait_samples.append(waited)
            self.checkouts += 1
        # Replication hot path: one integer generation compare, no store
        # probe, no getattr.  Refreshes are *pushed* at epoch bump (see
        # refresh_fragments) and applied at release for workers that were
        # in flight during the bump, so under steady-state traffic this
        # branch never fires.  The unlocked read is safe: generation only
        # moves forward, and a stale read just serves one request under
        # the previous vocabulary -- the same serialization as a request
        # arriving momentarily before the refresh.
        if worker.generation != self._generation:
            self._refresh_worker(worker)
        return worker

    def _refresh_worker(self, worker: PoolWorker) -> None:
        """Bring one (checked-out) worker to the current generation.

        Prefers the packed snapshot push -- the frame was serialized once
        at refresh time and the child hot-swaps without a respawn (warm
        handoff) -- and falls back to the legacy close-and-respawn
        refresh for daemons that predate the snapshot protocol.
        """
        with self._lock:
            generation = self._generation
            store = self._store
            frame = self._snapshot_frame
        daemon = worker.daemon
        apply = getattr(daemon, "apply_snapshot", None)
        if frame is not None and callable(apply):
            apply(store, frame)
        else:
            refresh = getattr(daemon, "refresh_fragments", None)
            if callable(refresh):
                refresh(store)
        worker.generation = generation
        with self._lock:
            self.refreshes += 1

    def _release(self, worker: PoolWorker) -> None:
        if worker.consecutive_failures >= self.replace_after:
            worker = self._replace_worker(worker)
        elif worker.generation != self._generation and not self._closed:
            # Apply a pending epoch bump off the checkout path: the worker
            # is warm (new automaton compiled) before it re-enters the
            # free queue, so no future checkout pays for this refresh.
            try:
                self._refresh_worker(worker)
            except Exception:
                # A failed refresh must not lose the pool slot; the next
                # checkout retries (generation still mismatched).
                with self._lock:
                    self.snapshot_push_failures += 1
        if self._closed:
            # Close raced an in-flight request: reap instead of requeueing.
            self._close_daemon(worker.daemon)
            return
        self._free.put(worker)

    # ------------------------------------------------------------------
    # Fragment access (engine integration)
    # ------------------------------------------------------------------

    @property
    def store(self) -> FragmentStore:
        return self._store

    def refresh_fragments(self, store: FragmentStore) -> None:
        """Swap the fragment set and *push* it to the workers (epoch bump).

        The snapshot is serialized exactly once into a packed wire frame
        (``pti.wire.pack_store_snapshot``) shared by every worker push --
        a pool of N children pays one serialisation, not N pickles.  Free
        workers are refreshed immediately, one at a time (each is out of
        the free queue while its child hot-swaps and precompiles, so the
        pool keeps serving from the remaining workers -- a rolling warm
        handoff, never a stall).  Checked-out workers are not touched
        mid-request: their in-flight query is served under the old
        vocabulary, exactly as if it had arrived just before the refresh,
        and the bump is applied when they are released.  After this the
        checkout hot path stays a single int compare.
        """
        frame: bytes | None = None
        try:
            frame = wire.pack_store_snapshot(store.fragments, store.epoch)
        except wire.WireFormatError:
            # Vocabulary exceeds the frame bound: workers fall back to the
            # legacy close-and-respawn refresh (correct, just colder).
            frame = None
        with self._lock:
            self._store = store
            self._generation += 1
            self._snapshot_frame = frame
            target = self._generation
        # Rolling push: visit at most `size` free workers; a worker popped
        # twice (requeued then drawn again) is already current and no-ops.
        for _ in range(self.size):
            if self._closed:
                break
            try:
                worker = self._free.get_nowait()
            except queue.Empty:
                break
            try:
                if worker.generation != target:
                    self._refresh_worker(worker)
                    with self._lock:
                        self.snapshot_pushes += 1
            except Exception:
                with self._lock:
                    self.snapshot_push_failures += 1
            finally:
                self._free.put(worker)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def worker_health(self) -> list[dict[str, object]]:
        """Health snapshots of currently-free workers (checked-out workers
        are mid-request and appear after release)."""
        with self._free.mutex:
            workers = list(self._free.queue)
        return [worker.health() for worker in workers]

    def resilience_snapshot(self) -> dict[str, object]:
        with self._lock:
            samples = sorted(self._wait_samples)
            depth = max(0, self._inflight - self.size)
            out: dict[str, object] = {
                "pool_size": self.size,
                "queue_capacity": self.max_queue,
                "queue_depth": depth,
                "in_flight": self._inflight,
                "checkouts": self.checkouts,
                "sheds_queue_full": self.sheds_queue_full,
                "sheds_no_worker": self.sheds_no_worker,
                "sheds_total": self.sheds_queue_full + self.sheds_no_worker,
                "replacements": self.replacements,
                "refreshes": self.refreshes,
                "snapshot_pushes": self.snapshot_pushes,
                "snapshot_push_failures": self.snapshot_push_failures,
                "generation": self._generation,
                "overload_policy": self.overload_policy.value,
                "admission_timeout": self.admission_timeout,
            }
        if samples:
            index = min(len(samples) - 1, int(0.95 * (len(samples) - 1)))
            out["saturation_wait_p95"] = samples[index]
            out["saturation_wait_max"] = samples[-1]
        else:
            out["saturation_wait_p95"] = 0.0
            out["saturation_wait_max"] = 0.0
        out["workers"] = self.worker_health()
        return out

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Reap every worker; idempotent; in-flight returns are reaped too."""
        with self._lock:
            self._closed = True
        while True:
            try:
                worker = self._free.get_nowait()
            except queue.Empty:
                break
            self._close_daemon(worker.daemon)

    def __enter__(self) -> "DaemonPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
