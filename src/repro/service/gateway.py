"""Asyncio guard gateway: the crash-safe network face of the Joza engine.

Architecture (DESIGN.md section 12): one asyncio event loop accepts unix /
TCP connections and shuffles length-prefixed frames; all analysis happens
in a fleet of :class:`~repro.service.worker.GatewayWorker` processes,
checked out of a free queue (least-loaded by construction: a worker is
either free or serving exactly one batch) and bridged through a thread
pool executor so pipe round-trips never block the loop.  The worker pipe
carries the same :mod:`~repro.pti.wire` frames as the sockets: the worker
encodes each verdict once and its reply frame is relayed to the client.

Robustness invariants, each tested:

- **Deadline propagation**: the client's per-request budget is clamped to
  ``max_deadline`` server-side, queue wait is deducted, and requests that
  are expired on arrival (or that expire while queued) are shed without
  touching a worker.
- **Admission control**: at most ``workers + max_queue`` requests are in
  flight; excess is shed.  Every shed -- queue full, no worker in time,
  expired -- is answered with recorded fail-closed verdicts, never a
  silent drop: gateway-level sheds have no surviving analysis technique
  to degrade to.
- **Worker fault isolation**: a hung, crashed or corrupt worker fails only
  its own in-flight batch (resolved fail-closed); the worker is replaced
  after ``replace_after`` consecutive failures or immediately when dead.
- **Connection fault isolation**: torn frames, garbage, oversized
  announcements and mid-request disconnects fail closed per connection
  and never poison the listener.
- **Graceful drain**: SIGTERM stops the listeners, lets in-flight work
  finish or deadline out within ``drain_timeout``, reaps every worker
  (zero zombies), flushes the audit log and exits 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from ..core.policy import JozaConfig
from ..core.resilience import RingLog
from ..pti import wire
from .codec import (
    decode_verdict,
    encode_verdict,
    failsafe_dict,
    payload_is_safe,
)
from .worker import GatewayWorker, WorkerFailure

__all__ = [
    "AsyncGateway",
    "GatewayConfig",
    "GatewayStats",
    "GatewayThread",
    "serve",
]

#: Shed reasons (also the ``failure_reasons`` entry of the failsafe
#: verdicts a shed produces -- greppable in the audit export).
REASON_EXPIRED_ON_ARRIVAL = "gateway: deadline expired on arrival"
REASON_EXPIRED_IN_QUEUE = "gateway: deadline expired waiting for a worker"
REASON_QUEUE_FULL = "gateway: admission queue full"
REASON_NO_WORKER = "gateway: no worker available in time"
REASON_DRAINING = "gateway: draining (SIGTERM)"
REASON_WORKER_FAILED = "gateway: worker failure"
#: Audit reason for a reply too large for one frame (the client gets a
#: ``GW_ERR_INTERNAL`` error instead of verdicts).
REASON_UNFRAMEABLE = "gateway: reply cannot be framed"


@dataclass
class GatewayConfig:
    """Service-level knobs (the engine's own config rides separately)."""

    #: Unix socket path; ``None`` disables the unix listener.
    unix_path: str | None = None
    #: TCP bind host; ``None`` disables the TCP listener.
    host: str | None = None
    #: TCP port (0 = ephemeral, resolved after :meth:`AsyncGateway.start`).
    port: int = 0
    #: Worker processes (one engine each, PTI in-process).
    workers: int = 2
    #: Requests allowed to *wait* beyond the ``workers`` in service;
    #: ``workers + max_queue`` is the hard in-flight bound.
    max_queue: int = 16
    #: Server-side clamp on client deadline budgets (seconds; None = no
    #: clamp).  A client asking for more gets this; a client asking for
    #: less keeps its own budget.
    max_deadline: float | None = 2.0
    #: Max seconds an admitted request waits for a free worker (further
    #: clamped to the request's remaining budget).
    admission_timeout: float = 1.0
    #: Consecutive worker-call failures that trigger replacement.
    replace_after: int = 3
    #: Seconds granted to in-flight work after SIGTERM before workers are
    #: reaped anyway.
    drain_timeout: float = 5.0
    #: Slow-loris guard: max seconds to wait for the next length prefix on
    #: an idle connection...
    idle_timeout: float = 30.0
    #: ...and for the body of an announced frame to fully arrive.
    frame_timeout: float = 10.0
    #: Gateway audit ring capacity (shed/expired/refused records).
    audit_capacity: int = 10_000
    #: Per-request artificial service time inside each worker (seconds).
    #: Models real analysis cost in throughput benches so cross-process
    #: overlap is measurable even on a single-core runner; 0 in production.
    worker_pace_seconds: float = 0.0
    #: Base RNG seed of the fleet.  Workers host in-process PTI daemons
    #: and draw no random numbers, so it currently has no effect; it is
    #: accepted so seeded callers (``serve --seed``) keep working.
    seed: int | None = None
    #: Multi-tenant mode: tenant-id -> overlay fragment list.  The
    #: gateway's ``fragments`` become the shared base vocabulary (interned
    #: once per worker), each tenant engine sees base + its overlay, and
    #: the wire ``client_id`` routes to the tenant's engine.  ``None`` =
    #: classic single-tenant gateway.
    tenants: dict[str, list[str]] | None = None
    #: Durable state directory (DESIGN.md section 15).  When set, the
    #: gateway restores vocabulary + overlays + audit from it *before*
    #: accepting, journals every mutation and unsafe verdict, and a
    #: drain-stop writes a final checkpoint.  ``None`` = in-memory only.
    state_dir: str | None = None
    #: Journal fsync policy: "always" / "batch" (group commit, default) /
    #: "never" (OS-buffered; tests and benches).
    fsync_policy: str = "batch"
    #: Journal records accumulated before a compacting checkpoint.
    checkpoint_every: int = 512

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        if self.admission_timeout <= 0:
            raise ValueError("admission_timeout must be positive")
        if self.replace_after <= 0:
            raise ValueError("replace_after must be positive")
        if self.unix_path is None and self.host is None:
            raise ValueError("need a unix_path or a host to listen on")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


@dataclass
class GatewayStats:
    """Gateway-level counters (same atomic ``bump`` contract as
    :class:`~repro.core.engine.EngineStats`)."""

    connections_opened: int = 0
    connections_closed: int = 0
    frames_received: int = 0
    requests_accepted: int = 0
    queries_inspected: int = 0
    #: Replies handed to the transport (counted before the awaited
    #: drain, so a client already holding its reply never reads it short).
    replies_sent: int = 0
    #: Admission sheds: in-flight bound hit ...
    shed_queue_full: int = 0
    #: ... or no worker freed up inside the admission/deadline window.
    shed_no_worker: int = 0
    #: Requests whose (clamped) budget was already spent at arrival.
    expired_on_arrival: int = 0
    #: Requests whose budget expired while queued for a worker.
    expired_in_queue: int = 0
    #: Requests refused because the gateway is draining.
    draining_refused: int = 0
    #: Frames that failed wire validation (bad magic/kind/truncation).
    protocol_errors: int = 0
    #: Frames refused from the length prefix alone, body never read.
    oversized_refused: int = 0
    #: Connections dropped by the slow-loris / stalled-frame guards.
    stalled_connections: int = 0
    #: Worker calls that failed (hang, crash, corrupt reply) ...
    worker_failures: int = 0
    #: ... and workers replaced because of them.
    worker_replacements: int = 0
    #: Tenant snapshot frames pushed to workers (reload_tenant fan-out) ...
    snapshot_pushes: int = 0
    #: ... and pushes that failed (worker hung/crashed mid-push).
    snapshot_push_failures: int = 0
    #: Unsafe verdicts / audit events the durability journal refused
    #: (disk trouble); the reply path is never taken down by these.
    audit_persist_failures: int = 0
    #: Requests whose failsafe reply exceeded ``wire.MAX_FRAME`` and were
    #: answered with a ``GW_ERR_INTERNAL`` error instead.
    unframeable_replies: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def bump(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                name: getattr(self, name)
                for name in (
                    "connections_opened",
                    "connections_closed",
                    "frames_received",
                    "requests_accepted",
                    "queries_inspected",
                    "replies_sent",
                    "shed_queue_full",
                    "shed_no_worker",
                    "expired_on_arrival",
                    "expired_in_queue",
                    "draining_refused",
                    "protocol_errors",
                    "oversized_refused",
                    "stalled_connections",
                    "worker_failures",
                    "worker_replacements",
                    "snapshot_pushes",
                    "snapshot_push_failures",
                    "audit_persist_failures",
                    "unframeable_replies",
                )
            }


class AsyncGateway:
    """The gateway: listeners + worker fleet + admission + drain."""

    def __init__(
        self,
        fragments: Sequence[str],
        config: JozaConfig | None = None,
        gateway: GatewayConfig | None = None,
        *,
        audit_sink: Callable[[str], None] | None = None,
    ) -> None:
        self.fragments = list(fragments)
        self.config = config or JozaConfig()
        gw = gateway or GatewayConfig(host="127.0.0.1")
        # A private copy: recovery and reload_tenant rewrite the overlay
        # map (and start() resolves the port), never the caller's config.
        self.gw = replace(
            gw,
            tenants=None
            if gw.tenants is None
            else {t: list(overlay) for t, overlay in gw.tenants.items()},
        )
        self.stats = GatewayStats()
        #: Gateway-level audit: every shed / expired / refused request, one
        #: record per query, carrying connection and client (tenant) ids.
        self.audit: RingLog = RingLog(self.gw.audit_capacity)
        #: Where the drain-time audit flush goes (default: stderr-less
        #: no-op safe default is stdout via print by ``serve``).
        self._audit_sink = audit_sink
        self._servers: list[asyncio.AbstractServer] = []
        self._free: asyncio.Queue[GatewayWorker] = asyncio.Queue()
        self._workers: list[GatewayWorker] = []
        self._executor: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pending = 0
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._closed = False
        self._conn_counter = 0
        self._next_worker_id = 0
        self._lock = threading.Lock()
        #: Durable state (bound by :meth:`start` when ``state_dir`` is
        #: configured); ``None`` = in-memory gateway.
        self.durable = None
        #: Restores refused because the state directory failed
        #: verification (the fail-closed path: start() raised).
        self.corruption_refusals = 0
        self.drain_stats: dict[str, object] = {
            "drained": False,
            "inflight_at_drain": 0,
            "drain_seconds": 0.0,
            "deadline_outs": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _spawn_worker(self) -> GatewayWorker:
        """Blocking (fork + engine build in the child); run in executor
        after startup."""
        with self._lock:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            # Replacement workers spawn with the *current* tenant overlays
            # (reload_tenant keeps this map fresh), so a respawn after a
            # reload never resurrects a pre-reload vocabulary.
            tenants = (
                None
                if self.gw.tenants is None
                else {
                    tenant_id: list(overlay)
                    for tenant_id, overlay in self.gw.tenants.items()
                }
            )
        return GatewayWorker(
            worker_id,
            self.fragments,
            self.config,
            pace_seconds=self.gw.worker_pace_seconds,
            tenants=tenants,
        )

    def _restore_durable(self) -> None:
        """Open (and recover) the durable state *before* anything serves.

        Fail-closed by construction: a corrupt journal or checkpoint
        raises :class:`~repro.persist.JournalCorrupt` out of ``start()``
        and no listener is ever bound -- the gateway refuses to vet
        queries against a vocabulary it cannot verify.  On success the
        recovered vocabulary and tenant overlays *replace* the config
        seed (persisted state wins; the seed only matters on first boot),
        so respawned workers rehydrate from the recovered fragments.
        """
        from ..persist import DurableState, JournalCorrupt

        try:
            durable = DurableState(
                self.gw.state_dir,
                seed_fragments=self.fragments,
                fsync=self.gw.fsync_policy,
                checkpoint_every=self.gw.checkpoint_every,
            )
        except JournalCorrupt:
            self.corruption_refusals += 1
            raise
        self.durable = durable
        self.fragments = list(durable.store.fragments)
        if self.gw.tenants is not None:
            # Recovered overlays win over config; config tenants unseen by
            # the journal are first-boot additions and get journaled now.
            for tenant_id, overlay in durable.overlays.items():
                self.gw.tenants[tenant_id] = list(overlay)
            for tenant_id, overlay in list(self.gw.tenants.items()):
                if tenant_id not in durable.overlays:
                    durable.set_overlay(tenant_id, overlay)
        # Every gateway audit record (sheds, refusals) is journaled; ring
        # eviction stops meaning lost evidence.
        self.audit.attach_sink(durable.append_audit)

    async def start(self) -> None:
        """Spawn the fleet and bind the listeners."""
        if self._servers:
            raise RuntimeError("gateway already started")
        self._loop = asyncio.get_running_loop()
        if self.gw.state_dir is not None:
            self._restore_durable()
        # One executor thread per worker plus slack for replacement spawns
        # and report fan-out: a blocked worker call must never starve the
        # bridge for the others.
        self._executor = ThreadPoolExecutor(
            max_workers=self.gw.workers + 2,
            thread_name_prefix="joza-gw",
        )
        for _ in range(self.gw.workers):
            worker = self._spawn_worker()
            self._workers.append(worker)
            self._free.put_nowait(worker)
        if self.gw.unix_path is not None:
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_conn, path=self.gw.unix_path
                )
            )
        if self.gw.host is not None:
            server = await asyncio.start_server(
                self._handle_conn, host=self.gw.host, port=self.gw.port
            )
            self._servers.append(server)
            # Resolve an ephemeral port for clients/tests.
            self.gw.port = server.sockets[0].getsockname()[1]

    async def stop(self, *, drain: bool = True) -> bool:
        """Stop accepting, drain in-flight, reap the fleet; True if clean.

        Idempotent.  ``drain=False`` skips the grace period (tests of the
        hard-stop path); in-flight requests then race worker teardown and
        resolve fail-closed like any other worker failure.
        """
        if self._closed:
            return bool(self.drain_stats["drained"])
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        t0 = time.monotonic()
        with self._lock:
            self.drain_stats["inflight_at_drain"] = self._inflight
        drained = True
        if drain and self._inflight > 0:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), timeout=self.gw.drain_timeout
                )
            except asyncio.TimeoutError:
                drained = False
                with self._lock:
                    self.drain_stats["deadline_outs"] = self._inflight
        self._closed = True
        loop = asyncio.get_running_loop()
        # Reap workers off-loop (close() joins); no zombie survives stop().
        await asyncio.gather(
            *(
                loop.run_in_executor(self._executor, w.close)
                for w in self._workers
            )
        )
        self._workers.clear()
        while not self._free.empty():  # drop stale free-queue handles
            self._free.get_nowait()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.drain_stats["drained"] = drained
        self.drain_stats["drain_seconds"] = time.monotonic() - t0
        if self.durable is not None:
            self.audit.attach_sink(None)
            if drain:
                # SIGTERM drain: flush the journal group and write the
                # final checkpoint -- restart restores exactly this state.
                self.durable.close()
            else:
                # Hard stop: crash-shaped.  Handles drop without flushing
                # so a subsequent restore exercises real journal replay.
                self.durable.abandon()
        self._flush_audit()
        return drained

    def _flush_audit(self) -> None:
        if self._audit_sink is None:
            return
        document = json.dumps(
            {
                "gateway": self.stats.snapshot(),
                "drain": dict(self.drain_stats),
                "audit_dropped_records": self.audit.dropped_records,
                "audit": [dict(record) for record in self.audit],
            },
            indent=2,
        )
        try:
            self._audit_sink(document)
        except Exception:  # pragma: no cover - sink must not break drain
            pass

    # ------------------------------------------------------------------
    # Deadline clamping
    # ------------------------------------------------------------------

    def _clamp_budget(self, budget: float | None) -> float | None:
        """Client budget clamped to the server's ``max_deadline``.

        ``None`` (unbounded) on both sides stays unbounded; a negative or
        zero client budget is preserved so clock-skewed requests shed as
        expired-on-arrival instead of silently gaining time.
        """
        ceiling = self.gw.max_deadline
        if budget is None:
            return ceiling
        if ceiling is None:
            return budget
        return min(budget, ceiling)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        with self._lock:
            self._conn_counter += 1
            conn_id = f"conn-{self._conn_counter}"
        self.stats.bump(connections_opened=1)
        try:
            await self._conn_loop(reader, writer, conn_id)
        except (ConnectionResetError, BrokenPipeError):
            pass  # mid-request disconnect: per-connection, fail closed
        except asyncio.CancelledError:
            # Loop teardown cancels the handlers of connections a client
            # left open.  Finish the cleanup below and return: on Python
            # <= 3.11 asyncio's stream callback calls ``exception()`` on
            # the handler task, which raises for a cancelled task and is
            # logged as an ERROR.
            pass
        finally:
            self.stats.bump(connections_closed=1)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            except RuntimeError:
                pass  # loop already closed during teardown

    async def _conn_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        conn_id: str,
    ) -> None:
        while True:
            try:
                header = await asyncio.wait_for(
                    reader.readexactly(wire.PREFIX.size),
                    timeout=self.gw.idle_timeout,
                )
            except asyncio.IncompleteReadError:
                return  # clean EOF (or torn prefix -- nothing to answer)
            except asyncio.TimeoutError:
                self.stats.bump(stalled_connections=1)
                return
            (length,) = wire.PREFIX.unpack(header)
            if length == 0 or length > wire.MAX_FRAME:
                # Refused from the announcement alone: the body is never
                # read, so a hostile length cannot make us buffer 4GiB.
                self.stats.bump(oversized_refused=1)
                await self._send_frame(
                    writer,
                    wire.pack_gateway_error(
                        wire.GW_ERR_OVERSIZED,
                        f"frame of {length} bytes refused "
                        f"(max {wire.MAX_FRAME})",
                    ),
                )
                return
            try:
                frame = await asyncio.wait_for(
                    reader.readexactly(length), timeout=self.gw.frame_timeout
                )
            except asyncio.IncompleteReadError:
                # Torn frame: client died mid-send.  No complete request
                # was received, so there is nothing to answer; the
                # connection dies, the listener lives.
                self.stats.bump(protocol_errors=1)
                return
            except asyncio.TimeoutError:
                self.stats.bump(stalled_connections=1)
                return
            reply = await self._process_frame(frame, conn_id)
            self.stats.bump(replies_sent=1)
            await self._send_frame(writer, reply)

    @staticmethod
    async def _send_frame(writer: asyncio.StreamWriter, frame: bytes) -> None:
        writer.write(wire.PREFIX.pack(len(frame)) + frame)
        await writer.drain()

    # ------------------------------------------------------------------
    # Request processing
    # ------------------------------------------------------------------

    def _audit_shed(
        self, request: wire.GatewayRequest, conn_id: str, reason: str
    ) -> None:
        for query in request.queries:
            self.audit.append(
                {
                    "query": query,
                    "client_id": request.client_id or None,
                    "conn_id": conn_id,
                    "request_path": request.path,
                    "reason": reason,
                    "failsafe": True,
                }
            )

    def _failsafe_reply(
        self, request: wire.GatewayRequest, conn_id: str, reason: str
    ) -> bytes:
        """Recorded fail-closed verdicts for every query of a shed request.

        Each verdict carries its query, so a request can fit in a frame
        while its reply does not (JSON escapes inflate non-ASCII text up
        to 6x).  That request is answered with a ``GW_ERR_INTERNAL`` error,
        which the client fails closed without retrying.
        """
        try:
            reply = wire.pack_gateway_reply(
                [
                    encode_verdict(failsafe_dict(query, reason))
                    for query in request.queries
                ]
            )
        except wire.WireFormatError:
            self.stats.bump(unframeable_replies=1)
            reason = f"{REASON_UNFRAMEABLE} ({reason})"
            reply = wire.pack_gateway_error(
                wire.GW_ERR_INTERNAL, REASON_UNFRAMEABLE
            )
        self._audit_shed(request, conn_id, reason)
        return reply

    async def _process_frame(self, frame: bytes, conn_id: str) -> bytes:
        self.stats.bump(frames_received=1)
        try:
            kind = wire.peek_kind(frame)
            if kind != wire.KIND_GW_REQUEST:
                raise wire.WireFormatError(
                    f"unexpected frame kind {kind} (want gateway request)"
                )
            request = wire.unpack_gateway_request(frame)
        except wire.WireFormatError as exc:
            # Complete-but-invalid frame: answer with a protocol error and
            # keep the connection (framing itself is still synchronized).
            self.stats.bump(protocol_errors=1)
            return wire.pack_gateway_error(wire.GW_ERR_BAD_FRAME, str(exc))
        if self._draining or self._closed:
            self.stats.bump(draining_refused=1)
            self._audit_shed(request, conn_id, REASON_DRAINING)
            return wire.pack_gateway_error(
                wire.GW_ERR_DRAINING, REASON_DRAINING
            )
        with self._lock:
            self._inflight += 1
            self._idle.clear()
        try:
            return await self._dispatch(request, conn_id)
        finally:
            with self._lock:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.set()

    async def _dispatch(
        self, request: wire.GatewayRequest, conn_id: str
    ) -> bytes:
        arrival = time.monotonic()
        budget = self._clamp_budget(request.budget)
        # Expired on arrival (includes clock-skewed negative budgets):
        # shed before any queueing, no worker is touched.
        if budget is not None and budget <= 0.0:
            self.stats.bump(expired_on_arrival=1)
            return self._failsafe_reply(
                request, conn_id, REASON_EXPIRED_ON_ARRIVAL
            )
        # Admission: hard in-flight bound, checked before waiting.
        with self._lock:
            if self._pending >= self.gw.workers + self.gw.max_queue:
                shed = True
            else:
                self._pending += 1
                shed = False
        if shed:
            self.stats.bump(shed_queue_full=1)
            return self._failsafe_reply(request, conn_id, REASON_QUEUE_FULL)
        try:
            wait = self.gw.admission_timeout
            if budget is not None:
                wait = min(wait, budget)
            try:
                worker = await asyncio.wait_for(self._free.get(), timeout=wait)
            except asyncio.TimeoutError:
                self.stats.bump(shed_no_worker=1)
                return self._failsafe_reply(request, conn_id, REASON_NO_WORKER)
            try:
                remaining = budget
                if budget is not None:
                    remaining = budget - (time.monotonic() - arrival)
                    if remaining <= 0.0:
                        self.stats.bump(expired_in_queue=1)
                        return self._failsafe_reply(
                            request, conn_id, REASON_EXPIRED_IN_QUEUE
                        )
                return await self._inspect_on(
                    worker, request, conn_id, remaining
                )
            finally:
                worker = await self._maybe_replace(worker)
                if not self._closed:
                    self._free.put_nowait(worker)
        finally:
            with self._lock:
                self._pending -= 1

    async def _inspect_on(
        self,
        worker: GatewayWorker,
        request: wire.GatewayRequest,
        conn_id: str,
        budget: float | None,
    ) -> bytes:
        assert self._loop is not None and self._executor is not None
        self.stats.bump(
            requests_accepted=1, queries_inspected=len(request.queries)
        )
        try:
            reply, payloads = await self._loop.run_in_executor(
                self._executor, worker.inspect, request, budget
            )
        except WorkerFailure as exc:
            worker.consecutive_failures += 1
            self.stats.bump(worker_failures=1)
            return self._failsafe_reply(
                request, conn_id, f"{REASON_WORKER_FAILED}: {exc.reason}"
            )
        worker.consecutive_failures = 0
        if self.durable is not None:
            # Unsafe verdicts are attack evidence: journal them at the
            # gateway (workers are disposable processes whose rings die
            # with them).  Persistence failures surface via the sink
            # counters, never on the reply path.
            for payload in payloads:
                if payload_is_safe(payload):
                    continue
                try:
                    verdict = decode_verdict(payload)
                    if not verdict["safe"]:
                        self.durable.append_audit(
                            {
                                "conn_id": conn_id,
                                "client_id": request.client_id or None,
                                "request_path": request.path,
                                "verdict": verdict,
                            }
                        )
                except Exception:
                    self.stats.bump(audit_persist_failures=1)
            try:
                self.durable.maybe_checkpoint()
            except Exception:
                self.stats.bump(audit_persist_failures=1)
        return reply

    async def _maybe_replace(self, worker: GatewayWorker) -> GatewayWorker:
        """Health check after every checkout; replace dead/failing workers."""
        if self._closed:
            return worker
        if (
            worker.is_alive()
            and worker.consecutive_failures < self.gw.replace_after
        ):
            return worker
        assert self._loop is not None and self._executor is not None
        self.stats.bump(worker_replacements=1)
        await self._loop.run_in_executor(self._executor, worker._reap)
        replacement = await self._loop.run_in_executor(
            self._executor, self._spawn_worker
        )
        with self._lock:
            try:
                self._workers.remove(worker)
            except ValueError:  # pragma: no cover - already dropped
                pass
            self._workers.append(replacement)
        return replacement

    # ------------------------------------------------------------------
    # Tenant replication
    # ------------------------------------------------------------------

    async def reload_tenant(self, tenant_id: str, overlay) -> dict:
        """Push one tenant's new overlay to every worker (warm handoff).

        The rolling-reload control plane: workers are pushed one at a
        time, each applies the snapshot in place via its registry's warm
        handoff (successor composite automaton compiled off-path, atomic
        swap) and keeps serving other tenants throughout.  A worker that
        fails the push is counted and left to the health checker --
        ``consecutive_failures`` drives its replacement, and the
        replacement spawns with the already-updated overlay map.
        """
        if self.gw.tenants is None:
            raise RuntimeError("gateway is not in tenant mode")
        overlay = list(overlay)
        # Packed once for the whole fleet, before anything is journaled or
        # published: an overlay too large to frame refuses the reload.  The
        # epoch field is unused here; each worker acks its own new epoch.
        frame = wire.pack_store_snapshot(overlay, 0, tenant_id)
        with self._lock:
            if tenant_id not in self.gw.tenants:
                raise KeyError(f"unknown tenant {tenant_id!r}")
            if self.durable is not None:
                # Journal before publishing: a failed append refuses the
                # reload and workers keep serving the old overlay.
                self.durable.set_overlay(tenant_id, overlay)
            self.gw.tenants[tenant_id] = overlay
            workers = list(self._workers)
        assert self._loop is not None and self._executor is not None
        epochs: dict[int, int] = {}
        failures: dict[int, str] = {}
        for worker in workers:
            try:
                epoch = await self._loop.run_in_executor(
                    self._executor, worker.push_snapshot, frame
                )
                epochs[worker.worker_id] = epoch
                self.stats.bump(snapshot_pushes=1)
            except WorkerFailure as exc:
                failures[worker.worker_id] = exc.reason
                self.stats.bump(snapshot_push_failures=1)
                worker.consecutive_failures += 1
        return {"tenant": tenant_id, "epochs": epochs, "failures": failures}

    # ------------------------------------------------------------------
    # Operator surface
    # ------------------------------------------------------------------

    def worker_pids(self) -> list[int]:
        """Live worker PIDs (the zombie-check hook for drain tests)."""
        return [w.pid for w in self._workers if w.pid is not None]

    def resilience_report(self) -> dict:
        """Gateway counters + per-worker engine reports (best effort).

        The ``gateway`` section is the operator's view of the sidecar:
        what was accepted, what was shed and why, how many workers were
        replaced, how the drain went, and whether the bounded audit ring
        had to drop records (easy to miss under sustained attack floods).
        """
        gateway: dict = dict(self.stats.snapshot())
        gateway["drain"] = dict(self.drain_stats)
        gateway["audit_dropped_records"] = self.audit.dropped_records
        gateway["audit_capacity"] = self.audit.capacity
        gateway["pending"] = self._pending
        gateway["workers"] = len(self._workers)
        if self.gw.tenants is not None:
            gateway["tenancy"] = {
                "tenants": len(self.gw.tenants),
                "base_fragments": len(self.fragments),
                "snapshot_pushes": gateway["snapshot_pushes"],
                "snapshot_push_failures": gateway["snapshot_push_failures"],
            }
        if self.durable is not None:
            # DESIGN.md section 15: journal/checkpoint counters, replay
            # stats, and how the audit ring's churn maps onto the journal.
            durability = dict(self.durable.durability_report())
            # ``audit_persisted`` (journal-level, from the DurableState)
            # counts every journaled audit event; the ring-level counters
            # say how much of the ring's churn the journal backs.
            durability["audit_drops_recovered"] = self.audit.drops_recovered
            durability["audit_sink_failures"] = self.audit.sink_failures
            durability["corruption_refusals"] = self.corruption_refusals
            gateway["durability"] = durability
        report: dict = {"gateway": gateway, "workers": []}
        for worker in list(self._workers):
            try:
                report["workers"].append(
                    {
                        "worker_id": worker.worker_id,
                        "pid": worker.pid,
                        "alive": worker.is_alive(),
                        "engine": worker.request_report(),
                    }
                )
            except WorkerFailure as exc:
                report["workers"].append(
                    {
                        "worker_id": worker.worker_id,
                        "pid": worker.pid,
                        "alive": worker.is_alive(),
                        "error": exc.reason,
                    }
                )
        return report


async def serve(
    gateway: AsyncGateway,
    *,
    handle_signals: bool = True,
    on_ready: Callable[[AsyncGateway], None] | None = None,
) -> int:
    """Run the gateway until SIGTERM/SIGINT, then drain gracefully.

    ``on_ready`` fires after the listeners are bound (ephemeral TCP ports
    are resolved by then).  Returns the process exit code (0 after a
    drain, clean or deadline-out -- in-flight work was resolved either way
    and no worker survived).
    """
    await gateway.start()
    if on_ready is not None:
        on_ready(gateway)
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    if handle_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop_event.set)
    try:
        await stop_event.wait()
    finally:
        await gateway.stop()
        if handle_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(signum)
    return 0


class GatewayThread:
    """Host a gateway on a background thread (sync tests and benches).

    The tier-1 suite has no asyncio plugin, so integration tests start the
    gateway here and talk to it with the sync
    :class:`~repro.service.client.GatewayClient`.
    """

    def __init__(self, gateway: AsyncGateway) -> None:
        self.gateway = gateway
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self, timeout: float = 30.0) -> "GatewayThread":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("gateway failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"gateway startup failed: {self._startup_error!r}"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.gateway.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to starter
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            # Connection handlers for sockets the client never closed are
            # still pending; cancel and drain them while the loop is alive
            # so their cleanup (writer.close) does not fire post-close.
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def run_coro(self, coro, timeout: float = 30.0):
        """Run a coroutine on the gateway loop from the calling thread."""
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> bool:
        """Drain and stop the gateway, then stop the loop and join."""
        if self._loop is None or self._thread is None:
            return True
        if self._startup_error is None:
            drained = self.run_coro(self.gateway.stop(drain=drain), timeout)
        else:
            drained = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        return drained
