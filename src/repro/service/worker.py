"""Gateway worker processes: one full Joza engine fleet per child.

Each :class:`GatewayWorker` wraps one long-lived child process hosting
either a single :class:`~repro.core.JozaEngine` with an in-process PTI
daemon or, in multi-tenant mode, a :class:`~repro.tenancy.TenantRegistry`
with one engine per tenant over interned
:class:`~repro.tenancy.TenantStore` state.  The GIL never serialises two
workers: analysis parallelism across clients comes from *processes*, the
asyncio gateway only shuffles bytes.

The pipe carries :mod:`~repro.pti.wire` frames and nothing else
(DESIGN.md sections 11-12).  The gateway sends the client's request
re-packed with its remaining budget; the child answers with the
``GW_REPLY`` the client will receive, encoding each verdict once, or a
``GW_ERROR`` (``GW_ERR_INTERNAL``) for its own failures.  Tenant overlay
pushes are snapshot frames answered by a snapshot ack, the operator
report is a report frame, and an empty frame stops the child.  Any other
bytes (a pickle included) end the child's loop, so the parent sees EOF
and fails the batch closed.

In multi-tenant mode the gateway wire's ``client_id`` is the tenant id:
inspects route to that tenant's engine, and a client naming an
unregistered tenant gets fail-closed verdicts (never another tenant's
vocabulary).  A tenant overlay reload is the registry's warm handoff: a
new store, swapped into the tenant's engine -- the worker process is
never restarted for a vocabulary change.

Resilience contract (mirrors ``SubprocessPTIDaemon``): every call either
returns its decoded answer or raises :class:`WorkerFailure`; pipe errors
and silent hangs never escape raw.  A worker whose pipe failed, went
silent or answered with something that is not the expected frame is
reaped with the terminate -> kill escalation so no zombie survives it; a
``GW_ERROR`` answer leaves it alive.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Mapping, Sequence

from ..core.engine import JozaEngine
from ..core.policy import JozaConfig
from ..core.resilience import Deadline
from ..core.verdict import failsafe_dict, verdict_to_dict
from ..phpapp.context import CapturedInput, RequestContext
from ..pti import wire
from ..pti.daemon import reap_child
from ..pti.fragments import FragmentStore
from .codec import encode_verdict

__all__ = [
    "GatewayWorker",
    "WorkerFailure",
    "REASON_UNKNOWN_TENANT",
    "_gateway_worker_loop",
]

#: Refusal reason for inspects naming a tenant the worker does not host.
REASON_UNKNOWN_TENANT = "worker: unknown tenant"

#: Longest failure message a worker puts in its ``GW_ERROR`` frame (the
#: frame's message field is bounded; the reason only needs to be greppable).
_MAX_ERROR_CHARS = 1024


class WorkerFailure(Exception):
    """A worker call failed (hang, crash, corrupt reply); resolve fail-closed."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _EngineFleet:
    """Child-side engine set: one default engine, or one per tenant.

    Single-tenant mode (``tenants is None``) is the legacy shape: one
    engine over a plain :class:`FragmentStore`.  Multi-tenant mode builds
    a :class:`~repro.tenancy.TenantRegistry` whose shared base is the
    worker's fragment list and provisions one engine per tenant over its
    interned :class:`~repro.tenancy.TenantStore`.  Either way PTI runs
    in-process: the worker process already isolates the fleet's faults.
    """

    def __init__(
        self,
        fragments,
        config: JozaConfig,
        tenants: Mapping[str, Sequence[str]] | None,
    ) -> None:
        self.registry = None
        self.engines: dict[str, JozaEngine] = {}
        self.default: JozaEngine | None = None
        if tenants is None:
            self.default = JozaEngine(FragmentStore(fragments), config)
            return
        from ..tenancy import TenantRegistry

        self.registry = TenantRegistry(fragments)
        for tenant_id, overlay in tenants.items():
            store = self.registry.add_tenant(tenant_id, overlay)
            self.engines[tenant_id] = JozaEngine(store, config)

    def route(self, client_id: str) -> JozaEngine | None:
        """The engine for one client; None = unknown tenant (fail closed)."""
        if self.registry is None:
            return self.default
        return self.engines.get(client_id)

    def snapshot(self, tenant_id: str, overlay) -> int:
        """Warm-handoff reload of one tenant's overlay; returns new epoch.

        The registry builds the successor store; the tenant's engine is
        kept (its counters keep counting) and swaps the store in.
        """
        if self.registry is None:
            raise RuntimeError("snapshot push requires tenant mode")
        store = self.registry.reload_tenant(tenant_id, overlay)
        self.engines[tenant_id].daemon.refresh_fragments(store)
        return store.epoch

    def report(self) -> dict:
        if self.registry is None:
            assert self.default is not None
            return self.default.resilience_report()
        report: dict = {"tenancy": self.registry.tenancy_report()}
        report["tenants"] = {
            tenant_id: engine.resilience_report()
            for tenant_id, engine in self.engines.items()
        }
        return report


def _inspect(fleet: _EngineFleet, request: wire.GatewayRequest) -> bytes:
    """The ``GW_REPLY`` frame for one request: each verdict encoded once.

    The worker keeps no audit: the gateway's ring records the unsafe ones.
    """
    engine = fleet.route(request.client_id)
    if engine is None:
        # Tenant mode and the client named a tenant this worker does not
        # host.  Fail closed per query -- routing to any other tenant's
        # vocabulary would be a cross-tenant leak.
        reason = f"{REASON_UNKNOWN_TENANT}: {request.client_id!r}"
        verdicts = [
            failsafe_dict(query, reason, tenant=request.client_id)
            for query in request.queries
        ]
    else:
        context = RequestContext(
            inputs=[CapturedInput(s, n, v) for s, n, v in request.inputs],
            path=request.path,
        )
        verdicts = [
            verdict_to_dict(v)
            for v in engine.inspect_batch(
                request.queries, context, Deadline(request.budget)
            )
        ]
    return wire.pack_gateway_reply([encode_verdict(v) for v in verdicts])


#: The frames a worker child accepts, by kind, with their decoders.
_DECODERS = {
    wire.KIND_GW_REQUEST: wire.unpack_gateway_request,
    wire.KIND_SNAPSHOT: wire.unpack_store_snapshot,
    wire.KIND_REPORT: wire.unpack_report,
}


def _gateway_worker_loop(
    conn,
    fragments,
    config: JozaConfig,
    tenants: Mapping[str, Sequence[str]] | None = None,
) -> None:
    """Child entry point: answer each frame with one frame until told to stop.

    A request is answered with one ``GW_REPLY`` -- one verdict per query,
    in order -- or, when anything in the child fails (the analysis, or a
    reply too large to frame), with one ``GW_ERROR`` that the parent
    resolves fail-closed for the *whole batch*; the child never invents
    partial results.  The empty shutdown frame, EOF and any message that
    is not one of :data:`_DECODERS` (a pickle included) end the loop.
    """
    fleet = _EngineFleet(fragments, config, tenants)
    with conn:
        while True:
            try:
                buf = conn.recv_bytes()
                kind = wire.peek_kind(buf)
                message = _DECODERS[kind](buf)
            except (EOFError, OSError, KeyError, wire.WireFormatError):
                break
            try:
                if kind == wire.KIND_GW_REQUEST:
                    reply = _inspect(fleet, message)
                elif kind == wire.KIND_SNAPSHOT:
                    tenant_id, _epoch, overlay = message
                    reply = wire.pack_snapshot_ack(
                        fleet.snapshot(tenant_id, overlay)
                    )
                else:
                    reply = wire.pack_report(fleet.report())
            except Exception as exc:  # noqa: BLE001 - child must answer
                reply = wire.pack_gateway_error(
                    wire.GW_ERR_INTERNAL,
                    f"{type(exc).__name__}: {exc}"[:_MAX_ERROR_CHARS],
                )
            try:
                conn.send_bytes(reply)
            except OSError:
                break


class GatewayWorker:
    """Parent-side handle on one engine child process.

    Calls are blocking (the asyncio gateway bridges them through an
    executor) and serialised by an internal I/O lock -- the pipe is strict
    FIFO, so interleaved send/recv from two threads would desynchronise
    replies.  The gateway's free-worker queue already gives each worker
    one caller at a time; the lock makes misuse safe, not fast.
    """

    def __init__(
        self,
        worker_id: int,
        fragments,
        config: JozaConfig,
        *,
        recv_timeout: float = 10.0,
        recv_grace: float = 0.25,
        tenants: Mapping[str, Sequence[str]] | None = None,
    ) -> None:
        self.worker_id = worker_id
        self.recv_timeout = recv_timeout
        self.recv_grace = recv_grace
        #: Consecutive failed calls (reset on success); the gateway
        #: replaces the worker when this reaches its ``replace_after``.
        self.consecutive_failures = 0
        self._io_lock = threading.Lock()
        parent_conn, child_conn = multiprocessing.Pipe()
        self._conn = parent_conn
        self._process = multiprocessing.Process(
            target=_gateway_worker_loop,
            args=(
                child_conn,
                list(fragments),
                config,
                (
                    None
                    if tenants is None
                    else {
                        tenant_id: list(overlay)
                        for tenant_id, overlay in tenants.items()
                    }
                ),
            ),
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    @property
    def pid(self) -> int | None:
        return self._process.pid

    def is_alive(self) -> bool:
        return self._process.is_alive()

    # ------------------------------------------------------------------
    # Round trips
    # ------------------------------------------------------------------

    def _call(self, frame, decode, timeout: float):
        """One send + poll-bounded receive: ``(reply bytes, decode(reply))``.

        A ``GW_ERROR`` answer raises :class:`WorkerFailure` and keeps the
        child (it survived its own failure; ``consecutive_failures``
        drives replacement).  A dead or silent pipe, or a reply that is
        not the frame ``decode`` expects, reaps the child first.
        """
        with self._io_lock:
            try:
                self._conn.send_bytes(frame)
                if not self._conn.poll(timeout):
                    raise WorkerFailure(
                        f"worker {self.worker_id} silent for {timeout:.3f}s"
                    )
                reply = self._conn.recv_bytes()
            except WorkerFailure:
                self._reap()
                raise
            except (EOFError, OSError) as exc:
                self._reap()
                raise WorkerFailure(
                    f"worker {self.worker_id} pipe failure: "
                    f"{type(exc).__name__}"
                ) from exc
        try:
            if wire.peek_kind(reply) != wire.KIND_GW_ERROR:
                return reply, decode(reply)
            _code, message = wire.unpack_gateway_error(reply)
        except wire.WireFormatError as exc:
            self._reap()
            raise WorkerFailure(
                f"worker {self.worker_id} corrupt reply: {exc}"
            ) from exc
        raise WorkerFailure(f"worker {self.worker_id}: {message}")

    def inspect(
        self, request: wire.GatewayRequest, budget: float | None
    ) -> tuple[bytes, list[bytes]]:
        """Analyse one request under ``budget`` (seconds left, None = unbounded).

        Returns the worker's ``GW_REPLY`` frame, ready to relay to the
        client, and its verdict payloads (one per query, in order).
        """
        timeout = (
            self.recv_timeout
            if budget is None
            else max(budget, 0.0) + self.recv_grace
        )
        frame = wire.pack_gateway_request(
            request.queries,
            client_id=request.client_id,
            path=request.path,
            inputs=request.inputs,
            budget=budget,
        )
        reply, payloads = self._call(frame, wire.unpack_gateway_reply, timeout)
        if len(payloads) != len(request.queries):
            self._reap()
            raise WorkerFailure(
                f"worker {self.worker_id} returned {len(payloads)} verdicts "
                f"for {len(request.queries)} queries"
            )
        return reply, payloads

    def push_snapshot(self, frame: bytes, timeout: float | None = None) -> int:
        """Warm-handoff one tenant's overlay in the live child; new epoch.

        ``frame`` is a store snapshot carrying the tenant id and overlay,
        packed once per reload for the whole fleet.  The child's registry
        builds the successor store and its composite automaton, the
        tenant's engine swaps it in, and the child acks the store's epoch
        -- the worker process is never restarted for a vocabulary change.
        """
        _, epoch = self._call(
            frame, wire.unpack_snapshot_ack, timeout or self.recv_timeout
        )
        return epoch

    def request_report(self, timeout: float | None = None) -> dict:
        """The child engine's ``resilience_report()`` (operator surface)."""
        _, report = self._call(
            wire.pack_report({}), wire.unpack_report, timeout or self.recv_timeout
        )
        return report

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def _reap(self) -> None:
        """Hard teardown: close pipe, terminate -> kill, bounded joins."""
        reap_child(self._conn, self._process)

    def kill(self) -> None:
        """SIGKILL the child (chaos harness hook); no graceful anything."""
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=1.0)

    def close(self) -> None:
        """Graceful shutdown: the empty frame, bounded join, then escalate."""
        with self._io_lock:
            reap_child(self._conn, self._process, graceful=True)
