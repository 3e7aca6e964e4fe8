"""Gateway worker processes: one full Joza engine fleet per child.

Each :class:`GatewayWorker` wraps one long-lived child process hosting
either a single :class:`~repro.core.JozaEngine` with an in-process PTI
daemon or, in multi-tenant mode, a :class:`~repro.tenancy.TenantRegistry`
with one engine per tenant over interned
:class:`~repro.tenancy.TenantStore` state.  The child is reached over
an anonymous pipe carrying pickled ``(op, ...)`` tuples between the two
trusted ends.  The GIL never serialises two workers: analysis parallelism
across clients comes from *processes*, the asyncio gateway only shuffles
bytes.

In multi-tenant mode the gateway wire's ``client_id`` is the tenant id:
inspects route to that tenant's engine, and a client naming an
unregistered tenant gets fail-closed verdicts (never another tenant's
vocabulary).  Tenant fragment reloads arrive as ``("snapshot", tenant,
overlay)`` ops and apply in place via the registry's warm handoff -- the
worker process is never restarted for a vocabulary change.

Resilience contract (mirrors ``SubprocessPTIDaemon``): :meth:`inspect`
either returns one verdict dict per query or raises
:class:`WorkerFailure`; pipe errors and silent hangs never escape raw.  A
failed worker is reaped with the terminate -> kill escalation so no zombie
survives it.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Mapping, Sequence

from ..core.engine import JozaEngine
from ..core.policy import JozaConfig
from ..core.resilience import Deadline
from ..phpapp.context import CapturedInput, RequestContext
from ..pti.fragments import FragmentStore
from .codec import failsafe_dict, verdict_to_dict

__all__ = [
    "GatewayWorker",
    "WorkerFailure",
    "REASON_UNKNOWN_TENANT",
    "_gateway_worker_loop",
]

#: Refusal reason for inspects naming a tenant the worker does not host.
REASON_UNKNOWN_TENANT = "worker: unknown tenant"


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
        """Warm-handoff reload of one tenant's overlay; returns new epoch."""
        if self.registry is None:
            raise RuntimeError("snapshot op requires tenant mode")
        if tenant_id not in self.registry:
            raise KeyError(f"unknown tenant {tenant_id!r}")
        return self.registry.reload_tenant(tenant_id, overlay, warm=True)

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

    def close(self) -> None:
        engines = list(self.engines.values())
        if self.default is not None:
            engines.append(self.default)
        for engine in engines:
            close = getattr(engine.daemon, "close", None)
            if callable(close):
                try:
                    close()
                except Exception:  # pragma: no cover - teardown
                    pass


def _gateway_worker_loop(
    conn,
    fragments,
    config: JozaConfig,
    pace_seconds: float,
    tenants: Mapping[str, Sequence[str]] | None = None,
) -> None:
    """Child entry point: serve inspect/report/snapshot ops until None/EOF.

    Every inspect answers with ``("ok", [verdict_dict, ...])`` -- one dict
    per query, in order -- or ``("err", reason)``.  An ``("err", ...)``
    reply means the *whole batch* must be resolved fail-closed by the
    parent; the child never invents partial results.
    """
    fleet = _EngineFleet(fragments, config, tenants)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            try:
                reply = _handle(fleet, message, pace_seconds)
            except Exception as exc:  # noqa: BLE001 - child must answer
                reply = ("err", f"{type(exc).__name__}: {exc}")
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        fleet.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover - teardown
            pass


def _handle(fleet: _EngineFleet, message, pace_seconds: float):
    if not isinstance(message, tuple) or not message:
        return ("err", f"malformed worker message: {message!r}")
    op = message[0]
    if op == "inspect":
        _, client_id, path, inputs, queries, budget = message
        engine = fleet.route(client_id)
        if engine is None:
            # Tenant mode and the client named a tenant this worker does
            # not host.  Fail closed per query -- routing to any other
            # tenant's vocabulary would be a cross-tenant leak.
            reason = f"{REASON_UNKNOWN_TENANT}: {client_id!r}"
            return (
                "ok",
                [
                    failsafe_dict(query, reason, tenant=client_id)
                    for query in queries
                ],
            )
        if pace_seconds > 0.0:
            # Models per-request service time so throughput benches show
            # cross-process overlap even on a single-core runner.
            time.sleep(pace_seconds)
        context = RequestContext(
            inputs=[CapturedInput(s, n, v) for s, n, v in inputs],
            path=path,
        )
        deadline = Deadline(budget)
        verdicts = engine.inspect_batch(queries, context, deadline)
        for verdict in verdicts:
            if not verdict.safe:
                engine.record_block(verdict, path, client_id or None)
        return ("ok", [verdict_to_dict(v) for v in verdicts])
    if op == "snapshot":
        _, tenant_id, overlay = message
        return ("ok", fleet.snapshot(tenant_id, overlay))
    if op == "report":
        return ("ok", fleet.report())
    if op == "ping":
        return ("ok", "pong")
    return ("err", f"unknown worker op: {op!r}")


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
        pace_seconds: float = 0.0,
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
                pace_seconds,
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

    def _round_trip(self, message, timeout: float):
        """One send + poll-bounded recv; any fault reaps the child."""
        with self._io_lock:
            try:
                self._conn.send(message)
                if not self._conn.poll(timeout):
                    raise WorkerFailure(
                        f"worker {self.worker_id} silent for {timeout:.3f}s"
                    )
                reply = self._conn.recv()
            except WorkerFailure:
                self._reap()
                raise
            except (BrokenPipeError, EOFError, OSError) as exc:
                self._reap()
                raise WorkerFailure(
                    f"worker {self.worker_id} pipe failure: "
                    f"{type(exc).__name__}"
                ) from exc
        if (
            not isinstance(reply, tuple)
            or len(reply) != 2
            or reply[0] not in ("ok", "err")
        ):
            self._reap()
            raise WorkerFailure(
                f"worker {self.worker_id} corrupt reply: {reply!r}"
            )
        if reply[0] == "err":
            # The child survives its own analysis errors; don't reap, the
            # caller decides (consecutive_failures drives replacement).
            raise WorkerFailure(f"worker {self.worker_id}: {reply[1]}")
        return reply[1]

    def inspect(
        self,
        client_id: str,
        path: str,
        inputs,
        queries,
        budget: float | None,
    ) -> list[dict]:
        """Analyse one batch; returns one verdict dict per query, in order."""
        timeout = (
            self.recv_timeout
            if budget is None
            else max(budget, 0.0) + self.recv_grace
        )
        payload = self._round_trip(
            ("inspect", client_id, path, list(inputs), list(queries), budget),
            timeout,
        )
        if not isinstance(payload, list) or len(payload) != len(queries):
            self._reap()
            raise WorkerFailure(
                f"worker {self.worker_id} returned {len(payload)} verdicts "
                f"for {len(queries)} queries"
                if isinstance(payload, list)
                else f"worker {self.worker_id} corrupt verdict list"
            )
        return payload

    def push_snapshot(
        self,
        tenant_id: str,
        fragments,
        timeout: float | None = None,
    ) -> int:
        """Warm-handoff one tenant's overlay in the live child; new epoch.

        The replication push of the tenancy epoch protocol: the child's
        registry builds the successor state and composite automaton
        off-path, swaps atomically, and keeps serving throughout -- the
        worker process is never restarted for a vocabulary change.
        """
        epoch = self._round_trip(
            ("snapshot", tenant_id, list(fragments)),
            timeout or self.recv_timeout,
        )
        if not isinstance(epoch, int):
            raise WorkerFailure(
                f"worker {self.worker_id} corrupt snapshot ack: {epoch!r}"
            )
        return epoch

    def request_report(self, timeout: float | None = None) -> dict:
        """The child engine's ``resilience_report()`` (operator surface)."""
        report = self._round_trip(("report",), timeout or self.recv_timeout)
        if not isinstance(report, dict):
            raise WorkerFailure(
                f"worker {self.worker_id} corrupt report: {type(report)}"
            )
        return report

    def ping(self, timeout: float = 2.0) -> bool:
        try:
            return self._round_trip(("ping",), timeout) == "pong"
        except WorkerFailure:
            return False

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def _reap(self) -> None:
        """Hard teardown: close pipe, terminate -> kill, bounded joins."""
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        process = self._process
        process.join(timeout=0.05)
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
        if process.is_alive():  # pragma: no cover - SIGTERM blocked
            process.kill()
            process.join(timeout=1.0)

    def kill(self) -> None:
        """SIGKILL the child (chaos harness hook); no graceful anything."""
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=1.0)

    def close(self, graceful_timeout: float = 1.0) -> None:
        """Graceful shutdown: send None, bounded join, escalate if ignored."""
        with self._io_lock:
            try:
                self._conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            self._process.join(timeout=graceful_timeout)
            self._reap()
