"""The gateway client, fail-closed by construction.

:class:`GatewayClient` exposes ``inspect(queries, ...) -> list[verdict
dict]`` and raises :class:`GatewayError` when no trustworthy verdict could
be obtained -- connection refused, retries exhausted, breaker open,
protocol error, undecodable payload.  Callers must treat
:class:`GatewayError` exactly like an unsafe verdict: the query does not
run.  There is deliberately no "assume safe on error" knob.

The client reuses the engine's own resilience primitives: a
:class:`~repro.core.resilience.RetryPolicy` (jittered backoff, seeded for
reproducible chaos runs) around connect/IPC and a
:class:`~repro.core.resilience.CircuitBreaker` so a dead sidecar costs
each request one refused call, not one connect timeout.
"""

from __future__ import annotations

import random
import socket
import struct
import time
from typing import Sequence

from ..core.resilience import CircuitBreaker, RetryPolicy
from ..core.verdict import CodecError
from ..pti import wire
from .codec import decode_verdict

__all__ = ["GatewayClient", "GatewayError"]


class GatewayError(Exception):
    """No trustworthy verdict; the caller must fail closed.

    ``code`` carries the wire error code when the gateway itself refused
    (:data:`~repro.pti.wire.GW_ERR_DRAINING` etc.), else 0 for transport /
    decode failures.
    """

    def __init__(self, reason: str, *, code: int = 0) -> None:
        super().__init__(reason)
        self.reason = reason
        self.code = code


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise GatewayError(
                f"connection closed mid-reply ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _decode_reply(frame: bytes, expected: int) -> list[dict]:
    """Reply validation: reply frame -> verdict dicts, fail closed."""
    try:
        kind = wire.peek_kind(frame)
        if kind == wire.KIND_GW_ERROR:
            code, message = wire.unpack_gateway_error(frame)
            raise GatewayError(f"gateway refused: {message}", code=code)
        if kind != wire.KIND_GW_REPLY:
            raise GatewayError(f"unexpected reply kind: {kind}")
        payloads = wire.unpack_gateway_reply(frame)
    except wire.WireFormatError as exc:
        raise GatewayError(f"corrupt reply frame: {exc}") from exc
    if len(payloads) != expected:
        raise GatewayError(
            f"got {len(payloads)} verdicts for {expected} queries"
        )
    try:
        return [decode_verdict(p) for p in payloads]
    except CodecError as exc:
        raise GatewayError(f"undecodable verdict: {exc}") from exc


class GatewayClient:
    """Synchronous gateway client over a persistent socket.

    Args:
        unix_path: unix socket to connect to (preferred), or
        host/port: TCP endpoint.
        client_id: tenant/connection id stamped into every request (and
            into gateway-side audit records).
        timeout: socket timeout per send/recv (transport stall bound;
            independent of the analysis ``budget``).
        retry: backoff schedule for reconnect + resend (idempotent: a
            request either produced a reply or it didn't; replaying an
            inspect is side-effect-free on the guard).
        breaker: circuit breaker over transport health; open means
            immediate :class:`GatewayError` without touching the socket.
        seed: RNG seed for backoff jitter.
    """

    def __init__(
        self,
        *,
        unix_path: str | None = None,
        host: str | None = None,
        port: int = 0,
        client_id: str = "",
        timeout: float = 10.0,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        seed: int | None = None,
    ) -> None:
        if unix_path is None and host is None:
            raise ValueError("need a unix_path or a host to connect to")
        self.unix_path = unix_path
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._rng = random.Random(seed)
        self._sock: socket.socket | None = None

    # -- transport -----------------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        if self.unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.unix_path)
        else:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        self._sock = sock
        return sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - defensive
                pass
            self._sock = None

    def _round_trip(self, frame: bytes) -> bytes:
        sock = self._connect()
        sock.sendall(wire.PREFIX.pack(len(frame)) + frame)
        header = _recv_exactly(sock, wire.PREFIX.size)
        (length,) = wire.PREFIX.unpack(header)
        if length == 0 or length > wire.MAX_FRAME:
            raise GatewayError(f"reply frame of {length} bytes refused")
        return _recv_exactly(sock, length)

    # -- API -----------------------------------------------------------

    def inspect(
        self,
        queries: Sequence[str],
        *,
        path: str = "/",
        inputs: Sequence[tuple[str, str, str]] = (),
        budget: float | None = None,
    ) -> list[dict]:
        """Vet a batch; one verdict dict per query, in order.

        Raises :class:`GatewayError` when no verdict could be obtained --
        treat it as a block.
        """
        if not queries:
            return []
        frame = wire.pack_gateway_request(
            list(queries),
            client_id=self.client_id,
            path=path,
            inputs=list(inputs),
            budget=budget,
        )
        if not self.breaker.allow():
            raise GatewayError("client circuit breaker open")
        last: GatewayError | None = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                time.sleep(self.retry.delay(attempt - 1, self._rng))
            try:
                reply = self._round_trip(frame)
                verdicts = _decode_reply(reply, len(queries))
            except GatewayError as exc:
                self._drop()
                if exc.code:
                    # The gateway answered (drain/refusal): a healthy
                    # transport, no point hammering it with retries.
                    self.breaker.record_success()
                    raise
                last = exc
                self.breaker.record_failure()
                continue
            except (OSError, struct.error) as exc:
                self._drop()
                last = GatewayError(
                    f"transport failure: {type(exc).__name__}: {exc}"
                )
                self.breaker.record_failure()
                continue
            self.breaker.record_success()
            return verdicts
        assert last is not None
        raise last

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
