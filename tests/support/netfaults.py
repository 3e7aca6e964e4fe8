"""Seeded network-fault harness for the guard gateway.

The gateway (DESIGN.md section 12) claims its own invariant on top of the
engine's: *every request that reaches a listener resolves to a recorded
fail-closed verdict or a clean protocol error -- under any network fault
schedule*.  This module is the adversary: a reproducible
:class:`NetFaultSchedule` (same positional design as
:class:`~tests.support.faults.FaultSchedule`) driving socket-level attacks
that no well-behaved client library can produce:

- **TORN_FRAME** -- announce a frame, send a prefix of it, disconnect.
- **GARBAGE** -- a correctly-framed payload of seeded random bytes.
- **OVERSIZED** -- a length prefix past ``MAX_FRAME``; the body is never
  sent (and the gateway must refuse before trying to read it).
- **STALL** -- a slow-loris client dribbling one byte at a time.
- **WORKER_KILL** -- SIGKILL a live worker process mid-traffic.
- **SKEWED_DEADLINE** -- a request whose deadline budget is already
  negative (client clock ahead of the server's), which must shed as
  expired-on-arrival, never gain time.

:func:`run_chaos_session` interleaves these with a real workload (the
:mod:`~tests.support.concurrency` item vocabulary) and records one
:class:`ChaosOutcome` per request for the invariant checks in the
integration suite and the bench soak: zero fail-open, every shed recorded,
latency bounded by the deadline.
"""

from __future__ import annotations

import enum
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.pti import wire
from repro.service.client import GatewayClient, GatewayError
from .concurrency import WorkloadItem

__all__ = [
    "NetFaultKind",
    "NetFaultSchedule",
    "NetFaultInjector",
    "ChaosOutcome",
    "run_chaos_session",
    "fail_open_outcomes",
]


class NetFaultKind(enum.Enum):
    """The injectable network fault classes."""

    TORN_FRAME = "torn_frame"
    GARBAGE = "garbage"
    OVERSIZED = "oversized"
    STALL = "stall"
    WORKER_KILL = "worker_kill"
    SKEWED_DEADLINE = "skewed_deadline"


@dataclass(frozen=True)
class NetFaultSchedule:
    """Reproducible position -> network fault mapping.

    Positions are request indices of one chaos session: before sending
    request ``i``, the fault at position ``i`` (if any) is injected.
    """

    faults: dict[int, NetFaultKind] = field(default_factory=dict)
    seed: int | None = None

    @classmethod
    def none(cls) -> "NetFaultSchedule":
        return cls({})

    @classmethod
    def fixed(cls, mapping: dict[int, NetFaultKind]) -> "NetFaultSchedule":
        return cls(dict(mapping))

    @classmethod
    def seeded(
        cls,
        seed: int,
        length: int,
        rate: float = 0.25,
        kinds: tuple[NetFaultKind, ...] = (
            NetFaultKind.TORN_FRAME,
            NetFaultKind.GARBAGE,
            NetFaultKind.OVERSIZED,
            NetFaultKind.SKEWED_DEADLINE,
        ),
    ) -> "NetFaultSchedule":
        """Draw a schedule reproducibly from ``seed``.

        ``kinds`` defaults to the cheap transport faults; STALL and
        WORKER_KILL are opt-in because each costs real wall-clock time
        (a timeout window / a worker respawn).
        """
        rng = random.Random(seed)
        faults = {
            i: rng.choice(kinds) for i in range(length) if rng.random() < rate
        }
        return cls(faults, seed=seed)

    def fault_at(self, index: int) -> NetFaultKind | None:
        return self.faults.get(index)

    def positions(self, kind: NetFaultKind | None = None) -> list[int]:
        return sorted(
            i
            for i, k in self.faults.items()
            if kind is None or k is kind
        )


class NetFaultInjector:
    """Socket-level fault generator against one gateway endpoint.

    ``gateway`` (an :class:`~repro.service.gateway.AsyncGateway`) is only
    needed for WORKER_KILL; the transport faults just need the address.
    Every injection uses its own throwaway connection so the session's
    real client connection is never the one being damaged -- mirroring a
    misbehaving *other* tenant, the case the per-connection isolation
    claim is about.
    """

    def __init__(
        self,
        *,
        unix_path: str | None = None,
        host: str | None = None,
        port: int = 0,
        gateway=None,
        seed: int | None = None,
        timeout: float = 5.0,
    ) -> None:
        if unix_path is None and host is None:
            raise ValueError("need a unix_path or a host to inject against")
        self.unix_path = unix_path
        self.host = host
        self.port = port
        self.gateway = gateway
        self.timeout = timeout
        self.rng = random.Random(seed)
        #: Injection log: ``(kind, detail)`` per injected fault.
        self.injected: list[tuple[NetFaultKind, str]] = []

    def _connect(self) -> socket.socket:
        if self.unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.unix_path)
            return sock
        return socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    @staticmethod
    def _close(sock: socket.socket) -> None:
        try:
            sock.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def _sample_frame(self) -> bytes:
        return wire.pack_gateway_request(
            ["SELECT * FROM records WHERE ID=1 LIMIT 5"],
            client_id="chaos",
            budget=1.0,
        )

    # -- transport faults ----------------------------------------------

    def torn_frame(self) -> None:
        """Announce a full frame, send a random prefix, disconnect."""
        frame = self._sample_frame()
        cut = self.rng.randrange(0, len(frame))
        sock = self._connect()
        try:
            sock.sendall(wire.PREFIX.pack(len(frame)) + frame[:cut])
        finally:
            self._close(sock)
        self.injected.append((NetFaultKind.TORN_FRAME, f"cut at {cut}"))

    def garbage(self) -> bytes | None:
        """A correctly-framed payload of random bytes; returns the reply."""
        length = self.rng.randrange(1, 256)
        payload = self.rng.randbytes(length)
        sock = self._connect()
        try:
            sock.sendall(wire.PREFIX.pack(length) + payload)
            reply = self._read_reply(sock)
        finally:
            self._close(sock)
        self.injected.append((NetFaultKind.GARBAGE, f"{length} bytes"))
        return reply

    def oversized(self) -> bytes | None:
        """Announce a frame past MAX_FRAME; body never sent."""
        announced = wire.MAX_FRAME + 1 + self.rng.randrange(0, 1 << 20)
        sock = self._connect()
        try:
            sock.sendall(wire.PREFIX.pack(announced))
            reply = self._read_reply(sock)
        finally:
            self._close(sock)
        self.injected.append((NetFaultKind.OVERSIZED, f"announced {announced}"))
        return reply

    def stall(
        self, byte_delay: float = 0.05, max_bytes: int = 16
    ) -> None:
        """Slow-loris: dribble a valid frame one byte at a time, give up.

        With the gateway's ``idle_timeout``/``frame_timeout`` tuned below
        ``byte_delay * frame length`` the server must cut the connection;
        either way this connection never completes a frame.
        """
        frame = self._sample_frame()
        data = wire.PREFIX.pack(len(frame)) + frame
        sock = self._connect()
        try:
            for i in range(min(max_bytes, len(data))):
                sock.sendall(data[i : i + 1])
                time.sleep(byte_delay)
        except OSError:
            pass  # server already cut us off -- the point
        finally:
            self._close(sock)
        self.injected.append(
            (NetFaultKind.STALL, f"{byte_delay}s/byte x {max_bytes}")
        )

    def _read_reply(self, sock: socket.socket) -> bytes | None:
        """Best-effort read of one framed reply (None on cut/diet)."""
        try:
            header = b""
            while len(header) < wire.PREFIX.size:
                chunk = sock.recv(wire.PREFIX.size - len(header))
                if not chunk:
                    return None
                header += chunk
            (length,) = wire.PREFIX.unpack(header)
            if length == 0 or length > wire.MAX_FRAME:
                return None
            body = b""
            while len(body) < length:
                chunk = sock.recv(length - len(body))
                if not chunk:
                    return None
                body += chunk
            return body
        except OSError:
            return None

    # -- process faults ------------------------------------------------

    def kill_worker(self) -> int | None:
        """SIGKILL one live worker (needs the gateway handle); its pid."""
        if self.gateway is None:
            raise ValueError("kill_worker needs a gateway handle")
        workers = [w for w in self.gateway._workers if w.is_alive()]
        if not workers:
            return None
        worker = self.rng.choice(workers)
        pid = worker.pid
        worker.kill()
        self.injected.append((NetFaultKind.WORKER_KILL, f"pid {pid}"))
        return pid

    def inject(self, kind: NetFaultKind) -> None:
        """Dispatch one fault of ``kind`` (SKEWED_DEADLINE is a request
        property, handled by the session runner, not a socket fault)."""
        if kind is NetFaultKind.TORN_FRAME:
            self.torn_frame()
        elif kind is NetFaultKind.GARBAGE:
            self.garbage()
        elif kind is NetFaultKind.OVERSIZED:
            self.oversized()
        elif kind is NetFaultKind.STALL:
            self.stall()
        elif kind is NetFaultKind.WORKER_KILL:
            self.kill_worker()


@dataclass(frozen=True)
class ChaosOutcome:
    """One workload request's fate during a chaos session."""

    index: int
    query: str
    is_attack: bool
    fault: str | None  # NetFaultKind.value injected before this request
    verdict: dict | None  # decoded verdict dict, None when errored
    error: str | None  # GatewayError reason, None when answered
    latency: float  # client-observed seconds for the inspect call

    @property
    def answered_safe(self) -> bool:
        return self.verdict is not None and self.verdict["safe"] is True


def run_chaos_session(
    client: GatewayClient,
    injector: NetFaultInjector,
    workload: Sequence[WorkloadItem],
    schedule: NetFaultSchedule,
    *,
    budget: float | None = 1.0,
) -> list[ChaosOutcome]:
    """Drive ``workload`` through ``client`` with faults interleaved.

    Before request ``i`` the scheduled fault (if any) is injected on a
    *separate* connection (or process, for WORKER_KILL); request ``i``
    itself then goes through the real client -- except SKEWED_DEADLINE,
    which mutates the request's own budget to a negative value.  Every
    request therefore gets exactly one outcome: a verdict dict or a
    :class:`~repro.service.client.GatewayError` reason, both fail-closed
    unless the verdict says ``safe`` -- which :func:`fail_open_outcomes`
    then audits against the workload's ground truth.
    """
    outcomes: list[ChaosOutcome] = []
    for index, item in enumerate(workload):
        fault = schedule.fault_at(index)
        request_budget = budget
        if fault is NetFaultKind.SKEWED_DEADLINE:
            request_budget = -abs(
                injector.rng.uniform(0.001, 5.0)
            )  # client clock ahead of server
            injector.injected.append(
                (NetFaultKind.SKEWED_DEADLINE, f"budget {request_budget:.3f}")
            )
        elif fault is not None:
            injector.inject(fault)
        inputs = [
            ("get", f"p{i}", value) for i, value in enumerate(item.values)
        ]
        t0 = time.monotonic()
        verdict: dict | None = None
        error: str | None = None
        try:
            verdict = client.inspect(
                [item.query], inputs=inputs, budget=request_budget
            )[0]
        except GatewayError as exc:
            error = exc.reason
        latency = time.monotonic() - t0
        outcomes.append(
            ChaosOutcome(
                index=index,
                query=item.query,
                is_attack=item.is_attack,
                fault=None if fault is None else fault.value,
                verdict=verdict,
                error=error,
                latency=latency,
            )
        )
    return outcomes


def fail_open_outcomes(
    outcomes: Sequence[ChaosOutcome],
) -> list[ChaosOutcome]:
    """Outcomes that violate never-fail-open: must be empty.

    A fail-open is an attack answered ``safe``, or a fault-stamped request
    answered ``safe`` when the fault was one that must shed the request
    itself (a skewed deadline).  Transport faults injected on *other*
    connections legitimately leave the session request safe -- isolation
    working as designed -- so they are not flagged here.
    """
    violations = []
    for outcome in outcomes:
        if outcome.is_attack and outcome.answered_safe:
            violations.append(outcome)
        elif (
            outcome.fault == NetFaultKind.SKEWED_DEADLINE.value
            and outcome.answered_safe
        ):
            violations.append(outcome)
    return violations
