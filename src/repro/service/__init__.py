"""Network sidecar deployment of the Joza guard (DESIGN.md section 12).

The paper deploys Joza as a database-interposition layer in front of real
web applications (Section V); this package is that deployment shape for
the reproduction: an asyncio gateway speaking the length-prefixed binary
protocol of :mod:`repro.pti.wire` over unix / TCP sockets, dispatching to
a fleet of worker *processes* (one :class:`~repro.core.JozaEngine` each,
PTI in-process) over pipes that carry the same frames, so N app servers
share one guard without sharing a GIL.

Every failure mode -- torn frame, dead worker, saturated queue, expired
deadline, mid-drain arrival -- resolves to a recorded fail-closed verdict
or a clean protocol error, never a silent pass.
"""

from .codec import decode_verdict, encode_verdict
from .gateway import (
    AsyncGateway,
    GatewayConfig,
    GatewayThread,
    serve,
)
from .client import GatewayClient, GatewayError
from .worker import GatewayWorker, WorkerFailure

__all__ = [
    "AsyncGateway",
    "GatewayClient",
    "GatewayConfig",
    "GatewayError",
    "GatewayThread",
    "GatewayWorker",
    "WorkerFailure",
    "decode_verdict",
    "encode_verdict",
    "serve",
]
