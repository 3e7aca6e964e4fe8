"""The gateway under test, in a process of its own.

The benchmark process is the client: its connection threads must not
share an interpreter lock with the gateway's event loop, or the numbers
would measure lock hand-offs between client and server.  So the gateway
runs here, in a spawned process, and takes control operations (tenant
reloads, reports, tracing on/off, stop) over a pipe from the benchmark.
Everything it calls is public ``repro.service`` API.
"""

from __future__ import annotations

import contextlib
import multiprocessing

from repro.service import AsyncGateway, GatewayThread

from . import trace


def serve(conn, fragments, gateway_config, traced: bool) -> None:
    """Spawned-process entry: run one gateway until ``stop`` or EOF.

    Replies are ``("ok", value)`` or ``("err", reason)``.  With ``traced``
    the workers are forked with :func:`trace.worker_engine_probe` in place,
    so their reports carry engine busy time.
    """
    # A spawned process inherits "spawn" as its default start method; give
    # the gateway the platform default, as ``python -m repro serve`` has.
    multiprocessing.set_start_method(None, force=True)
    with contextlib.ExitStack() as process_scope:
        if traced:
            process_scope.enter_context(trace.worker_engine_probe())
        gateway = AsyncGateway(fragments, gateway=gateway_config)
        thread = GatewayThread(gateway)
        try:
            thread.start(timeout=120.0)
        except RuntimeError as exc:
            conn.send(("err", repr(exc)))
            return
        tracer = trace.Tracer()
        spans = contextlib.ExitStack()
        drain = True
        try:
            conn.send(("ok", None))
            while True:
                try:
                    op, *args = conn.recv()
                except (EOFError, OSError):
                    drain = False  # the benchmark died: stop without waiting
                    break
                if op == "stop":
                    drain = args[0]
                    break
                try:
                    if op == "reload":
                        reply = thread.run_coro(gateway.reload_tenant(*args))
                    elif op == "pids":
                        reply = gateway.worker_pids()
                    elif op == "report":
                        reply = (gateway.resilience_report(), tracer.totals())
                    elif op == "trace":
                        spans.close()
                        if args[0]:
                            spans.enter_context(
                                trace.patched(trace.durable_targets(tracer, gateway))
                            )
                        reply = None
                    else:
                        raise ValueError(f"unknown control op {op!r}")
                except Exception as exc:  # answered; the loop keeps serving
                    conn.send(("err", f"{op}: {exc!r}"))
                    continue
                conn.send(("ok", reply))
        finally:
            spans.close()
            drained = thread.stop(drain=drain)
            with contextlib.suppress(OSError):
                conn.send(("ok", drained))
