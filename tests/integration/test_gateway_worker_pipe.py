"""Faults on the gateway <-> worker pipe (DESIGN.md section 12).

The pipe carries ``pti/wire`` frames only.  Every fault on it resolves
the affected request fail-closed with a recorded reason:

- a pickled message ends a live worker's loop, and the next batch fails
  closed onto a replacement;
- a worker whose reply is not a frame, carries the wrong number of
  verdicts, or who stays silent past its timeout, is reaped and
  replaced, and the replacement serves;
- a ``GW_ERROR`` reply leaves the worker alive with one more
  ``consecutive_failures``;
- a reply too large for one frame is answered with a coded
  ``GW_ERR_INTERNAL`` error after one analysis, audited and counted, and
  the gateway keeps serving.

Faulty children are real forked workers whose first request is answered
by a stand-in for the worker loop; every later child runs the real loop.
"""

import os
import time

import pytest

from repro.pti import wire
from repro.service import (
    AsyncGateway,
    GatewayClient,
    GatewayConfig,
    GatewayError,
    GatewayThread,
)
from repro.service import worker as worker_module
from repro.service.gateway import REASON_UNFRAMEABLE, REASON_WORKER_FAILED
from tests.support.concurrency import SWARM_FRAGMENTS

BENIGN = ("SELECT * FROM records WHERE ID=7 LIMIT 5", [("get", "p0", "7")])


def make_gateway(tmp_path, **overrides):
    kwargs = dict(
        unix_path=str(tmp_path / "gw.sock"),
        host=None,
        workers=1,
        max_deadline=5.0,
    )
    kwargs.update(overrides)
    return AsyncGateway(SWARM_FRAGMENTS, gateway=GatewayConfig(**kwargs))


def ask(gateway, query, inputs, budget=3.0):
    client = GatewayClient(unix_path=gateway.gw.unix_path, client_id="pipe")
    try:
        return client.inspect([query], inputs=inputs, budget=budget)[0]
    finally:
        client.close()


def pid_running(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def fault_first_request(monkeypatch, tmp_path, answer):
    """Fork workers whose first request fleet-wide is answered by ``answer``."""
    marker = tmp_path / "faulted"
    real_loop = worker_module._gateway_worker_loop

    def loop(conn, *args):
        if not marker.exists():
            conn.recv_bytes()
            marker.touch()
            answer(conn)
        real_loop(conn, *args)

    monkeypatch.setattr(worker_module, "_gateway_worker_loop", loop)


def test_pickled_message_ends_worker_loop_and_batch_fails_closed(tmp_path):
    gateway = make_gateway(tmp_path)
    thread = GatewayThread(gateway).start()
    try:
        worker = gateway._workers[0]
        victim = worker.pid
        worker._conn.send(("report",))  # a pickle: not a frame
        worker._process.join(timeout=5.0)
        assert not worker.is_alive(), "worker answered a pickle"

        verdict = ask(gateway, *BENIGN)
        assert verdict["safe"] is False and verdict["failsafe"] is True
        assert any(
            r.startswith(REASON_WORKER_FAILED) for r in verdict["failure_reasons"]
        )
        report = gateway.resilience_report()["gateway"]
        assert report["worker_failures"] == 1
        assert report["worker_replacements"] == 1
        assert gateway.worker_pids() != [victim]
        assert ask(gateway, *BENIGN)["safe"] is True
    finally:
        assert thread.stop()
    assert gateway.worker_pids() == []


def send_garbage(conn):
    conn.send_bytes(b"not a frame")


def send_two_verdicts(conn):
    conn.send_bytes(wire.pack_gateway_reply([b"{}", b"{}"]))


def stay_silent(conn):
    time.sleep(60.0)


@pytest.mark.parametrize(
    "answer, reason",
    [
        (send_garbage, "corrupt reply"),
        (send_two_verdicts, "returned 2 verdicts for 1 queries"),
        (stay_silent, "silent for"),
    ],
    ids=["not-a-frame", "wrong-count", "silent"],
)
def test_faulty_worker_is_reaped_and_replaced(monkeypatch, tmp_path, answer, reason):
    fault_first_request(monkeypatch, tmp_path, answer)
    gateway = make_gateway(tmp_path)
    thread = GatewayThread(gateway).start()
    try:
        victim = gateway.worker_pids()[0]
        verdict = ask(gateway, *BENIGN, budget=0.5)
        assert verdict["safe"] is False and verdict["failsafe"] is True
        assert any(
            r.startswith(REASON_WORKER_FAILED) and reason in r
            for r in verdict["failure_reasons"]
        )
        assert any(
            reason in r["verdict"]["failure_reasons"][0] for r in gateway.audit
        )
        report = gateway.resilience_report()["gateway"]
        assert report["worker_failures"] == 1
        assert report["worker_replacements"] == 1
        assert not pid_running(victim)
        assert gateway.worker_pids() != [victim]
        assert ask(gateway, *BENIGN)["safe"] is True
    finally:
        assert thread.stop()
    assert gateway.worker_pids() == []


def test_gw_error_reply_keeps_worker_and_counts_one_failure(monkeypatch, tmp_path):
    def refuse(conn):
        conn.send_bytes(wire.pack_gateway_error(wire.GW_ERR_INTERNAL, "injected"))

    fault_first_request(monkeypatch, tmp_path, refuse)
    gateway = make_gateway(tmp_path)
    thread = GatewayThread(gateway).start()
    try:
        worker = gateway._workers[0]
        verdict = ask(gateway, *BENIGN)
        assert verdict["safe"] is False and verdict["failsafe"] is True
        assert f"{REASON_WORKER_FAILED}: worker 0: injected" in verdict["failure_reasons"]
        assert worker.is_alive()
        assert worker.consecutive_failures == 1
        assert gateway._workers == [worker]
        assert gateway.stats.worker_replacements == 0
        assert ask(gateway, *BENIGN)["safe"] is True
        assert worker.consecutive_failures == 0
    finally:
        assert thread.stop()


def test_unframeable_reply_gets_coded_error_after_one_analysis(monkeypatch, tmp_path):
    # JSON escapes each CJK character as six bytes, so this request fits
    # in a frame while any verdict carrying its query does not.
    monkeypatch.setattr(wire, "MAX_FRAME", 8192)
    query = "SELECT * FROM records WHERE name='" + "中" * 2000 + "' LIMIT 5"
    request = wire.pack_gateway_request([query], client_id="pipe", budget=3.0)
    assert len(request) < wire.MAX_FRAME < 6 * 2000

    gateway = make_gateway(tmp_path)
    thread = GatewayThread(gateway).start()
    try:
        worker = gateway._workers[0]
        with pytest.raises(GatewayError) as excinfo:
            ask(gateway, query, [])
        assert excinfo.value.code == wire.GW_ERR_INTERNAL
        stats = gateway.stats.snapshot()
        assert stats["requests_accepted"] == 1  # one analysis, no retries
        assert stats["unframeable_replies"] == 1
        assert stats["worker_failures"] == 1
        audited = [
            r
            for r in gateway.audit
            if r["verdict"]["failure_reasons"][0].startswith(REASON_UNFRAMEABLE)
        ]
        assert [r["verdict"]["query"] for r in audited] == [query]
        assert worker.is_alive() and worker.consecutive_failures == 1

        assert ask(gateway, *BENIGN)["safe"] is True
        assert gateway.worker_pids() == [worker.pid]
    finally:
        assert thread.stop()
