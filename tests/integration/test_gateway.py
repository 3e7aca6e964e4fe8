"""Integration suite for the guard gateway (DESIGN.md section 12).

Five claims, each end-to-end over real sockets and real worker processes:

1. **Verdict parity** -- the Table IV attack/benign matrix through the
   gateway is *byte-identical* (canonical verdict JSON) to a direct
   in-process ``inspect_batch`` over the same fragments and config, and
   through the gateway, ``inspect`` and ``inspect_batch`` it decides as
   the hybrid spec (``tests/reference/hybrid_spec.py``) does.
2. **Never fail open under network chaos** -- a seeded ``netfaults``
   schedule (torn frames, garbage, oversized announcements, skewed
   deadlines, worker SIGKILL) yields zero fail-open outcomes, every shed
   or expired request recorded as a fail-closed block, and client-observed
   p99 bounded by the deadline plus scheduling epsilon.
3. **Worker crash isolation** -- SIGKILLing a worker mid-request resolves
   that batch fail-closed, replaces the worker, and the next request is
   served normally.
4. **Admission control** -- saturating a one-worker gateway sheds the
   overflow as recorded fail-closed verdicts with attributable audit
   records, never silent drops.
5. **Graceful drain** -- stop() resolves in-flight work, reaps every
   worker (zero zombies), and refuses late requests with a drain error.

Wall-clock discipline: schedules are seeded (CHAOS_SEED env, default
1337); budgets are sized to the in-process analysis cost, not to slow CI.
"""

import logging
import os
import threading
import time

import pytest

from repro.service import (
    AsyncGateway,
    GatewayClient,
    GatewayConfig,
    GatewayError,
    GatewayThread,
)
from repro.core.verdict import verdict_to_dict
from repro.service.codec import encode_verdict
from repro.core import JozaConfig, JozaEngine
from repro.service import worker as worker_module
from repro.phpapp.context import CapturedInput, RequestContext
from tests.support.concurrency import SWARM_FRAGMENTS, build_workload
from tests.support.netfaults import (
    NetFaultInjector,
    NetFaultKind,
    NetFaultSchedule,
    fail_open_outcomes,
    run_chaos_session,
)
from tests.reference.hybrid_spec import hybrid_spec

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "1337"))

#: The attack/benign matrix (Table IV families over the swarm vocabulary):
#: (query, inputs, is_attack).
MATRIX = [
    ("SELECT * FROM records WHERE ID=7 LIMIT 5", ["7"], False),
    ("SELECT name FROM users WHERE id=3 LIMIT 1", ["3"], False),
    (
        "SELECT option_value FROM options WHERE option_name='home'",
        [],
        False,
    ),
    (
        "SELECT COUNT(*) FROM comments WHERE post_id=12 AND approved=1",
        ["12"],
        False,
    ),
    # Tautology
    (
        "SELECT name FROM users WHERE id=1 OR 1=1 LIMIT 1",
        ["1 OR 1=1"],
        True,
    ),
    # Union exfiltration
    (
        "SELECT * FROM records WHERE ID=7 UNION SELECT user_pass FROM users"
        " LIMIT 5",
        ["7 UNION SELECT user_pass FROM users"],
        True,
    ),
    # Piggyback
    (
        "SELECT name FROM users WHERE id=2; DROP TABLE records-- LIMIT 1",
        ["2; DROP TABLE records--"],
        True,
    ),
    # Blind/boolean
    (
        "SELECT * FROM records WHERE ID=5 AND SLEEP(5) LIMIT 5",
        ["5 AND SLEEP(5)"],
        True,
    ),
]


def pace_workers(monkeypatch, seconds):
    """Hold each worker busy ``seconds`` per request, so tests can act
    while one is in flight.  Call before the gateway starts: its workers
    fork with the patched ``_inspect``."""
    inspect = worker_module._inspect

    def paced(fleet, request):
        time.sleep(seconds)
        return inspect(fleet, request)

    monkeypatch.setattr(worker_module, "_inspect", paced)


def make_gateway(tmp_path, **overrides):
    kwargs = dict(
        unix_path=str(tmp_path / "gw.sock"),
        host=None,
        workers=2,
        seed=CHAOS_SEED,
        max_deadline=5.0,
    )
    kwargs.update(overrides)
    return AsyncGateway(SWARM_FRAGMENTS, gateway=GatewayConfig(**kwargs))


def matrix_inputs(values):
    return [("get", f"p{i}", v) for i, v in enumerate(values)]


def test_gateway_verdicts_byte_identical_to_inprocess(tmp_path):
    gateway = make_gateway(tmp_path)
    thread = GatewayThread(gateway).start()
    try:
        client = GatewayClient(
            unix_path=gateway.gw.unix_path, client_id="parity"
        )
        engine = JozaEngine.from_fragments(SWARM_FRAGMENTS)
        for query, values, is_attack in MATRIX:
            inputs = matrix_inputs(values)
            via_gateway = client.inspect(
                [query], inputs=inputs, budget=5.0
            )[0]
            context = RequestContext(
                inputs=[CapturedInput(s, n, v) for s, n, v in inputs]
            )
            direct = verdict_to_dict(
                engine.inspect_batch([query], context)[0]
            )
            assert encode_verdict(via_gateway) == encode_verdict(direct), (
                f"parity broken for {query!r}"
            )
            assert via_gateway["safe"] is (not is_attack)
        client.close()
    finally:
        assert thread.stop()


def spec_view(verdict):
    """What the hybrid spec decides, read off one verdict dict: overall and
    per-technique ``safe`` plus the PTI and NTI detection spans."""
    pti, nti = verdict["pti"], verdict["nti"]
    return (
        verdict["safe"],
        pti["safe"],
        [(d["token_text"], d["token_start"], d["token_end"]) for d in pti["detections"]],
        nti["safe"],
        [
            (d["token_text"], d["token_start"], d["token_end"], d["input_value"])
            for d in nti["detections"]
        ],
    )


def test_matrix_verdicts_equal_hybrid_spec(tmp_path):
    """Gateway, ``inspect`` and ``inspect_batch`` all decide as the spec."""
    threshold = JozaConfig().nti.threshold
    expected = []
    for query, values, is_attack in MATRIX:
        safe, (pti_safe, pti_spans), (nti_safe, _, nti_spans) = hybrid_spec(
            query, SWARM_FRAGMENTS, values, threshold
        )
        assert safe is (not is_attack)
        expected.append((safe, pti_safe, pti_spans, nti_safe, nti_spans))

    serial = JozaEngine.from_fragments(SWARM_FRAGMENTS)
    batched = JozaEngine.from_fragments(SWARM_FRAGMENTS)
    via_inspect, via_batch = [], []
    for query, values, _ in MATRIX:
        context = RequestContext(
            inputs=[CapturedInput(s, n, v) for s, n, v in matrix_inputs(values)]
        )
        via_inspect.append(spec_view(verdict_to_dict(serial.inspect(query, context))))
        via_batch.append(
            spec_view(verdict_to_dict(batched.inspect_batch([query], context)[0]))
        )
    assert via_inspect == expected
    assert via_batch == expected

    gateway = make_gateway(tmp_path)
    thread = GatewayThread(gateway).start()
    try:
        client = GatewayClient(unix_path=gateway.gw.unix_path, client_id="spec")
        via_gateway = [
            spec_view(
                client.inspect([query], inputs=matrix_inputs(values), budget=5.0)[0]
            )
            for query, values, _ in MATRIX
        ]
        client.close()
    finally:
        assert thread.stop()
    assert via_gateway == expected


def test_chaos_soak_never_fails_open(tmp_path):
    """Seeded netfaults schedule: zero fail-open, sheds recorded, p99 bound."""
    gateway = make_gateway(
        tmp_path,
        workers=2,
        idle_timeout=2.0,
        frame_timeout=1.0,
        max_deadline=2.0,
    )
    thread = GatewayThread(gateway).start()
    try:
        workload = build_workload(
            seed=CHAOS_SEED,
            threads=1,
            queries_per_thread=40,
            fault_rate=0.0,
            attack_rate=0.3,
        )[0]
        schedule = NetFaultSchedule.seeded(
            CHAOS_SEED,
            len(workload),
            rate=0.4,
            kinds=(
                NetFaultKind.TORN_FRAME,
                NetFaultKind.GARBAGE,
                NetFaultKind.OVERSIZED,
                NetFaultKind.SKEWED_DEADLINE,
                NetFaultKind.WORKER_KILL,
            ),
        )
        injector = NetFaultInjector(
            unix_path=gateway.gw.unix_path,
            gateway=gateway,
            seed=CHAOS_SEED + 1,
        )
        client = GatewayClient(
            unix_path=gateway.gw.unix_path, client_id="chaos"
        )
        budget = 2.0
        outcomes = run_chaos_session(
            client, injector, workload, schedule, budget=budget
        )
        client.close()

        assert len(outcomes) == len(workload)
        assert injector.injected, "schedule injected nothing"
        assert fail_open_outcomes(outcomes) == []

        # Every request got exactly one resolution; attacks all blocked.
        for outcome in outcomes:
            assert (outcome.verdict is None) != (outcome.error is None)
            if outcome.is_attack and outcome.verdict is not None:
                assert outcome.verdict["safe"] is False

        # Skewed deadlines shed as expired-on-arrival failsafe blocks,
        # recorded in the gateway audit with the tenant id.
        skews = [
            o
            for o in outcomes
            if o.fault == NetFaultKind.SKEWED_DEADLINE.value
        ]
        report = gateway.resilience_report()["gateway"]
        if skews:
            assert report["expired_on_arrival"] >= len(skews)
            for outcome in skews:
                assert outcome.verdict is not None
                assert outcome.verdict["failsafe"] is True
            audited = [
                r
                for r in gateway.audit
                if any(
                    reason.endswith("expired on arrival")
                    for reason in r["verdict"]["failure_reasons"]
                )
            ]
            assert len(audited) >= len(skews)
            assert all(r["client_id"] == "chaos" for r in audited)

        # Transport faults were seen and counted.
        if schedule.positions(NetFaultKind.OVERSIZED):
            assert report["oversized_refused"] > 0
        if schedule.positions(NetFaultKind.TORN_FRAME):
            assert report["protocol_errors"] > 0
        if schedule.positions(NetFaultKind.WORKER_KILL):
            assert report["worker_replacements"] > 0

        # p99 client latency bounded by the budget + scheduling epsilon
        # (worker replacement happens off the request path).
        latencies = sorted(o.latency for o in outcomes)
        p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
        assert p99 <= budget + 0.75, f"p99 {p99:.3f}s past deadline"
    finally:
        assert thread.stop()
    # Drain left no zombies.
    assert gateway.worker_pids() == []


def test_worker_sigkill_mid_request_fails_closed_and_replaces(
    monkeypatch, tmp_path
):
    pace_workers(monkeypatch, 0.4)
    gateway = make_gateway(tmp_path, workers=1, max_deadline=5.0)
    thread = GatewayThread(gateway).start()
    try:
        client = GatewayClient(
            unix_path=gateway.gw.unix_path, client_id="killer"
        )
        victim_pid = gateway.worker_pids()[0]
        result: dict = {}

        def send():
            result["verdict"] = client.inspect(
                ["SELECT * FROM records WHERE ID=7 LIMIT 5"],
                inputs=[("get", "p0", "7")],
                budget=3.0,
            )[0]

        sender = threading.Thread(target=send)
        sender.start()
        time.sleep(0.15)  # inside the paced 0.4s service window
        injector = NetFaultInjector(
            unix_path=gateway.gw.unix_path, gateway=gateway, seed=1
        )
        assert injector.kill_worker() == victim_pid
        sender.join(timeout=10.0)
        assert not sender.is_alive()

        verdict = result["verdict"]
        assert verdict["safe"] is False
        assert verdict["failsafe"] is True
        assert any(
            "worker failure" in r for r in verdict["failure_reasons"]
        )
        report = gateway.resilience_report()["gateway"]
        assert report["worker_failures"] >= 1
        assert report["worker_replacements"] >= 1

        # The replacement serves the next request normally.
        healthy = client.inspect(
            ["SELECT * FROM records WHERE ID=8 LIMIT 5"],
            inputs=[("get", "p0", "8")],
            budget=3.0,
        )[0]
        assert healthy["safe"] is True
        assert gateway.worker_pids() != [victim_pid]
        client.close()
    finally:
        assert thread.stop()
    assert gateway.worker_pids() == []


def test_saturation_sheds_are_recorded_fail_closed(monkeypatch, tmp_path):
    pace_workers(monkeypatch, 0.5)
    gateway = make_gateway(
        tmp_path,
        workers=1,
        max_queue=0,
        admission_timeout=0.05,
        max_deadline=5.0,
    )
    thread = GatewayThread(gateway).start()
    try:
        n_clients = 4
        verdicts: list[dict] = []
        lock = threading.Lock()

        def hammer(i: int) -> None:
            client = GatewayClient(
                unix_path=gateway.gw.unix_path, client_id=f"tenant-{i}"
            )
            v = client.inspect(
                ["SELECT * FROM records WHERE ID=7 LIMIT 5"],
                inputs=[("get", "p0", "7")],
                budget=4.0,
            )[0]
            with lock:
                verdicts.append(v)
            client.close()

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15.0)
        assert len(verdicts) == n_clients

        shed = [v for v in verdicts if v["failsafe"]]
        served = [v for v in verdicts if not v["failsafe"]]
        report = gateway.resilience_report()["gateway"]
        sheds_counted = (
            report["shed_queue_full"]
            + report["shed_no_worker"]
            + report["expired_in_queue"]
        )
        # One worker, zero queue, 0.05s admission: overflow must shed...
        assert shed, "saturation never shed"
        assert len(shed) == sheds_counted
        # ...as fail-closed verdicts (never silent drops)...
        for v in shed:
            assert v["safe"] is False
            assert v["failsafe"] is True
        # ...each with an attributable audit record.
        audited_ids = {r["client_id"] for r in gateway.audit}
        assert len(gateway.audit) == len(shed)
        assert all(cid and cid.startswith("tenant-") for cid in audited_ids)
        # The worker that was busy still answered its own request safely.
        assert any(v["safe"] for v in served)
    finally:
        assert thread.stop()


def test_graceful_drain_resolves_inflight_and_leaves_no_zombies(
    monkeypatch, tmp_path
):
    pace_workers(monkeypatch, 0.3)
    gateway = make_gateway(tmp_path, workers=2, drain_timeout=5.0)
    thread = GatewayThread(gateway).start()
    pids = gateway.worker_pids()
    assert len(pids) == 2 and all(os.path.exists(f"/proc/{p}") for p in pids)
    client = GatewayClient(unix_path=gateway.gw.unix_path, client_id="d")
    result: dict = {}

    def send():
        result["verdict"] = client.inspect(
            ["SELECT * FROM records WHERE ID=7 LIMIT 5"],
            inputs=[("get", "p0", "7")],
            budget=3.0,
        )[0]

    sender = threading.Thread(target=send)
    sender.start()
    time.sleep(0.1)  # request is in flight inside the paced worker
    drained = thread.stop()  # SIGTERM-equivalent: stop accepting, drain
    sender.join(timeout=10.0)
    assert not sender.is_alive()

    assert drained, "drain timed out with a 0.3s-paced request in flight"
    assert gateway.drain_stats["inflight_at_drain"] == 1
    # The in-flight request finished with a real verdict, not an error.
    assert result["verdict"]["safe"] is True
    # Every worker process is gone -- no zombies.
    time.sleep(0.2)
    for pid in pids:
        assert not _pid_running(pid), f"worker {pid} survived drain"
    assert gateway.worker_pids() == []
    assert gateway.drain_stats["drained"] is True
    client.close()


def test_stop_with_open_client_connection_logs_no_asyncio_error(
    tmp_path, caplog
):
    caplog.set_level(logging.WARNING, logger="asyncio")
    gateway = make_gateway(tmp_path, workers=1)
    thread = GatewayThread(gateway).start()
    client = GatewayClient(unix_path=gateway.gw.unix_path, client_id="open")
    try:
        assert client.inspect(
            ["SELECT * FROM records WHERE ID=7 LIMIT 5"],
            inputs=[("get", "p0", "7")],
            budget=5.0,
        )[0]["safe"]
        # The client's connection is still open while the loop stops.
        assert thread.stop()
    finally:
        client.close()
    errors = [
        record.getMessage()
        for record in caplog.records
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]
    assert errors == []


def test_replies_sent_counts_a_reply_before_the_client_holds_it(tmp_path):
    gateway = make_gateway(tmp_path, workers=1)
    thread = GatewayThread(gateway).start()
    client = GatewayClient(unix_path=gateway.gw.unix_path, client_id="count")
    try:
        for sent in range(1, 41):
            client.inspect(
                ["SELECT * FROM records WHERE ID=7 LIMIT 5"],
                inputs=[("get", "p0", "7")],
                budget=5.0,
            )
            assert gateway.stats.snapshot()["replies_sent"] == sent
    finally:
        client.close()
        assert thread.stop()


def _pid_running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign pid
        return True
    return True


def test_late_requests_during_drain_get_drain_error(tmp_path):
    gateway = make_gateway(tmp_path, workers=1)
    thread = GatewayThread(gateway).start()
    try:
        client = GatewayClient(
            unix_path=gateway.gw.unix_path, client_id="late"
        )
        # Prime the connection while the gateway is healthy.
        assert client.inspect(
            ["SELECT * FROM records WHERE ID=7 LIMIT 5"],
            inputs=[("get", "p0", "7")],
            budget=2.0,
        )[0]["safe"]
        # Flip the gateway into draining without tearing connections.
        gateway._draining = True
        with pytest.raises(GatewayError) as excinfo:
            client.inspect(["SELECT 1"], budget=2.0)
        assert "draining" in str(excinfo.value)
        report = gateway.resilience_report()["gateway"]
        assert report["draining_refused"] == 1
        # The refusal is audited, attributably.
        assert any(
            r["verdict"]["failure_reasons"][0].endswith("(SIGTERM)")
            and r["client_id"] == "late"
            for r in gateway.audit
        )
        client.close()
    finally:
        gateway._draining = False
        assert thread.stop()


def test_multi_query_batches_preserve_order_and_parity(tmp_path):
    gateway = make_gateway(tmp_path, workers=2)
    thread = GatewayThread(gateway).start()
    try:
        client = GatewayClient(
            unix_path=gateway.gw.unix_path, client_id="batch"
        )
        queries = [q for q, _, _ in MATRIX]
        values = sorted({v for _, vals, _ in MATRIX for v in vals})
        inputs = matrix_inputs(values)
        via_gateway = client.inspect(queries, inputs=inputs, budget=5.0)
        assert [v["query"] for v in via_gateway] == queries

        engine = JozaEngine.from_fragments(SWARM_FRAGMENTS)
        context = RequestContext(
            inputs=[CapturedInput(s, n, v) for s, n, v in inputs]
        )
        direct = [
            verdict_to_dict(v)
            for v in engine.inspect_batch(queries, context)
        ]
        assert [encode_verdict(v) for v in via_gateway] == [
            encode_verdict(v) for v in direct
        ]
        client.close()
    finally:
        assert thread.stop()
