"""One audit trail (DESIGN.md sections 7, 12 and 15).

A blocked query is recorded as one audit event,
``{"request_path", "client_id", "conn_id", "verdict"}``, whose verdict is
the verdict's one dict form, and each deployment records it in one place:

- in process, the engine's ``attack_log``;
- behind the gateway, the gateway's ring -- every shed, refusal and
  unsafe verdict a worker returns -- whose sink journals each event when
  the gateway is durable.  Workers keep no audit of their own.

Journals written with older record shapes recover unchanged: recovery
reads audit events as opaque dicts.
"""

import json

import pytest

from repro.core import JozaEngine, dict_to_verdict, verdict_to_dict
from repro.persist import DurableState
from repro.phpapp.application import QueryBlockedError
from repro.phpapp.context import CapturedInput, RequestContext
from repro.service import AsyncGateway, GatewayClient, GatewayConfig, GatewayThread
from repro.service import gateway as gateway_module

FRAGMENTS = ["SELECT * FROM posts WHERE id=", " LIMIT 5"]
ATTACK = "SELECT * FROM posts WHERE id=1 OR 1=1 LIMIT 5"
ATTACK_INPUT = ("get", "id", "1 OR 1=1")
EVENT_KEYS = {"request_path", "client_id", "conn_id", "verdict"}


def make_gateway(tmp_path, durable=False, documents=None):
    config = GatewayConfig(
        unix_path=str(tmp_path / "gw.sock"),
        workers=1,
        state_dir=str(tmp_path / "state") if durable else None,
        fsync_policy="never",
    )
    sink = None if documents is None else documents.append
    return AsyncGateway(FRAGMENTS, gateway=config, audit_sink=sink)


def send_attack(gateway, budget=5.0):
    client = GatewayClient(unix_path=gateway.gw.unix_path, client_id="probe")
    try:
        [verdict] = client.inspect(
            [ATTACK], path="/post", inputs=[ATTACK_INPUT], budget=budget
        )
    finally:
        client.close()
    return verdict


def recover_audit(tmp_path):
    """The audit events a restarted durable gateway recovers."""
    restarted = make_gateway(tmp_path, durable=True)
    thread = GatewayThread(restarted).start()
    assert thread.stop()
    return restarted.durable.recovered.audit


def test_worker_blocked_attack_is_one_event_in_the_ring_and_the_drain_document(
    tmp_path,
):
    documents = []
    gateway = make_gateway(tmp_path, documents=documents)
    thread = GatewayThread(gateway).start()
    try:
        assert send_attack(gateway)["safe"] is False
        events = list(gateway.audit)
    finally:
        assert thread.stop()
    assert len(events) == 1
    (event,) = events
    assert event["client_id"] == "probe" and event["request_path"] == "/post"
    assert event["verdict"]["query"] == ATTACK
    assert event["verdict"]["failsafe"] is False
    [document] = documents
    assert json.loads(document)["audit"] == events


def test_durable_gateway_journals_the_event_through_its_ring(tmp_path):
    gateway = make_gateway(tmp_path, durable=True)
    thread = GatewayThread(gateway).start()
    # A wrapper installed after start(), as a tracer wraps a live gateway's
    # journal, sees every append.
    seen = []
    append = gateway.durable.append_audit

    def traced(event):
        seen.append(event)
        return append(event)

    gateway.durable.append_audit = traced
    try:
        assert send_attack(gateway)["safe"] is False
        events = list(gateway.audit)
        journaled = gateway.durable.audit_tail()
    finally:
        thread.stop(drain=False)  # crash-shaped: no final checkpoint
    assert len(events) == 1
    assert journaled == events
    assert seen == events
    assert gateway.audit.persisted_records == 1
    assert gateway.audit.sink_failures == 0
    assert recover_audit(tmp_path) == events


def test_a_refused_journal_append_counts_once_as_a_sink_failure(tmp_path):
    gateway = make_gateway(tmp_path, durable=True)
    thread = GatewayThread(gateway).start()

    def full_disk(event):
        raise OSError("no space left on device")

    gateway.durable.append_audit = full_disk
    try:
        # The reply path never sees the refusal; the ring keeps the event.
        assert send_attack(gateway)["safe"] is False
        events = list(gateway.audit)
        report = gateway.resilience_report()["gateway"]
    finally:
        thread.stop(drain=False)
    assert len(events) == 1
    assert report["durability"]["audit_sink_failures"] == 1
    assert report["audit_persist_failures"] == 0
    assert gateway.audit.persisted_records == 0


def test_every_source_records_the_one_event_schema(tmp_path):
    engine = JozaEngine.from_fragments(FRAGMENTS)
    context = RequestContext(inputs=[CapturedInput(*ATTACK_INPUT)], path="/post")
    with pytest.raises(QueryBlockedError):
        engine.check_query(ATTACK, context)
    [exported] = json.loads(engine.export_attack_log())["attacks"]

    gateway = make_gateway(tmp_path, durable=True)
    thread = GatewayThread(gateway).start()
    try:
        # A spent budget sheds on arrival; the second is blocked by the worker.
        assert send_attack(gateway, budget=-1.0)["failsafe"] is True
        assert send_attack(gateway)["failsafe"] is False
        shed, blocked = list(gateway.audit)
    finally:
        thread.stop(drain=False)
    recovered = recover_audit(tmp_path)

    events = {
        "export_attack_log": exported,
        "shed": shed,
        "worker-blocked": blocked,
        "recovered journal": recovered[-1],
    }
    for source, event in events.items():
        assert set(event) == EVENT_KEYS, source
        assert dict_to_verdict(event["verdict"]).safe is False, source
    assert exported["conn_id"] is None and exported["client_id"] is None
    assert shed["verdict"]["failure_reasons"] == [
        gateway_module.REASON_EXPIRED_ON_ARRIVAL
    ]
    assert recovered == [shed, blocked]


def test_journals_of_older_record_shapes_recover_unchanged(tmp_path):
    context = RequestContext(inputs=[CapturedInput(*ATTACK_INPUT)])
    engine = JozaEngine.from_fragments(FRAGMENTS)
    verdict = verdict_to_dict(engine.inspect(ATTACK, context))
    old_records = [
        # A shed record with its reason and failsafe flag at the top level.
        {
            "query": ATTACK,
            "client_id": "probe",
            "conn_id": "conn-1",
            "request_path": "/post",
            "reason": gateway_module.REASON_QUEUE_FULL,
            "failsafe": True,
        },
        # An attack event journaled straight from a worker's reply.
        {
            "conn_id": "conn-2",
            "client_id": "probe",
            "request_path": "/post",
            "verdict": verdict,
        },
    ]
    state = DurableState(
        str(tmp_path / "state"), seed_fragments=FRAGMENTS, fsync="never"
    )
    for record in old_records:
        state.append_audit(record)
    state.abandon()  # crash-shaped: the records live only in the journal

    gateway = make_gateway(tmp_path, durable=True)
    thread = GatewayThread(gateway).start()
    try:
        assert send_attack(gateway)["safe"] is False
    finally:
        assert thread.stop()
    assert gateway.durable.recovered.audit == old_records
    assert gateway.durable.audit_tail()[:2] == old_records

