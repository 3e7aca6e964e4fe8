"""Integration tests: failure injection and audit export."""

import json
import os
import signal

import pytest

from repro.core import JozaEngine, dict_to_verdict
from repro.phpapp.context import CapturedInput, RequestContext
from repro.pti import FragmentStore, SubprocessPTIDaemon

FRAGMENTS = ["SELECT a FROM t WHERE id = ", " OR "]


def test_persistent_daemon_survives_child_crash():
    with SubprocessPTIDaemon(FragmentStore(FRAGMENTS)) as daemon:
        assert daemon.analyze_query("SELECT a FROM t WHERE id = 1").result.safe
        # Kill the child out from under the parent.
        os.kill(daemon._process.pid, signal.SIGKILL)
        daemon._process.join(timeout=5)
        # The next query transparently respawns and still gets a verdict.
        reply = daemon.analyze_query("SELECT a FROM t WHERE id = 2")
        assert reply.result.safe
        attack = daemon.analyze_query("SELECT a FROM t WHERE id = 1 UNION SELECT 2")
        assert not attack.result.safe


def test_daemon_crash_loses_caches_not_verdicts():
    with SubprocessPTIDaemon(FragmentStore(FRAGMENTS)) as daemon:
        daemon.analyze_query("SELECT a FROM t WHERE id = 1")
        os.kill(daemon._process.pid, signal.SIGKILL)
        daemon._process.join(timeout=5)
        reply = daemon.analyze_query("SELECT a FROM t WHERE id = 1")
        # Fresh child: no cache hit, but the verdict is identical.
        assert reply.result.from_cache is None
        assert reply.result.safe


def test_attack_log_export_roundtrips_as_json():
    engine = JozaEngine.from_fragments(FRAGMENTS)
    context = RequestContext(
        inputs=[CapturedInput("get", "id", "1 UNION SELECT 2")], path="/victim"
    )
    try:
        engine.check_query(
            "SELECT a FROM t WHERE id = 1 UNION SELECT 2", context
        )
    except Exception:
        pass
    payload = json.loads(engine.export_attack_log())
    assert payload["application_stats"]["attacks_blocked"] == 1
    (attack,) = payload["attacks"]
    assert attack["request_path"] == "/victim"
    verdict = dict_to_verdict(attack["verdict"])
    assert "UNION SELECT 2" in verdict.query
    assert {t.value for t in verdict.detected_by()} <= {"nti", "pti"}
    assert verdict.detections
    tokens = {d.token_text for d in verdict.detections}
    assert "UNION" in tokens


def test_attack_record_to_dict_fields():
    engine = JozaEngine.from_fragments([])
    context = RequestContext(
        inputs=[CapturedInput("get", "q", "0 OR 1=1")], path="/p"
    )
    try:
        engine.check_query("SELECT 1 WHERE 1 = 0 OR 1=1", context)
    except Exception:
        pass
    record = engine.attack_log[0].to_dict()
    assert set(record) == {"request_path", "client_id", "conn_id", "verdict"}
    detections = [
        detection
        for technique in ("pti", "nti")
        if record["verdict"][technique] is not None
        for detection in record["verdict"][technique]["detections"]
    ]
    assert detections
    for detection in detections:
        assert set(detection) == {
            "technique",
            "token_text",
            "token_start",
            "token_end",
            "reason",
            "input_value",
        }
