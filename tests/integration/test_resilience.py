"""Integration tests: failure injection and audit export."""

import json
import os
import signal

import pytest

from repro.core import JozaEngine
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
    assert "UNION SELECT 2" in attack["query"]
    assert set(attack["detected_by"]) <= {"nti", "pti"}
    assert attack["detections"]
    tokens = {d["token"] for d in attack["detections"]}
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
    for detection in record["detections"]:
        assert set(detection) == {"technique", "token", "start", "end", "reason", "input"}
