"""Unit tests for the strict (Ray/Ligatti-style) token policy.

Paper Section II: a strict definition of injection rejects user-supplied
field/table names, breaking common applications (advanced search); the
paper adopts a pragmatic stance but notes the techniques "can be easily
adjusted to enforce a user's desired policy".  ``strict_tokens`` is that
adjustment.
"""

from repro.core import JozaConfig, JozaEngine
from repro.phpapp.context import CapturedInput, RequestContext
from repro.pti import DaemonConfig
from repro.sqlparser import critical_tokens


def ctx(*values):
    return RequestContext(
        inputs=[CapturedInput("get", f"p{i}", v) for i, v in enumerate(values)]
    )


def test_strict_adds_identifiers_to_critical_set():
    query = "SELECT name FROM things ORDER BY price"
    pragmatic = {t.text for t in critical_tokens(query)}
    strict = {t.text for t in critical_tokens(query, strict=True)}
    assert "name" not in pragmatic and "price" not in pragmatic
    assert {"name", "things", "price"} <= strict
    assert pragmatic <= strict


FRAGMENTS = ["SELECT name, price FROM things ORDER BY ", "price", "name"]
SORT_QUERY = "SELECT name, price FROM things ORDER BY price"


def test_pragmatic_engine_allows_column_via_input():
    engine = JozaEngine.from_fragments(FRAGMENTS)
    verdict = engine.inspect(SORT_QUERY, ctx("price"))
    assert verdict.safe


def test_strict_nti_flags_column_via_input():
    # The user-supplied column name covers a whole (now-critical) token.
    engine = JozaEngine.from_fragments(
        FRAGMENTS, JozaConfig(strict_tokens=True, enable_pti=False)
    )
    verdict = engine.inspect(SORT_QUERY, ctx("price"))
    assert not verdict.safe
    assert any(d.token_text == "price" for d in verdict.detections)


def test_strict_pti_requires_identifier_coverage():
    # Identifiers are critical, so the fragment vocabulary must cover them;
    # here it does (the app's own source mentions both columns), so PTI is
    # satisfied even under strict -- the FP pressure comes from NTI.
    engine = JozaEngine.from_fragments(
        FRAGMENTS, JozaConfig(strict_tokens=True, enable_nti=False)
    )
    assert engine.inspect(SORT_QUERY, ctx()).safe


def test_strict_pti_flags_unknown_identifier():
    # A column name the application never mentions cannot be covered:
    # strict PTI rejects exfiltration via column swapping.
    engine = JozaEngine.from_fragments(
        FRAGMENTS, JozaConfig(strict_tokens=True, enable_nti=False)
    )
    verdict = engine.inspect(
        "SELECT name, price FROM things ORDER BY secret_margin", ctx()
    )
    assert not verdict.safe
    assert any(d.token_text == "secret_margin" for d in verdict.detections)


def test_pragmatic_tolerates_column_swapping():
    # The paper's pragmatic stance by design tolerates this (Section II).
    engine = JozaEngine.from_fragments(FRAGMENTS)
    verdict = engine.inspect(
        "SELECT name, price FROM things ORDER BY secret_margin",
        ctx("secret_margin"),
    )
    assert verdict.safe


def test_strict_flag_propagates_to_daemon():
    config = JozaConfig(strict_tokens=True)
    assert config.daemon.strict_tokens is True
    engine = JozaEngine.from_fragments(FRAGMENTS, config)
    assert engine.daemon.config.strict_tokens is True


def test_strict_config_leaves_a_shared_daemon_config_alone():
    # A strict config must not turn a pragmatic engine built later from
    # the same DaemonConfig strict: its daemon would flag ``name``, and
    # its NTI would reuse the daemon's strict tokens and flag it too.
    shared = DaemonConfig()
    JozaConfig(daemon=shared, strict_tokens=True)
    assert shared.strict_tokens is False
    engine = JozaEngine.from_fragments(
        ["SELECT * FROM t ORDER BY "], JozaConfig(daemon=shared)
    )
    verdict = engine.inspect("SELECT * FROM t ORDER BY name", ctx("name"))
    assert verdict.safe and verdict.detected_by() == set()


def test_strict_and_pragmatic_agree_on_classic_attacks():
    for payload in ("0 OR 1=1", "-1 UNION SELECT 2"):
        query = f"SELECT name FROM things WHERE id = {payload}"
        pragmatic = JozaEngine.from_fragments([]).inspect(query, ctx(payload))
        strict = JozaEngine.from_fragments(
            [], JozaConfig(strict_tokens=True)
        ).inspect(query, ctx(payload))
        assert not pragmatic.safe and not strict.safe
