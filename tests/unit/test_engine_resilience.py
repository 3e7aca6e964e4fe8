"""Engine-level failure-policy tests: the guard never fails open.

Every scenario here injects an analysis failure and asserts the engine
resolves it to a verdict per :class:`FailurePolicy` -- fail-closed block,
in-process fallback, or single-technique degraded mode -- with the
degradation counters and audit flags to match.
"""

import json

import pytest

from repro.core import (
    FailurePolicy,
    JozaConfig,
    JozaEngine,
    ResilienceConfig,
)
from repro.core.resilience import DaemonCrash
from repro.phpapp.application import (
    QueryBlockedError,
    TerminationSignal,
)
from repro.phpapp.context import CapturedInput, RequestContext
from repro.pti import FragmentStore, PTIDaemon
from repro.testbed.faults import (
    FakeClock,
    FaultKind,
    FaultSchedule,
    FlakyDaemon,
)

FRAGMENTS = ["SELECT a FROM t WHERE id = ", " OR "]
SAFE_QUERY = "SELECT a FROM t WHERE id = 1"
ATTACK_QUERY = "SELECT a FROM t WHERE id = 1 UNION SELECT 2"


def make_engine(policy=FailurePolicy.FAIL_CLOSED, schedule=None, **res_kwargs):
    config = JozaConfig(
        resilience=ResilienceConfig(failure_policy=policy, **res_kwargs)
    )
    store = FragmentStore(FRAGMENTS)
    daemon = FlakyDaemon(
        PTIDaemon(store, config.daemon), schedule or FaultSchedule.none()
    )
    return JozaEngine(store, config, daemon=daemon)


def attack_context():
    return RequestContext(
        inputs=[CapturedInput("get", "id", "1 UNION SELECT 2")], path="/p"
    )


# ----------------------------------------------------------------------
# FAIL_CLOSED (default)
# ----------------------------------------------------------------------


def test_daemon_crash_fails_closed_by_default():
    engine = make_engine(schedule=FaultSchedule.fixed({0: FaultKind.CRASH}))
    verdict = engine.inspect(SAFE_QUERY, RequestContext())
    assert not verdict.safe
    assert verdict.failsafe and not verdict.degraded
    assert verdict.failure_reasons
    assert engine.stats.failsafe_blocks == 1
    # Next query (no fault scheduled) analyses normally again.
    assert engine.inspect(SAFE_QUERY, RequestContext()).safe


@pytest.mark.parametrize(
    "kind", [FaultKind.CRASH, FaultKind.HANG, FaultKind.CORRUPT]
)
def test_every_fault_kind_fails_closed(kind):
    engine = make_engine(schedule=FaultSchedule.fixed({0: kind}))
    verdict = engine.inspect(SAFE_QUERY, RequestContext())
    assert not verdict.safe and verdict.failsafe


def test_raw_leaked_exceptions_also_fail_closed():
    """A non-resilient daemon leaking EOFError must not crash the path."""
    config = JozaConfig()
    store = FragmentStore(FRAGMENTS)
    daemon = FlakyDaemon(
        PTIDaemon(store, config.daemon),
        FaultSchedule.fixed({0: FaultKind.CRASH, 1: FaultKind.CORRUPT}),
        raw_errors=True,
    )
    engine = JozaEngine(store, config, daemon=daemon)
    for _ in range(2):
        verdict = engine.inspect(SAFE_QUERY, RequestContext())
        assert not verdict.safe and verdict.failsafe
    assert engine.inspect(SAFE_QUERY, RequestContext()).safe


def test_failsafe_block_raises_and_is_audited_but_not_an_attack():
    engine = make_engine(schedule=FaultSchedule.fixed({0: FaultKind.CRASH}))
    with pytest.raises(QueryBlockedError) as err:
        engine.check_query(SAFE_QUERY, RequestContext())
    assert "fail-closed" in str(err.value)
    assert engine.stats.attacks_blocked == 0  # not a detection
    assert engine.stats.failsafe_blocks == 1
    record = engine.attack_log[0].to_dict()
    assert record["failsafe"] is True
    assert record["detected_by"] == []
    assert record["failure_reasons"]


# ----------------------------------------------------------------------
# DEGRADE_TO_OTHER_TECHNIQUE
# ----------------------------------------------------------------------


def test_degraded_mode_still_blocks_via_nti():
    engine = make_engine(
        policy=FailurePolicy.DEGRADE_TO_OTHER_TECHNIQUE,
        schedule=FaultSchedule.fixed({0: FaultKind.CRASH}),
    )
    verdict = engine.inspect(ATTACK_QUERY, attack_context())
    assert not verdict.safe
    assert verdict.degraded and not verdict.failsafe
    assert engine.stats.degraded_verdicts == 1
    assert engine.stats.attacks_blocked == 0  # inspect() doesn't enforce


def test_degraded_mode_passes_benign_queries():
    engine = make_engine(
        policy=FailurePolicy.DEGRADE_TO_OTHER_TECHNIQUE,
        schedule=FaultSchedule.fixed({0: FaultKind.CRASH}),
    )
    context = RequestContext(inputs=[CapturedInput("get", "id", "1")])
    verdict = engine.inspect(SAFE_QUERY, context)
    assert verdict.safe and verdict.degraded


def test_degrade_fails_closed_when_both_techniques_unavailable():
    engine = make_engine(
        policy=FailurePolicy.DEGRADE_TO_OTHER_TECHNIQUE,
        schedule=FaultSchedule.fixed({0: FaultKind.CRASH}),
    )
    engine.config.enable_nti = False  # nothing left to degrade to
    verdict = engine.inspect(SAFE_QUERY, RequestContext())
    assert not verdict.safe and verdict.failsafe


def test_degraded_attack_is_flagged_in_audit_export():
    engine = make_engine(
        policy=FailurePolicy.DEGRADE_TO_OTHER_TECHNIQUE,
        schedule=FaultSchedule.fixed({0: FaultKind.CRASH}),
    )
    with pytest.raises(QueryBlockedError):
        engine.check_query(ATTACK_QUERY, attack_context())
    payload = json.loads(engine.export_attack_log())
    (attack,) = payload["attacks"]
    assert attack["degraded"] is True
    assert attack["detected_by"] == ["nti"]
    assert payload["application_stats"]["resilience"]["degraded_verdicts"] == 1


# ----------------------------------------------------------------------
# FALLBACK_IN_PROCESS
# ----------------------------------------------------------------------


def test_fallback_in_process_preserves_pti_verdicts():
    engine = make_engine(
        policy=FailurePolicy.FALLBACK_IN_PROCESS,
        schedule=FaultSchedule.fixed({0: FaultKind.CRASH, 1: FaultKind.CRASH}),
    )
    # Benign query: fallback vouches, flagged degraded.
    verdict = engine.inspect(SAFE_QUERY, RequestContext())
    assert verdict.safe and verdict.degraded and not verdict.failsafe
    # Attack with *no* request input: NTI is blind, only PTI can catch it --
    # the fallback must, even with the subprocess daemon down.
    verdict = engine.inspect(ATTACK_QUERY, RequestContext())
    assert not verdict.safe and verdict.degraded
    assert engine.stats.degraded_verdicts == 2


class AlwaysCrashingDaemon:
    """A PTI backend that is always down but can still swap its store."""

    def __init__(self, store: FragmentStore) -> None:
        self.store = store

    def refresh_fragments(self, store: FragmentStore) -> None:
        self.store = store

    def analyze_batch(self, queries, deadline=None):
        raise DaemonCrash("backend down")


def test_fallback_in_process_follows_a_store_swap():
    fragments = ["SELECT * FROM t WHERE id=", " ORDER BY x"]
    config = JozaConfig(
        resilience=ResilienceConfig(
            failure_policy=FailurePolicy.FALLBACK_IN_PROCESS
        )
    )
    store = FragmentStore(fragments)
    engine = JozaEngine(store, config, daemon=AlwaysCrashingDaemon(store))
    query = "SELECT * FROM t WHERE id=1 ORDER BY x"
    verdict = engine.inspect(query, RequestContext())
    assert verdict.safe and verdict.degraded  # the fallback vouched
    # The plugin owning " ORDER BY x" is removed: a new store is swapped in.
    new_store = FragmentStore(fragments[:1])
    engine.daemon.refresh_fragments(new_store)
    verdict = engine.inspect(query, RequestContext())
    fresh = JozaEngine(new_store, config).inspect(query, RequestContext())
    assert not fresh.safe
    assert not verdict.safe and verdict.degraded
    assert verdict.detected_by() == fresh.detected_by()


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


def test_nti_deadline_exhaustion_fails_closed():
    clock = FakeClock()
    config = JozaConfig(
        resilience=ResilienceConfig(deadline_seconds=1.0, clock=clock)
    )
    store = FragmentStore(FRAGMENTS)
    engine = JozaEngine(store, config)

    class SlowNTI:
        def analyze(
            self, query, context, tokens=None, deadline=None, values=None
        ):
            clock.advance(2.0)  # blow the budget...
            deadline.check("nti")  # ...and notice
            raise AssertionError("unreachable")

        def cache_stats(self):
            return {}

    engine.nti = SlowNTI()
    verdict = engine.inspect(SAFE_QUERY, attack_context())
    assert not verdict.safe and verdict.failsafe
    assert engine.stats.deadline_exceeded == 1


def test_hang_consuming_deadline_counts_deadline_exceeded():
    clock = FakeClock()
    config = JozaConfig(
        resilience=ResilienceConfig(deadline_seconds=0.5, clock=clock)
    )
    store = FragmentStore(FRAGMENTS)
    daemon = FlakyDaemon(
        PTIDaemon(store, config.daemon),
        FaultSchedule.fixed({0: FaultKind.HANG}),
        clock=clock,
    )
    engine = JozaEngine(store, config, daemon=daemon)
    verdict = engine.inspect(SAFE_QUERY, attack_context())
    assert not verdict.safe and verdict.failsafe
    # The injected hang consumed the budget; NTI then hit the deadline.
    assert engine.stats.deadline_exceeded >= 1


# ----------------------------------------------------------------------
# Bounded attack log
# ----------------------------------------------------------------------


def test_attack_log_is_bounded_with_drop_counter():
    config = JozaConfig(resilience=ResilienceConfig(attack_log_capacity=5))
    engine = JozaEngine(FragmentStore(FRAGMENTS), config)
    for i in range(12):
        with pytest.raises(QueryBlockedError):
            engine.check_query(
                f"SELECT a FROM t WHERE id = {i} UNION SELECT {i}",
                attack_context(),
            )
    assert len(engine.attack_log) == 5
    assert engine.attack_log.dropped_records == 7
    payload = json.loads(engine.export_attack_log())
    assert payload["application_stats"]["resilience"]["dropped_records"] == 7
    assert len(payload["attacks"]) == 5
    # Newest records survive.
    assert "id = 11" in engine.attack_log[-1].query


# ----------------------------------------------------------------------
# Last-line wrapper defense
# ----------------------------------------------------------------------


def test_wrapper_fails_closed_when_guard_itself_crashes():
    from repro.database import Database
    from repro.phpapp.application import DatabaseWrapper

    class ExplodingGuard:
        def check_query(self, query, context):
            raise RuntimeError("guard bug")

    db = Database()
    wrapper = DatabaseWrapper(db)
    wrapper.guard = ExplodingGuard()
    with pytest.raises(TerminationSignal) as err:
        wrapper.query("SELECT 1")
    assert "fail-closed" in str(err.value)
    assert wrapper.guard_failures == 1
    assert wrapper.blocked_queries == ["SELECT 1"]


def test_export_resilience_counters_present_and_zero_when_healthy():
    engine = JozaEngine.from_fragments(FRAGMENTS)
    engine.inspect(SAFE_QUERY, RequestContext())
    report = engine.resilience_report()
    assert report["deadline_exceeded"] == 0
    assert report["breaker_open"] == 0
    assert report["degraded_verdicts"] == 0
    assert report["failsafe_blocks"] == 0
    assert report["dropped_records"] == 0
    assert report["failure_policy"] == "fail_closed"
