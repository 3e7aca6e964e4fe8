"""Property tests for the core resilience invariant.

For *any* fault schedule (crash/hang/corrupt x position, plus poison
queries), the engine yields exactly one verdict per query and never fails
open: a query vouched safe was actually analysed by every enabled
technique, and an analysis failure always blocks the query fail-closed.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    JozaConfig,
    JozaEngine,
    ResilienceConfig,
)
from repro.core.resilience import CircuitBreaker, RetryPolicy
from repro.phpapp.context import CapturedInput, RequestContext
from repro.pti import FragmentStore, PTIDaemon
from tests.support.faults import (
    POISON_MARKER,
    FakeClock,
    FaultKind,
    FaultSchedule,
    FlakyDaemon,
)

FRAGMENTS = ["SELECT a FROM t WHERE id = ", " OR ", "SELECT name FROM users WHERE uid = "]

# A small deterministic traffic mix: benign queries, one obvious attack,
# and one poison query (deterministically kills the analysis child).
def traffic(n_queries: int, poison_every: int, attack_every: int):
    out = []
    for i in range(n_queries):
        if poison_every and i % poison_every == poison_every - 1:
            out.append(
                (f"SELECT a FROM t WHERE id = {i} {POISON_MARKER}", None)
            )
        elif attack_every and i % attack_every == attack_every - 1:
            out.append(
                (
                    f"SELECT a FROM t WHERE id = {i} UNION SELECT {i}",
                    f"{i} UNION SELECT {i}",
                )
            )
        else:
            out.append((f"SELECT a FROM t WHERE id = {i}", str(i)))
    return out


fault_kinds = st.sampled_from(
    [FaultKind.CRASH, FaultKind.HANG, FaultKind.CORRUPT, FaultKind.SLOW]
)
schedules = st.dictionaries(
    st.integers(min_value=0, max_value=60), fault_kinds, max_size=25
)


@settings(max_examples=60, deadline=None)
@given(
    faults=schedules,
    raw_errors=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_exactly_one_verdict_per_query_and_never_fail_open(
    faults, raw_errors, seed
):
    clock = FakeClock()
    config = JozaConfig(
        resilience=ResilienceConfig(deadline_seconds=5.0, clock=clock)
    )
    store = FragmentStore(FRAGMENTS)
    daemon = FlakyDaemon(
        PTIDaemon(store, config.daemon),
        FaultSchedule.fixed(faults),
        clock=clock,
        raw_errors=raw_errors,
    )
    engine = JozaEngine(store, config, daemon=daemon)
    stream = traffic(20, poison_every=7, attack_every=5)
    verdicts = []
    for query, input_value in stream:
        context = (
            RequestContext(inputs=[CapturedInput("get", "id", input_value)])
            if input_value is not None
            else RequestContext()
        )
        # The invariant's heart: inspect() returns (exactly one verdict),
        # whatever the schedule throws at the analysis path.
        verdicts.append((query, input_value, engine.inspect(query, context)))

    assert len(verdicts) == len(stream)
    assert engine.stats.queries_checked == len(stream)
    for query, input_value, verdict in verdicts:
        # Never fail open, part 1: a known attack is never vouched safe
        # unless the verdict came from a *fault-free* hybrid run... and not
        # even then (the hybrid always catches this attack shape).
        if "UNION SELECT" in query and input_value is not None:
            assert not verdict.safe
        # Never fail open, part 2: poison queries (analysis impossible)
        # are always failsafe blocks.
        if POISON_MARKER in query:
            assert not verdict.safe and verdict.failsafe
        # No verdict rests on one technique alone.
        assert not verdict.degraded
        # A verdict that saw a failure is flagged; a clean one is not.
        if verdict.failsafe:
            assert not verdict.safe
            assert verdict.failure_reasons
        if verdict.safe:
            assert not verdict.failsafe

    # Accounting is consistent: every failsafe verdict was counted.
    failsafes = sum(1 for *_ , v in verdicts if v.failsafe)
    assert engine.stats.failsafe_blocks == failsafes


@settings(max_examples=40, deadline=None)
@given(
    failure_threshold=st.integers(min_value=1, max_value=6),
    reset_timeout=st.floats(min_value=0.1, max_value=30.0),
    events=st.lists(st.sampled_from(["ok", "fail", "wait"]), max_size=60),
)
def test_breaker_state_machine_invariants(failure_threshold, reset_timeout, events):
    """Model-check the breaker: allow() is consistent with the state, the
    failure counter never exceeds the threshold while closed, and open
    always follows threshold consecutive failures."""
    from repro.core.resilience import BreakerState

    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=failure_threshold,
        reset_timeout=reset_timeout,
        clock=clock,
    )
    consecutive = 0
    for event in events:
        state = breaker.state
        if event == "wait":
            clock.advance(reset_timeout)
            continue
        allowed = breaker.allow()
        if state is BreakerState.CLOSED:
            assert allowed
        if not allowed:
            assert breaker.state in (BreakerState.OPEN, BreakerState.HALF_OPEN)
            continue
        if event == "ok":
            breaker.record_success()
            consecutive = 0
            assert breaker.state is BreakerState.CLOSED
        else:
            breaker.record_failure()
            consecutive += 1
        if consecutive >= failure_threshold:
            assert breaker.state is not BreakerState.CLOSED


@settings(max_examples=40, deadline=None)
@given(
    base_delay=st.floats(min_value=1e-4, max_value=0.5),
    multiplier=st.floats(min_value=1.0, max_value=4.0),
    max_delay=st.floats(min_value=0.5, max_value=5.0),
    jitter=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_backoff_jitter_bounds(base_delay, multiplier, max_delay, jitter, seed):
    policy = RetryPolicy(
        base_delay=base_delay,
        multiplier=multiplier,
        max_delay=max_delay,
        jitter=jitter,
    )
    rng = random.Random(seed)
    for attempt in range(8):
        upper = policy.raw_delay(attempt)
        lower = upper * (1.0 - jitter)
        d = policy.delay(attempt, rng)
        assert d >= 0.0
        assert lower - 1e-9 <= d <= upper + 1e-9
        assert upper <= max_delay + 1e-12
