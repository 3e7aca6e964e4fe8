"""Unit tests for the shape cache: plans, instantiation, prefilter, epochs."""

import dataclasses

import pytest

from repro.core.shapecache import (
    ShapeCache,
    ShapeCacheConfig,
    ShapePlan,
    build_plan,
)
from repro.pti import FragmentStore, PTIAnalyzer
from repro.pti.caches import witness_misses
from repro.sqlparser import critical_tokens, skeletonize

TEMPLATE_FRAGMENTS = [
    "SELECT * FROM posts WHERE id = ",
    " AND status = '",
    "' ORDER BY date DESC",
]
Q1 = "SELECT * FROM posts WHERE id = 7 AND status = 'published' ORDER BY date DESC"
Q2 = "SELECT * FROM posts WHERE id = 12345 AND status = 'x' ORDER BY date DESC"


def make_plan(query=Q1, fragments=TEMPLATE_FRAGMENTS):
    analyzer = PTIAnalyzer(FragmentStore(fragments))
    skeleton = skeletonize(query)
    return build_plan(query, skeleton, critical_tokens(query), analyzer)


# ---------------------------------------------------------------------------
# build_plan
# ---------------------------------------------------------------------------


def test_build_plan_covers_all_critical_tokens():
    plan = make_plan()
    assert plan is not None
    assert list(plan.tok_texts) == [t.text for t in critical_tokens(Q1)]
    assert plan.min_token_len == min(len(t) for t in plan.tok_texts)


def test_build_plan_refuses_uncovered_shapes():
    # No fragment covers ORDER/BY/DESC when the tail fragment is missing.
    plan = make_plan(fragments=TEMPLATE_FRAGMENTS[:2])
    assert plan is None


def test_build_plan_classifies_segment_confined_witnesses_as_stable():
    # Number-only template: every fragment stops at the slot boundary, so
    # every witness lies inside one inter-literal segment.
    query = "SELECT * FROM posts WHERE id = 7 ORDER BY date DESC"
    fragments = ["SELECT * FROM posts WHERE id = ", " ORDER BY date DESC"]
    plan = make_plan(query, fragments)
    assert plan is not None
    assert plan.recheck_witnesses == ()


def test_build_plan_flags_quote_spanning_fragments_for_recheck():
    # Fragments around a string literal include the quote characters, and
    # the quotes belong to the literal slot: those witnesses cross a slot
    # boundary, so every token they cover must be re-proven per instance.
    plan = make_plan()
    assert plan is not None
    flagged = {plan.tok_texts[index] for index, *_ in plan.recheck_witnesses}
    assert flagged == {"AND", "=", "ORDER", "BY", "DESC"}
    assert len(plan.recheck_witnesses) == 5


def test_build_plan_flags_slot_crossing_witnesses_for_recheck():
    # The only fragment covering AND spans the first literal: coverage
    # depends on the literal text, so AND must be flagged recheck.
    query = "SELECT a FROM t WHERE id = 7 AND b = 8"
    fragments = ["SELECT a FROM t WHERE id = 7 AND b = ", " = "]
    plan = make_plan(query, fragments)
    assert plan is not None
    flagged = {plan.tok_texts[index] for index, *_ in plan.recheck_witnesses}
    assert "AND" in flagged


def test_build_plan_refuses_token_overlapping_a_slot():
    # Under the strict policy identifiers are critical; craft the stream so
    # a critical token *is* a literal by feeding tokens manually.
    query = "SELECT a FROM t WHERE id = 7"
    skeleton = skeletonize(query)
    analyzer = PTIAnalyzer(FragmentStore([query]))
    tokens = critical_tokens(query)
    # Forge a token overlapping the number literal's slot.
    from repro.sqlparser.tokens import Token, TokenType

    overlap = Token(TokenType.NUMBER, "7", query.index("7"), query.index("7") + 1)
    assert build_plan(query, skeleton, tokens + [overlap], analyzer) is None


# ---------------------------------------------------------------------------
# ShapePlan.instantiate / materialize
# ---------------------------------------------------------------------------


def test_instantiate_shifts_spans_by_literal_length_delta():
    plan = make_plan()
    skeleton2 = skeletonize(Q2)
    spans = plan.instantiate(Q2, skeleton2.slots)
    assert spans is not None
    tokens = plan.materialize(spans)
    for token in tokens:
        assert Q2[token.start : token.end] == token.text
    assert [t.text for t in tokens] == [t.text for t in critical_tokens(Q2)]
    assert [(t.start, t.end) for t in tokens] == [
        (t.start, t.end) for t in critical_tokens(Q2)
    ]


def test_instantiate_rejects_slot_count_and_kind_mismatches():
    plan = make_plan()
    # Different slot count.
    other = skeletonize("SELECT * FROM posts WHERE id = 7")
    assert plan.instantiate("SELECT * FROM posts WHERE id = 7", other.slots) is None
    # Same count, different kind.
    swapped = "SELECT * FROM posts WHERE id = 'x' AND status = 'p' ORDER BY date DESC"
    assert plan.instantiate(swapped, skeletonize(swapped).slots) is None


def test_instantiate_verbatim_guard_rejects_drifted_text():
    plan = make_plan()
    drifted = Q1.replace("ORDER", "order")  # same length, different bytes
    assert plan.instantiate(drifted, skeletonize(drifted).slots) is None


# ---------------------------------------------------------------------------
# ShapePlan.input_can_cover (NTI prefilter soundness envelope)
# ---------------------------------------------------------------------------


def test_input_prefilter_skips_too_short_inputs():
    plan = make_plan()
    # Budget of "7" at threshold 0.2: int(0.2*1/0.8) = 0; reach 1 < min len
    # only if every token is longer than 1 -- here "=" has length 1, so use
    # a value whose characters cannot spell it.
    assert plan.min_token_len == 1  # the "=" operator
    assert not plan.input_can_cover("7", 0.2)  # cannot edit "7" into "="
    assert plan.input_can_cover("=", 0.2)


def test_input_prefilter_keeps_inputs_that_could_cover():
    plan = make_plan()
    assert plan.input_can_cover("x OR 1=1", 0.2)
    assert plan.input_can_cover("1 UNION SELECT password", 0.2)


def test_input_prefilter_charset_rule():
    plan = make_plan()
    # Budget 0 (threshold 0.15, length 4): every token character must come
    # from the input's charset, and nothing here is spellable from {'z'}.
    assert not plan.input_can_cover("zzzz", 0.15)
    # Same length and budget, right charset: "=" is length 1 and present.
    assert plan.input_can_cover("z=zz", 0.15)
    # A large budget covers any short token regardless of charset.
    assert plan.input_can_cover("z" * 50, 0.2)


def test_empty_plan_never_matches_inputs():
    plan = ShapePlan("k", (), (), (), ())
    assert not plan.input_can_cover("anything", 0.2)


# ---------------------------------------------------------------------------
# ShapeCache: LRU + epoch sync
# ---------------------------------------------------------------------------


def test_cache_hit_miss_accounting():
    cache = ShapeCache(capacity=4)
    plan = make_plan()
    assert cache.get("k", 0) is None
    cache.put("k", plan, 0)
    assert cache.get("k", 0) is plan
    stats = cache.snapshot_stats()
    assert stats["hits"] == 1.0 and stats["misses"] == 1.0
    assert stats["entries"] == 1.0 and stats["insertions"] == 1.0


def test_cache_epoch_change_flushes_everything():
    cache = ShapeCache(capacity=4)
    plan = make_plan()
    cache.put("a", plan, 0)
    cache.put("b", plan, 0)
    assert cache.get("a", 1) is None  # epoch moved: flushed
    assert len(cache) == 0
    assert cache.invalidations == 1
    cache.put("a", plan, 1)
    assert cache.get("a", 1) is plan


def test_cache_lru_eviction_bounded():
    cache = ShapeCache(capacity=2)
    plan = make_plan()
    cache.put("a", plan, 0)
    cache.put("b", plan, 0)
    cache.put("c", plan, 0)
    assert len(cache) == 2
    assert cache.get("a", 0) is None  # evicted (oldest)
    assert cache.get("c", 0) is plan


def test_cache_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        ShapeCache(capacity=0)


def test_config_defaults():
    config = ShapeCacheConfig()
    assert config.enabled and config.capacity > 0
    # Exactly two knobs: the switch and the plan capacity.
    assert [f.name for f in dataclasses.fields(config)] == ["enabled", "capacity"]


def test_plan_token_is_frozen():
    plan = make_plan()
    # Every per-token array and witness record is an immutable tuple.
    with pytest.raises(TypeError):
        plan.tok_texts[0] = "AND"
    with pytest.raises(TypeError):
        plan.recheck_witnesses[0] = (0, "x", 0, 1)


def test_witness_holds_verbatim_and_rejects_drift():
    query = "SELECT a FROM t WHERE id = 7 AND b = 8"
    fragments = ["SELECT a FROM t WHERE id = 7 AND b = ", " = "]
    plan = make_plan(query, fragments)
    assert plan is not None
    and_record = next(
        record
        for record in plan.recheck_witnesses
        if plan.tok_texts[record[0]] == "AND"
    )
    # Same literal: the witness re-occurs at the stored relative offset.
    assert witness_misses(query, [and_record], critical_tokens(query)) == []
    # Different literal: the slot-crossing witness text no longer matches.
    other = "SELECT a FROM t WHERE id = 9 AND b = 8"
    assert witness_misses(other, [and_record], critical_tokens(other)) == [
        and_record[0]
    ]


# ---------------------------------------------------------------------------
# Second-sighting admission (doorkeeper)
# ---------------------------------------------------------------------------


def test_admit_defers_first_sighting_and_admits_second():
    cache = ShapeCache(capacity=4)
    assert not cache.admit("k")
    assert cache.admit("k")
    # Admission hands the key over to its plan: a later sighting (after the
    # plan is evicted, say) starts over.
    assert not cache.admit("k")


def test_admit_window_is_the_last_capacity_keys():
    cache = ShapeCache(capacity=2)
    assert not cache.admit("a")
    assert not cache.admit("b")
    assert not cache.admit("c")  # "a" ages out of the window
    assert not cache.admit("a")  # so it starts over ...
    assert cache.admit("a")  # ... and its next sighting is admitted
    assert cache.admit("c")  # "c" stayed inside the window


def test_admit_survives_epoch_flush():
    cache = ShapeCache(capacity=4)
    cache.put("other", make_plan(), epoch=1)
    assert not cache.admit("k")
    assert cache.get("other", epoch=2) is None  # epoch flush
    assert cache.invalidations == 1
    assert cache.admit("k")  # keys carry no trust: they outlive the flush
