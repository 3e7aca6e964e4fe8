"""Unit tests for the NTI filter kernel (q-gram pigeonhole prefilter)."""

from repro.matching.filter import (
    FULL_SCAN,
    MIN_PIECE,
    edit_budget,
    pigeonhole_pieces,
    qgram_applicable,
    qgram_filtered_match,
)
from repro.matching.substring import best_substring_match
from repro.nti import FilterStats, NTIAnalyzer, NTIConfig
from repro.phpapp.context import CapturedInput, RequestContext
from tests.reference.nti_spec import nti_spec


def ctx(*values):
    return RequestContext(
        inputs=[CapturedInput("get", f"p{i}", v) for i, v in enumerate(values)]
    )


# -- primitives ---------------------------------------------------------


def test_edit_budget_matches_ratio_arithmetic():
    assert edit_budget(17, 0.20) == int(0.20 * 17 / 0.80)
    assert edit_budget(100, 0.0) == 0
    assert edit_budget(0, 0.33) == 0


def test_pigeonhole_pieces_partition_the_pattern():
    for length in (6, 7, 11, 30):
        for budget in (0, 1, 2, 3):
            pieces = pigeonhole_pieces(length, budget)
            assert len(pieces) == budget + 1
            assert sum(plen for _, plen in pieces) == length
            assert pieces[0][0] == 0
            for (off_a, len_a), (off_b, _) in zip(pieces, pieces[1:]):
                assert off_a + len_a == off_b
            lengths = [plen for _, plen in pieces]
            assert max(lengths) - min(lengths) <= 1


def test_qgram_applicable_boundaries():
    # Every piece must be at least MIN_PIECE chars wide.
    assert qgram_applicable(MIN_PIECE, 0)
    assert not qgram_applicable(MIN_PIECE - 1, 0)
    assert qgram_applicable(2 * MIN_PIECE, 1)
    assert not qgram_applicable(2 * MIN_PIECE - 1, 1)
    assert not qgram_applicable(10, None)


def test_qgram_filter_prunes_without_scanning():
    stats = FilterStats()
    # No piece of the pattern occurs in the text: proven no-match.
    assert qgram_filtered_match("zzzzzzzzzz", "SELECT * FROM t WHERE ID=1", 2, stats) is None
    assert stats.seeds_probed == 3
    assert stats.pruned_qgram == 1
    assert stats.anchored_scans == 0


def test_qgram_filter_matches_oracle_spans():
    text = "UPDATE users SET pw='x' WHERE name='admin' OR '1'='1'"
    for pattern, threshold in [
        ("admin' OR '1'='1", 0.25),
        ("WHERE name=", 0.2),
        ("'x' WHERE", 0.1),
    ]:
        budget = edit_budget(len(pattern), threshold)
        if text.find(pattern) >= 0 or not qgram_applicable(len(pattern), budget):
            continue
        got = qgram_filtered_match(pattern, text, budget)
        oracle = best_substring_match(pattern, text, budget, matcher="dp")
        if got is FULL_SCAN:
            continue
        if oracle is None:
            assert got is None
        else:
            assert got == (oracle.distance, oracle.start, oracle.end)


def test_qgram_filter_declines_when_windows_cover_text():
    # Seeds everywhere: merged windows span the text, filter must decline
    # rather than scan the whole text twice.
    text = "abcabcabcabcabc"
    assert qgram_filtered_match("abcabcabc", text, 1) is FULL_SCAN


# -- analyzer integration ----------------------------------------------


def test_filtered_analyzer_equals_oracle_on_attack_and_benign():
    query = "SELECT * FROM t WHERE ID=-1 OR 1=1"
    values = ("-1 OR 1=1", "benign comment body", "tiny")
    got = NTIAnalyzer().analyze(query, ctx(*values))
    safe, markings, detections = nti_spec(query, values, NTIConfig().threshold)
    assert got.safe == safe is False
    assert [(m.start, m.end, m.origin, m.ratio) for m in got.markings] == markings
    assert [
        (d.token_text, d.token_start, d.token_end, d.input_value)
        for d in got.detections
    ] == detections


def test_anchored_match_just_above_threshold_is_rejected():
    # Two substitutions in nine characters: the probe anchors a scan that
    # finds the span at ratio 2/9 = 0.222, just above the 0.2 default,
    # and the spec rejects it.
    query = "SELECT * FROM t WHERE name='abcdefghi' AND x=1 LIMIT 5"
    nti = NTIAnalyzer()
    result = nti.analyze(query, ctx("abXdeYghi"))
    assert nti.filter_stats()["anchored_scans"] == 1
    assert result.markings == []
    assert nti_spec(query, ["abXdeYghi"], NTIConfig().threshold)[1] == []


def test_filter_stats_surface_and_count():
    nti = NTIAnalyzer(NTIConfig())
    # The query carries every *bigram* of "abcdefghijklmnop" but none of
    # its trigrams: the value is pruned by the pigeonhole probe (where the
    # plain bigram bound would have let it through to a scan).  "WHERE
    # IX=1" seeds an anchored scan; "zz" has edit budget zero, so the
    # missed containment probe alone settles it.
    query = (
        "SELECT * FROM t WHERE ID=1 AND col='filler filler filler filler'"
        " -- ab bc cd de ef fg gh hi ij jk kl lm mn no op"
    )
    nti.analyze(query, ctx("abcdefghijklmnop", "WHERE IX=1", "zz"))
    stats = nti.filter_stats()
    assert stats["pruned_qgram"] >= 1
    assert stats["anchored_scans"] >= 1
    assert stats["seeds_probed"] >= 1
    assert stats["pruned_zero_budget"] >= 1
    # Reported once: not a cache reading.
    assert "filter" not in nti.cache_stats()
    # Seed-rich degenerate text: every candidate's pieces hit so densely
    # that the windows cover the query, the probe declines (FULL_SCAN),
    # and the plain pipeline resolves each candidate without probing it
    # a second time.
    values = ("abcXYZ", "abcQRS", "abcJKL")
    pieces = sum(
        len(pigeonhole_pieces(len(v), edit_budget(len(v), 0.2))) for v in values
    )
    assert nti.analyze("abcabcabcabcabc", ctx(*values)).safe
    after = nti.filter_stats()
    assert after["seeds_probed"] - stats["seeds_probed"] == pieces
    assert (
        after["fallthrough_full_scan"] - stats["fallthrough_full_scan"]
        == len(values)
    )
    for key in ("pruned_qgram", "anchored_scans", "pruned_zero_budget", "exact_hits"):
        assert after[key] == stats[key]

