"""Unit tests for positive taint inference."""

from repro.core.verdict import Technique
from repro.pti import (
    DaemonConfig,
    FragmentStore,
    PTIAnalyzer,
    PTIConfig,
    PTIDaemon,
)


def analyzer(*fragments, **config):
    return PTIAnalyzer(FragmentStore(fragments), PTIConfig(**config) if config else None)


def test_fully_covered_query_is_safe():
    pti = analyzer("SELECT * FROM records WHERE ID=", " LIMIT 5")
    result = pti.analyze("SELECT * FROM records WHERE ID=1 LIMIT 5")
    assert result.safe
    assert result.technique is Technique.PTI


def test_uncovered_tokens_reported_with_spans():
    pti = analyzer("SELECT * FROM records WHERE ID=")
    query = "SELECT * FROM records WHERE ID=-1 UNION SELECT username()"
    result = pti.analyze(query)
    assert not result.safe
    texts = {d.token_text for d in result.detections}
    assert texts == {"UNION", "SELECT", "username"}
    for detection in result.detections:
        assert query[detection.token_start : detection.token_end] == detection.token_text


def test_coverage_requires_single_fragment_occurrence():
    # Fragments O and R cannot combine to cover the token OR (paper rule).
    pti = analyzer("O", "R", "id = ")
    result = pti.analyze("id = 1 OR 2")
    assert not result.safe
    assert {d.token_text for d in result.detections} == {"OR"}


def test_matching_is_case_sensitive():
    pti = analyzer(" union ", "SELECT 1")
    assert not pti.analyze("SELECT 1 UNION SELECT 1").safe
    # lowercase union IS covered
    result = pti.analyze("SELECT 1 union SELECT 1")
    assert result.safe


def test_comment_must_be_inside_one_fragment():
    pti = analyzer("SELECT 1 FROM t WHERE x = ", "#")
    # Bare end-of-line marker: covered by the '#' fragment.
    assert pti.analyze("SELECT 1 FROM t WHERE x = 1#").safe
    # Comment with content: the whole token must fit inside one fragment.
    assert not pti.analyze("SELECT 1 FROM t WHERE x = 1# AND y = 2").safe


def test_fragment_longer_than_token_covers_with_context():
    pti = analyzer("x' ORDER BY name")
    result = pti.analyze("SELECT a FROM t WHERE b = 'x' ORDER BY name")
    # ORDER and BY are inside the fragment occurrence; SELECT/FROM/WHERE/= not.
    covered = {m.start for m in result.markings}
    uncovered = {d.token_text for d in result.detections}
    assert "ORDER" not in uncovered and "BY" not in uncovered
    assert {"SELECT", "FROM", "WHERE", "="} <= uncovered
    assert covered  # some markings exist


def test_fragment_context_mismatch_does_not_cover():
    # Fragment requires a specific neighbourhood that the query lacks.
    pti = analyzer(" ORDER BY created ")
    assert not pti.analyze("SELECT 1 FROM t ORDER BY name").safe


def test_empty_query_is_safe():
    assert analyzer("x").analyze("").safe


def test_literals_never_need_coverage():
    pti = analyzer("SELECT a FROM t WHERE b = ")
    assert pti.analyze("SELECT a FROM t WHERE b = 'anything at all'").safe
    assert pti.analyze("SELECT a FROM t WHERE b = 12345").safe


def test_mru_promotes_recent_fragments():
    pti = analyzer("SELECT 1", " OR ", use_mru=True)
    pti.analyze("SELECT 1 OR 2")
    assert " OR " in pti.mru
    assert "SELECT 1" in pti.mru


def test_mru_disabled_keeps_list_empty():
    pti = analyzer("SELECT 1", use_mru=False)
    pti.analyze("SELECT 1")
    assert len(pti.mru) == 0


def test_comparisons_counter_increases():
    pti = analyzer("SELECT 1")
    before = pti.comparisons
    pti.analyze("SELECT 1")
    assert pti.comparisons > before


def test_full_scan_config_equivalent_verdicts():
    fragments = ("SELECT * FROM t WHERE id = ", " OR ", "#")
    queries = [
        "SELECT * FROM t WHERE id = 1",
        "SELECT * FROM t WHERE id = 1 OR 2",
        "SELECT * FROM t WHERE id = 1 UNION SELECT 2",
    ]
    fast = PTIAnalyzer(FragmentStore(fragments))
    slow = PTIAnalyzer(
        FragmentStore(fragments), PTIConfig(use_mru=False, use_token_index=False)
    )
    for query in queries:
        assert fast.analyze(query).safe == slow.analyze(query).safe


def test_precomputed_tokens_respected():
    from repro.sqlparser import critical_tokens

    pti = analyzer("SELECT 1")
    query = "SELECT 1 UNION SELECT 2"
    tokens = critical_tokens(query)
    result = pti.analyze(query, tokens)
    assert not result.safe
    # Passing an empty token list means nothing to cover -> trivially safe.
    assert pti.analyze(query, []).safe


# ---------------------------------------------------------------------------
# MRU staleness (regression: a revoked fragment lingering in the MRU kept
# "covering" critical tokens after the vocabulary changed)
# ---------------------------------------------------------------------------


def test_removed_fragment_pruned_from_mru():
    store = FragmentStore(["SELECT 1", " OR "])
    daemon = PTIDaemon(
        store, DaemonConfig(pti=PTIConfig(matcher="scan", use_mru=True))
    )
    attack = "SELECT 1 OR 2"
    assert daemon.analyze_query(attack).result.safe  # " OR " lands in the MRU
    assert " OR " in daemon.analyzer.mru
    # Uninstall: the swap binds a new analyzer whose MRU holds no fragment
    # of the old vocabulary.
    daemon.refresh_fragments(FragmentStore(f for f in store if f != " OR "))
    assert " OR " not in daemon.analyzer.mru
    result = daemon.analyze_query(attack).result
    assert not result.safe  # the revoked fragment no longer covers
    assert {d.token_text for d in result.detections} == {"OR"}
