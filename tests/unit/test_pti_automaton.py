"""Unit tests for the one-pass Aho-Corasick PTI matching engine."""

import pytest

from repro.bench import read_stream, write_stream
from repro.pti import (
    AUTO_AUTOMATON_MIN_FRAGMENTS,
    DaemonConfig,
    FragmentAutomaton,
    FragmentStore,
    PTIAnalyzer,
    PTIConfig,
    PTIDaemon,
)
from repro.sqlparser.parser import critical_tokens
from repro.testbed import build_testbed


def brute_occurrences(fragments, text):
    """Reference find-all: every occurrence of every fragment."""
    out = []
    for fragment in fragments:
        if not fragment:
            continue
        pos = text.find(fragment)
        while pos >= 0:
            out.append((pos, pos + len(fragment), fragment))
            pos = text.find(fragment, pos + 1)
    return sorted(out)


# ---------------------------------------------------------------------------
# Automaton occurrence emission
# ---------------------------------------------------------------------------


def test_occurrences_match_brute_force_on_overlaps():
    fragments = ["OR", "ORDER", "RDE", " ORDER BY x", "x"]
    text = "SELECT a FROM t ORDER BY x ORDER BY x"
    automaton = FragmentAutomaton(fragments)
    assert sorted(automaton.occurrences(text)) == brute_occurrences(fragments, text)


def test_occurrences_match_brute_force_on_nested_fragments():
    # Every fragment a suffix/prefix of another: exercises fail-chain
    # output merging.
    fragments = ["a", "ab", "abc", "bc", "c"]
    text = "abcabc"
    automaton = FragmentAutomaton(fragments)
    assert sorted(automaton.occurrences(text)) == brute_occurrences(fragments, text)


def test_repeated_occurrences_all_emitted():
    automaton = FragmentAutomaton([" OR "])
    text = "1 OR 2 OR 3 OR 4"
    assert sorted(automaton.occurrences(text)) == brute_occurrences([" OR "], text)


def test_empty_and_duplicate_fragments_dropped():
    automaton = FragmentAutomaton(["", "x", "x", "", "y"])
    assert automaton.fragments == ("x", "y")
    assert sorted(automaton.occurrences("xy")) == [(0, 1, "x"), (1, 2, "y")]


def test_empty_vocabulary_and_empty_text():
    automaton = FragmentAutomaton([])
    assert list(automaton.occurrences("SELECT 1")) == []
    automaton = FragmentAutomaton(["SELECT"])
    assert list(automaton.occurrences("")) == []


def test_transitions_at_least_text_length():
    automaton = FragmentAutomaton(["ab", "ba"])
    *_rest, transitions = automaton.scan("abababab")
    assert transitions >= len("abababab")


def test_stats_counters():
    automaton, _ = FragmentStore(["ab", "ac"]).compiled_automaton()
    stats = automaton.stats()
    # root + 'a' + 'b' + 'c'
    assert stats == {"fragments": 2, "nodes": 4}


# ---------------------------------------------------------------------------
# OccurrenceIndex stabbing + witness
# ---------------------------------------------------------------------------


def test_covers_and_witness_are_genuine():
    fragments = ["SELECT * FROM t WHERE id = ", " ORDER", "ORDER BY name"]
    query = "SELECT * FROM t WHERE id = 5 ORDER BY name"
    index = FragmentAutomaton(fragments).index(query)
    for token in critical_tokens(query):
        covered = index.covers(token.start, token.end)
        witness = index.witness(token.start, token.end)
        assert covered == (witness is not None)
        if witness is not None:
            fragment, pos = witness
            # Genuine occurrence containing the token.
            assert query[pos : pos + len(fragment)] == fragment
            assert pos <= token.start and token.end <= pos + len(fragment)


def test_index_boundaries_are_half_open():
    index = FragmentAutomaton(["abcd"]).index("abcd")
    assert index.covers(0, 4)
    assert index.covers(3, 4)
    assert not index.covers(3, 5)  # reaches past the occurrence
    assert index.witness(4, 5) is None


def test_no_combining_of_adjacent_occurrences():
    # "O" and "R" occurrences are adjacent; the token OR spans both and is
    # NOT covered (paper: fragments are never combined).
    index = FragmentAutomaton(["O", "R"]).index("1 OR 2")
    assert index.covers(2, 3) and index.covers(3, 4)
    assert not index.covers(2, 4)


def test_intervals_listing():
    index = FragmentAutomaton(["ab"]).index("abab")
    assert index.intervals() == [(0, 2, "ab"), (2, 4, "ab")]


# ---------------------------------------------------------------------------
# Analyzer integration: matcher selection, epoch rebuilds, counters
# ---------------------------------------------------------------------------


def test_matcher_validation():
    with pytest.raises(ValueError, match="unknown pti matcher"):
        PTIConfig(matcher="bogus")


def test_auto_threshold_switches_engines():
    small = PTIAnalyzer(FragmentStore(["a"]))
    assert small.resolved_matcher == "scan"
    fragments = [f"frag_{i} = " for i in range(AUTO_AUTOMATON_MIN_FRAGMENTS)]
    big = PTIAnalyzer(FragmentStore(fragments))
    assert big.resolved_matcher == "automaton"
    # Explicit choices are never overridden.
    assert PTIAnalyzer(FragmentStore(["a"]), PTIConfig(matcher="automaton")).resolved_matcher == "automaton"
    assert PTIAnalyzer(FragmentStore(fragments), PTIConfig(matcher="scan")).resolved_matcher == "scan"


def test_auto_threshold_reevaluated_as_store_grows():
    store = FragmentStore(["a = "])
    daemon = PTIDaemon(store)
    assert daemon.analyzer.resolved_matcher == "scan"
    grown = [*store, *(f"col_{i} = " for i in range(AUTO_AUTOMATON_MIN_FRAGMENTS))]
    daemon.refresh_fragments(FragmentStore(grown))
    assert daemon.analyzer.resolved_matcher == "automaton"


def test_epoch_rebuild_on_added_fragment():
    store = FragmentStore(["SELECT a FROM t WHERE id = "])
    daemon = PTIDaemon(store, DaemonConfig(pti=PTIConfig(matcher="automaton")))
    query = "SELECT a FROM t WHERE id = 1 LIMIT 5"
    assert not daemon.analyze_query(query).result.safe  # LIMIT uncovered
    daemon.refresh_fragments(FragmentStore([*store, " LIMIT 5"]))
    assert daemon.analyze_query(query).result.safe  # the new store's automaton
    assert daemon.analyzer.automaton_builds == 1


def test_epoch_rebuild_on_removed_fragment_revokes_coverage():
    store = FragmentStore(["SELECT a FROM t WHERE id = ", " OR "])
    daemon = PTIDaemon(store, DaemonConfig(pti=PTIConfig(matcher="automaton")))
    attack = "SELECT a FROM t WHERE id = 1 OR 1"
    assert daemon.analyze_query(attack).result.safe
    daemon.refresh_fragments(FragmentStore(f for f in store if f != " OR "))
    result = daemon.analyze_query(attack).result
    assert not result.safe
    assert {d.token_text for d in result.detections} == {"OR"}


def test_occurrence_index_memo_reused_within_query():
    store = FragmentStore(["SELECT a FROM t WHERE id = ", " LIMIT 5"])
    analyzer = PTIAnalyzer(store, PTIConfig(matcher="automaton"))
    query = "SELECT a FROM t WHERE id = 1 LIMIT 5"
    analyzer.analyze(query)  # several tokens, one streaming pass
    assert analyzer.occ_index_builds == 1
    assert analyzer.occ_index_reuses >= 3
    # A different query triggers a fresh pass but no rebuild.
    analyzer.analyze("SELECT a FROM t WHERE id = 2 LIMIT 5")
    assert analyzer.occ_index_builds == 2
    assert analyzer.automaton_builds == 1


def test_comparisons_counter_counts_transitions_in_automaton_mode():
    store = FragmentStore(["SELECT a FROM t WHERE id = "])
    analyzer = PTIAnalyzer(store, PTIConfig(matcher="automaton"))
    query = "SELECT a FROM t WHERE id = 9"
    analyzer.analyze(query)
    assert analyzer.comparisons >= len(query)


def test_matcher_stats_surface():
    store = FragmentStore(["SELECT a FROM t WHERE id = "])
    analyzer = PTIAnalyzer(store, PTIConfig(matcher="automaton"))
    analyzer.analyze("SELECT a FROM t WHERE id = 9")
    stats = analyzer.matcher_stats()
    assert stats["automaton_builds"] == 1.0
    assert stats["automaton_fragments"] == 1.0
    assert stats["automaton_nodes"] > 1.0
    assert stats["occ_index_builds"] == 1.0
    assert stats["comparisons"] > 0.0


def test_scan_and_automaton_agree_on_spans():
    fragments = [
        "SELECT * FROM records WHERE ID=",
        " LIMIT 5",
        "' ORDER BY name",
        "#",
    ]
    queries = [
        "SELECT * FROM records WHERE ID=1 LIMIT 5",
        "SELECT * FROM records WHERE ID=-1 UNION SELECT username()",
        "SELECT * FROM records WHERE ID=1# tail comment",
        "SELECT a FROM t WHERE b = 'x' ORDER BY name",
        "",
    ]
    store = FragmentStore(fragments)
    scan = PTIAnalyzer(store, PTIConfig(matcher="scan"))
    auto = PTIAnalyzer(store, PTIConfig(matcher="automaton"))
    for query in queries:
        a = scan.analyze(query)
        b = auto.analyze(query)
        assert a.safe == b.safe
        assert [(d.token_start, d.token_end) for d in a.detections] == [
            (d.token_start, d.token_end) for d in b.detections
        ]
        assert [(m.start, m.end) for m in a.markings] == [
            (m.start, m.end) for m in b.markings
        ]


# ---------------------------------------------------------------------------
# Containment work on testbed traffic
# ---------------------------------------------------------------------------


class _QueryRecorder:
    """Guard that records every intercepted query and blocks none."""

    def __init__(self):
        self.queries = []

    def check_query(self, query, context):
        self.queries.append(query)


class _CharCountingScan(PTIAnalyzer):
    """Scan analyzer that also counts character probes.

    A containment check reads at least the ``len(fragment)`` needle
    characters, while an automaton transition reads one query character:
    counting characters puts both engines' work in one unit.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.char_probes = 0

    def _covering_position(self, fragment, query, token):
        self.char_probes += len(fragment)
        return super()._covering_position(fragment, query, token)


def test_automaton_probes_ten_times_fewer_chars_than_unoptimized_scan():
    # The Fig. 7 read+write request streams over a 10-post testbed.
    app = build_testbed(10)
    recorder = _QueryRecorder()
    app.install_guard(recorder)
    for request in read_stream(10, 40) + write_stream(10, 20):
        app.handle(request)
    app.install_guard(None)
    store = FragmentStore.from_sources(app.all_sources())
    scan = _CharCountingScan(
        store, PTIConfig(matcher="scan", use_mru=False, use_token_index=False)
    )
    auto = PTIAnalyzer(store, PTIConfig(matcher="automaton"))
    assert recorder.queries
    for query in recorder.queries:
        assert scan.analyze(query).safe == auto.analyze(query).safe
    # Deterministic counters: an automaton transition is one probe.
    assert auto.comparisons * 10 <= scan.char_probes
