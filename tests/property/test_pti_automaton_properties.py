"""Property-based tests: one-pass automaton vs scan matcher vs brute force.

Two layers of differential testing (DESIGN.md section 9):

- **occurrence layer**: the Aho-Corasick pass must emit exactly the
  occurrence set a brute-force ``str.find`` find-all produces, for
  arbitrary fragment vocabularies (overlapping, nested, duplicated) over
  arbitrary texts;
- **analysis layer**: ``analyze()`` under ``matcher="automaton"`` must
  produce the same verdict, detection spans and marking spans as the
  paper-faithful ``matcher="scan"`` engine, including on Taintless-style
  attack payloads and the evasion classes of the paper (comment
  obfuscation, case games, stacked statements); both must give the
  verdict and detection spans of the executable PTI rule,
  ``tests/reference/pti_spec.py``.

Witness *origins* may differ between matchers (the scan's choice is
MRU-stateful); spans and verdicts may not.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pti import FragmentAutomaton, FragmentStore, PTIAnalyzer, PTIConfig
from repro.sqlparser.parser import critical_tokens
from tests.reference.pti_spec import pti_spec

# A deliberately tiny alphabet: maximizes overlapping / nested / repeated
# occurrences, the regime where automaton bookkeeping can go wrong.
ALPHABET = "ORSEL T='#ab1"
fragment_sets = st.lists(
    st.text(alphabet=ALPHABET, min_size=1, max_size=6),
    min_size=0,
    max_size=10,
)
texts = st.text(alphabet=ALPHABET, min_size=0, max_size=60)

SQL_FRAGMENTS = st.lists(
    st.sampled_from(
        [
            "SELECT * FROM records WHERE ID=",
            "SELECT id FROM t WHERE name = '",
            " LIMIT 5",
            "' ORDER BY name",
            " OR ",
            " UNION ",
            "#",
            "/*",
            " -- ",
            "id",
            "user",
            "O",
            "R",
        ]
    ),
    min_size=0,
    max_size=9,
)

#: Taintless-style payloads plus the paper's evasion classes.
PAYLOADS = [
    "1",
    "1 OR 1=1",
    "x' OR '1'='1",
    "-1 UNION SELECT user()",
    "1; DROP TABLE records",
    "1/**/OR/**/2=2",
    "1 uNiOn SeLeCt 2",
    "1 # trailing comment",
    "1 -- tail",
    "' UNION SELECT password FROM users -- ",
]
QUERY_HEADS = [
    "SELECT * FROM records WHERE ID=",
    "SELECT id FROM t WHERE name = '",
    "UPDATE t SET a = ",
]
QUERY_TAILS = ["", " LIMIT 5", "' ORDER BY name"]
attack_queries = st.builds(
    lambda head, payload, tail: head + payload + tail,
    st.sampled_from(QUERY_HEADS),
    st.sampled_from(PAYLOADS),
    st.sampled_from(QUERY_TAILS),
)


def brute_occurrences(fragments, text):
    out = []
    for fragment in set(fragments):
        if not fragment:
            continue
        pos = text.find(fragment)
        while pos >= 0:
            out.append((pos, pos + len(fragment), fragment))
            pos = text.find(fragment, pos + 1)
    return sorted(out)


@given(fragment_sets, texts)
@settings(max_examples=200)
def test_automaton_occurrences_equal_brute_force(fragments, text):
    automaton = FragmentAutomaton(fragments)
    assert sorted(automaton.occurrences(text)) == brute_occurrences(fragments, text)


@given(fragment_sets, texts, st.data())
@settings(max_examples=150)
def test_interval_stabbing_equals_direct_containment(fragments, text, data):
    index = FragmentAutomaton(fragments).index(text)
    start = data.draw(st.integers(0, max(len(text), 1)))
    end = data.draw(st.integers(start, max(len(text), 1)))
    brute = any(
        s <= start and end <= e for s, e, __ in brute_occurrences(fragments, text)
    )
    assert index.covers(start, end) == brute
    witness = index.witness(start, end)
    assert (witness is not None) == brute
    if witness is not None:
        fragment, pos = witness
        assert text[pos : pos + len(fragment)] == fragment
        assert pos <= start and end <= pos + len(fragment)


def _signature(result):
    return (
        result.safe,
        [(d.token_start, d.token_end) for d in result.detections],
        [(m.start, m.end) for m in result.markings],
    )


def _spec_signature(fragments, query):
    safe, detections = pti_spec(query, fragments)
    return safe, [(start, end) for __, start, end in detections]


@given(SQL_FRAGMENTS, attack_queries)
@settings(max_examples=200)
def test_analyze_automaton_equals_analyze_scan(fragments, query):
    store = FragmentStore(fragments)
    scan = PTIAnalyzer(store, PTIConfig(matcher="scan"))
    auto = PTIAnalyzer(store, PTIConfig(matcher="automaton"))
    signature = _signature(auto.analyze(query))
    assert _signature(scan.analyze(query)) == signature
    assert signature[:2] == _spec_signature(fragments, query)


@given(fragment_sets, texts)
@settings(max_examples=150)
def test_analyze_engines_agree_on_arbitrary_text(fragments, text):
    """Even on garbage input the engines agree (lexer errors included)."""
    store = FragmentStore(fragments)
    scan = PTIAnalyzer(store, PTIConfig(matcher="scan"))
    auto = PTIAnalyzer(store, PTIConfig(matcher="automaton"))
    signature = _signature(auto.analyze(text))
    assert _signature(scan.analyze(text)) == signature
    assert signature[:2] == _spec_signature(fragments, text)


@given(SQL_FRAGMENTS, attack_queries)
@settings(max_examples=100)
def test_automaton_witnesses_are_genuine_occurrences(fragments, query):
    analyzer = PTIAnalyzer(FragmentStore(fragments), PTIConfig(matcher="automaton"))
    for token in critical_tokens(query):
        witness = analyzer.cover_token_witness(query, token)
        if witness is not None:
            fragment, pos = witness
            assert query[pos : pos + len(fragment)] == fragment
            assert pos <= token.start and token.end <= pos + len(fragment)
