"""Property-based equivalence of the NTI pipelines, the DP oracle and the spec.

The q-gram pigeonhole prefilter may *prune* work, never change a result.
The tests here compare the default analyzer against the unfiltered
``matcher="dp"`` oracle and against the executable NTI spec
(``tests/reference/nti_spec.py``) -- byte-identical verdicts, markings
and spans -- over random inputs, the paper's Taintless evasion shapes
(quote stuffing, token splitting, whitespace padding) and high-codepoint
text.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.payloads import quote_comment_block, split_inside_critical_tokens
from repro.matching import match_with_ratio
from repro.matching.filter import edit_budget
from repro.nti import NTIAnalyzer, NTIConfig, candidate_inputs
from repro.phpapp.context import CapturedInput, RequestContext
from repro.phpapp.transforms import addslashes
from tests.reference.nti_spec import nti_spec

# SQL-ish characters plus a few multi-byte/high-codepoint ones: the piece
# probes and the Peq tables are keyed by raw code points, so wide
# characters must round-trip exactly.
sql_alphabet = st.sampled_from(list("ABCDEFORSELCTWHRID=1'\"-# ()%,.") + ["é", "中", "𐍈"])
sql_text = st.text(alphabet=sql_alphabet, max_size=48)
value_text = st.text(alphabet=sql_alphabet, min_size=1, max_size=24)
thresholds = st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.33, 0.45])

PAYLOADS = [
    "-1 OR 1=1",
    "' OR '1'='1",
    "1; DROP TABLE users -- ",
    "x' UNION SELECT name FROM tabs#",
]


def oracle_config(**kw):
    return NTIConfig(matcher="dp", prefilter="off", **kw)


def context_of(values, source="get"):
    return RequestContext(
        inputs=[CapturedInput(source, f"p{i}", v) for i, v in enumerate(values)]
    )


def evasion_case(payload, quotes, magic_quotes):
    """``(query, inputs)`` for one Taintless-style mutation of ``payload``.

    Quote-stuffed comment blocks (optionally doubled by magic quotes, the
    Figure 2C arithmetic), split payload parts arriving through separate
    parameters, whitespace padding.
    """
    block = quote_comment_block(quotes) if quotes else ""
    stuffed = payload[:1] + block + payload[1:]
    try:
        parts = split_inside_critical_tokens(payload, 3)
    except ValueError:
        parts = ()  # payload's critical tokens are all single characters
    values = [stuffed, payload + " " * 8, *parts]
    sent = [addslashes(v) if magic_quotes else v for v in values]
    query = "SELECT * FROM t WHERE ID=" + sent[0] + " AND N='" + sent[-1] + "'"
    return query, values


@st.composite
def near_cases(draw):
    """``(query, [input])``: a query substring with one to three random edits.

    Queries are long next to the input so the pigeonhole probe anchors
    instead of declining, and the edits put ratios on and around every
    threshold, where an off-by-one in an acceptance test shows.
    """
    query = draw(st.text(alphabet=sql_alphabet, min_size=40, max_size=120))
    start = draw(st.integers(min_value=0, max_value=len(query) - 4))
    end = draw(st.integers(min_value=start + 4, max_value=min(len(query), start + 12)))
    value = list(query[start:end])
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        pos = draw(st.integers(min_value=0, max_value=len(value) - 1))
        op = draw(st.sampled_from("sid"))
        if op == "s":
            value[pos] = draw(sql_alphabet)
        elif op == "i":
            value.insert(pos, draw(sql_alphabet))
        elif len(value) > 1:
            del value[pos]
    return query, ["".join(value)]


random_cases = st.tuples(sql_text, st.lists(value_text, min_size=1, max_size=8))
evasion_cases = st.builds(
    evasion_case,
    st.sampled_from(PAYLOADS),
    st.integers(min_value=0, max_value=40),
    st.booleans(),
)


def assert_results_agree(query: str, context: RequestContext, threshold: float):
    filtered = NTIAnalyzer(NTIConfig(threshold=threshold)).analyze(query, context)
    oracle = NTIAnalyzer(oracle_config(threshold=threshold)).analyze(query, context)
    assert filtered.safe == oracle.safe
    assert filtered.markings == oracle.markings
    assert filtered.detections == oracle.detections


@given(value_text, sql_text, thresholds)
def test_filtered_match_equals_dp_oracle(pattern, text, threshold):
    oracle = match_with_ratio(pattern, text, threshold, matcher="dp")
    result = NTIAnalyzer(NTIConfig(threshold=threshold)).analyze(
        text, context_of([pattern]), tokens=[]
    )
    got = [(m.start, m.end, m.ratio) for m in result.markings]
    assert got == ([] if oracle is None else [(oracle.start, oracle.end, oracle.ratio)])


@settings(max_examples=60)
@given(st.lists(value_text, min_size=1, max_size=8), sql_text, thresholds)
def test_analyzer_pipelines_agree_on_random_contexts(values, query, threshold):
    assert_results_agree(query, context_of(values), threshold)


@settings(max_examples=40)
@given(
    st.sampled_from(PAYLOADS),
    st.integers(min_value=0, max_value=40),
    st.booleans(),
    st.sampled_from([0.1, 0.2, 0.33]),
)
def test_analyzer_pipelines_agree_on_evasion_shapes(
    payload, quotes, magic_quotes, threshold
):
    query, values = evasion_case(payload, quotes, magic_quotes)
    assert_results_agree(query, context_of(values, source="post"), threshold)


@settings(max_examples=150)
@given(st.one_of(random_cases, evasion_cases, near_cases()), thresholds)
def test_default_analyzer_equals_nti_spec(case, threshold):
    query, values = case
    got = NTIAnalyzer(NTIConfig(threshold=threshold)).analyze(
        query, context_of(values)
    )
    safe, markings, detections = nti_spec(query, values, threshold)
    assert got.safe == safe
    assert [(m.start, m.end, m.origin, m.ratio) for m in got.markings] == markings
    assert [
        (d.token_text, d.token_start, d.token_end, d.input_value)
        for d in got.detections
    ] == detections


@given(st.lists(st.text(alphabet=sql_alphabet, max_size=40), max_size=8),
       st.integers(min_value=0, max_value=30), thresholds)
def test_candidate_cutoff_equals_per_value_budget(values, qlen, threshold):
    query = "q" * qlen
    got = candidate_inputs(context_of(values), query, threshold)
    seen = set()
    expected = []
    for value in values:
        if not value or value in seen:
            continue
        seen.add(value)
        if len(value) - qlen > edit_budget(len(value), threshold):
            continue
        expected.append(value)
    assert got == tuple(expected)
