"""Property-based equivalence of the NTI analyzer and the executable spec.

The q-gram pigeonhole prefilter may *prune* work, never change a result.
The tests here compare the default analyzer against the executable NTI
spec (``tests/reference/nti_spec.py``) -- byte-identical verdicts,
markings and spans -- over random inputs, the paper's Taintless evasion
shapes (quote stuffing, token splitting, whitespace padding),
high-codepoint text and wp.com-sized requests of 64 captured inputs; one
property holds a single filtered match equal to the Sellers DP.
"""

import random

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

#: Free-text vocabulary of the wide requests: it overlaps the query's own
#: words, so the cheap character bounds admit the text and the pigeonhole
#: probe has to settle it.
WP_WORDS = [
    "post", "posts", "status", "publish", "private", "type", "order",
    "date", "desc", "limit", "author", "select", "where", "alpha", "bravo",
]
#: Captured inputs per wide request: the largest rung the NTI-stage
#: timings used to gate on.
WIDE_INPUTS = 64


def context_of(values):
    return RequestContext(
        inputs=[CapturedInput("get", f"p{i}", v) for i, v in enumerate(values)]
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


def wide_request(seed):
    """``(query, values, is_attack)``: a wp.com-shaped request of 64 inputs.

    One live value among cookie hashes, ids, free text and meta-key
    compounds over the query's own words.  On even seeds the live value is
    an injection and a few inputs are near-copies of 10-89 character query
    stretches with 10-30% of their characters substituted, so matches and
    rejections land on either side of the threshold, some longer than 64
    characters, some settled by anchored scans and some by full scans.
    """
    rng = random.Random(seed)
    is_attack = seed % 2 == 0
    if is_attack:
        live = rng.choice(["-1 UNION SELECT user_pass FROM wp_users", "0 OR 1=1"])
    else:
        live = str(rng.randrange(1, 100_000))
    query = (
        "SELECT SQL_CALC_FOUND_ROWS wp_posts.* FROM wp_posts WHERE 1=1"
        f" AND wp_posts.ID = {live} AND wp_posts.post_type = 'post'"
        " AND (wp_posts.post_status = 'publish'"
        " OR wp_posts.post_status = 'private')"
        " ORDER BY wp_posts.post_date DESC, wp_posts.ID ASC LIMIT 0, 10"
    )
    values = [live]
    while len(values) < WIDE_INPUTS:
        roll = rng.random()
        if roll < 0.25:
            values.append("%032x" % rng.getrandbits(128))
        elif roll < 0.45:
            values.append(str(rng.randrange(10_000_000)))
        elif roll < 0.75:
            words = rng.randrange(4, 17)
            values.append(" ".join(rng.choice(WP_WORDS) for __ in range(words)))
        elif roll < 0.93 or not is_attack:
            words = rng.randrange(2, 4)
            values.append("_".join(rng.choice(WP_WORDS) for __ in range(words)))
        else:
            start = rng.randrange(len(query) - 90)
            near = list(query[start : start + rng.choice((10, 16, 24, 70, 89))])
            # Edit rates around the 0.2 threshold, on both sides of it.
            for __ in range(round(len(near) * rng.uniform(0.1, 0.3))):
                near[rng.randrange(len(near))] = rng.choice("xyz'")
            values.append("".join(near))
    rng.shuffle(values)
    return query, values, is_attack


def assert_analyzer_equals_spec(query, values, threshold):
    """The default analyzer's verdict, markings and detections are the spec's."""
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
    return got


random_cases = st.tuples(sql_text, st.lists(value_text, min_size=1, max_size=8))
evasion_cases = st.builds(
    evasion_case,
    st.sampled_from(PAYLOADS),
    st.integers(min_value=0, max_value=40),
    st.booleans(),
)


@given(value_text, sql_text, thresholds)
def test_filtered_match_equals_dp_oracle(pattern, text, threshold):
    oracle = match_with_ratio(pattern, text, threshold, matcher="dp")
    result = NTIAnalyzer(NTIConfig(threshold=threshold)).analyze(
        text, context_of([pattern]), tokens=[]
    )
    got = [(m.start, m.end, m.ratio) for m in result.markings]
    assert got == ([] if oracle is None else [(oracle.start, oracle.end, oracle.ratio)])


@settings(max_examples=150)
@given(st.one_of(random_cases, evasion_cases, near_cases()), thresholds)
def test_default_analyzer_equals_nti_spec(case, threshold):
    query, values = case
    assert_analyzer_equals_spec(query, values, threshold)


def test_default_analyzer_equals_nti_spec_at_64_inputs():
    long_values = 0
    for seed in range(4):
        query, values, is_attack = wide_request(seed)
        assert len(values) == WIDE_INPUTS
        long_values += sum(len(v) > 64 for v in values)
        got = assert_analyzer_equals_spec(query, values, NTIConfig().threshold)
        assert got.safe is not is_attack, query
    assert long_values >= 4


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
