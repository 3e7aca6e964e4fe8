"""Property-based tests for the hybrid engine's high-level invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JozaConfig, JozaEngine
from repro.phpapp.context import CapturedInput, RequestContext
from repro.testbed.plugins import generate_php_source
from repro.testbed.plugin_defs import ALL_PLUGINS

FRAGMENT_SETS = st.lists(
    st.sampled_from(
        ["SELECT a FROM t WHERE id = ", " OR ", " = ", " UNION ", "SELECT ",
         "#", " LIMIT 5", "user"]
    ),
    max_size=6,
)
QUERIES = st.sampled_from(
    [
        "SELECT a FROM t WHERE id = 1",
        "SELECT a FROM t WHERE id = 1 LIMIT 5",
        "SELECT a FROM t WHERE id = 0 OR 1 = 1",
        "SELECT a FROM t WHERE id = -1 UNION SELECT user()",
        "SELECT a FROM t WHERE id = 1 # note",
    ]
)
INPUTS = st.lists(
    st.sampled_from(["1", "0 OR 1 = 1", "-1 UNION SELECT user()", "abc", ""]),
    max_size=3,
)


def ctx(values):
    return RequestContext(
        inputs=[CapturedInput("get", f"p{i}", v) for i, v in enumerate(values)]
    )


@given(FRAGMENT_SETS, QUERIES, INPUTS)
@settings(max_examples=60)
def test_inspect_is_deterministic(fragments, query, inputs):
    a = JozaEngine.from_fragments(fragments).inspect(query, ctx(inputs))
    b = JozaEngine.from_fragments(fragments).inspect(query, ctx(inputs))
    assert a.safe == b.safe
    assert {d.token_text for d in a.detections} == {d.token_text for d in b.detections}


@given(QUERIES, INPUTS)
@settings(max_examples=40)
def test_strict_is_at_least_as_suspicious(query, inputs):
    fragments = ["SELECT a FROM t WHERE id = ", " LIMIT 5"]
    pragmatic = JozaEngine.from_fragments(fragments).inspect(query, ctx(inputs))
    strict = JozaEngine.from_fragments(
        fragments, JozaConfig(strict_tokens=True)
    ).inspect(query, ctx(inputs))
    if not pragmatic.safe:
        assert not strict.safe


@given(st.sampled_from(ALL_PLUGINS))
@settings(max_examples=50, deadline=None)
def test_every_plugin_source_covers_its_own_template(defn):
    """The generated PHP source's fragments always cover the benign query.

    This is the structural invariant real PHP code gives PTI: the template
    that builds a query is itself a string literal in the source.
    """
    from repro.pti import FragmentStore, PTIAnalyzer
    from repro.phpapp.source import extract_fragments

    store = FragmentStore(extract_fragments(generate_php_source(defn)))
    benign = defn.query_template.replace("{value}", "1")
    result = PTIAnalyzer(store).analyze(benign)
    assert result.safe, [d.token_text for d in result.detections]
