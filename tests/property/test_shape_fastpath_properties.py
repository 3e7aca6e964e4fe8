"""Property-based equivalence proof for the query-shape fast path.

The shape fast path is an optimisation, never a semantics change: for any
sequence of requests, an engine with the shape cache enabled must return
exactly the verdicts of an engine with it disabled -- same ``safe`` bit,
same set of detecting techniques.  These properties drive both engines
over generated shape mixes (numeric/quoted/two-slot templates), literal
values ranging from benign to the paper's evasion payloads (magic-quotes
comment stuffing, Taintless-style short tokens, multi-input splits), and
repeated shapes so the fast path genuinely serves warm hits.  Plans are
admitted on a shape's second sighting, so every sequence starts by warming
each template twice and proving a hit (``shape_hits > 0``): no property
can quietly degrade into a cold-vs-cold comparison.

A final property runs the built-in shadow validator at 100% sampling and
asserts the divergence counter stays at zero.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.payloads import quote_comment_block, split_inside_critical_tokens
from repro.core import JozaConfig, JozaEngine, ShapeCacheConfig
from repro.phpapp.context import CapturedInput, RequestContext
from repro.pti import FragmentStore

# --------------------------------------------------------------------------
# Shape templates: fragments are exactly the application's template pieces,
# values are substituted into the literal slot(s).
# --------------------------------------------------------------------------

TEMPLATES = [
    {
        "fragments": ["SELECT a FROM t WHERE id = ", " LIMIT 5"],
        "build": lambda v: f"SELECT a FROM t WHERE id = {v} LIMIT 5",
    },
    {
        "fragments": ["SELECT * FROM posts WHERE slug = '", "' ORDER BY id DESC"],
        "build": lambda v: f"SELECT * FROM posts WHERE slug = '{v}' ORDER BY id DESC",
    },
    {
        "fragments": ["UPDATE t SET name = '", "' WHERE id = ", ""],
        "build": lambda v: f"UPDATE t SET name = '{v}' WHERE id = 7",
    },
]
ALL_FRAGMENTS = sorted({f for t in TEMPLATES for f in t["fragments"] if f})

BENIGN = ["1", "42", "hello", "a-slug", "o reilly", ""]
ATTACKS = [
    "0 OR 1=1",
    "-1 UNION SELECT user()",
    "x' OR '1'='1",
    "' UNION SELECT password FROM users -- ",
    "1; DROP TABLE t",
]
EVASIONS = [
    # Magic-quotes comment stuffing (paper Fig. 6C): inert /*'''...*/ block
    # inflates NTI's edit distance.
    quote_comment_block(8) + "0 OR 1=1",
    "x' " + quote_comment_block(12) + "OR '1'='1",
    # URL-decode variant collapses %27 -> ' after capture.
    "/*" + "%27" * 6 + "*/ 0 OR 1=1",
    # Taintless-style short tokens: every token near/below match length.
    "1=1",
    "a'#",
    "1 or 1",
]
VALUES = st.sampled_from(BENIGN + ATTACKS + EVASIONS)
STEPS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(TEMPLATES) - 1), VALUES),
    min_size=1,
    max_size=10,
)


def ctx(values):
    return RequestContext(
        inputs=[CapturedInput("get", f"p{i}", v) for i, v in enumerate(values)]
    )


def make_pair(config_extra=None):
    fast = JozaEngine.from_fragments(ALL_FRAGMENTS, config_extra or JozaConfig())
    cold = JozaEngine.from_fragments(
        ALL_FRAGMENTS, JozaConfig(shape=ShapeCacheConfig(enabled=False))
    )
    return fast, cold


def assert_equivalent(fast_verdict, cold_verdict, query):
    assert fast_verdict.safe == cold_verdict.safe, query
    assert fast_verdict.detected_by() == cold_verdict.detected_by(), query


def warm_pair(fast, cold):
    """Sight every template twice (plants its plan), then prove a hit."""
    for value in ("1", "2", "3"):
        for template in TEMPLATES:
            query = template["build"](value)
            assert_equivalent(
                fast.inspect(query, ctx([value])),
                cold.inspect(query, ctx([value])),
                query,
            )
    assert fast.stats.shape_hits > 0


# --------------------------------------------------------------------------
# Fast path == cold path over request sequences
# --------------------------------------------------------------------------


@given(STEPS)
@settings(max_examples=50, deadline=None)
def test_fastpath_equals_cold_path_over_sequences(steps):
    fast, cold = make_pair()
    warm_pair(fast, cold)
    for template_index, value in steps:
        template = TEMPLATES[template_index]
        query = template["build"](value)
        fast_v = fast.inspect(query, ctx([value]))
        cold_v = cold.inspect(query, ctx([value]))
        assert_equivalent(fast_v, cold_v, query)


@given(st.integers(min_value=0, max_value=len(TEMPLATES) - 1), VALUES, VALUES)
@settings(max_examples=50, deadline=None)
def test_warm_shape_equivalence(template_index, warm_value, probe_value):
    """Warm the plan with one value, probe with another on the same shape."""
    fast, cold = make_pair()
    template = TEMPLATES[template_index]
    for value in ("1", "2", "3", warm_value, probe_value):
        query = template["build"](value)
        assert_equivalent(
            fast.inspect(query, ctx([value])),
            cold.inspect(query, ctx([value])),
            query,
        )
    assert fast.stats.shape_hits > 0


@given(STEPS)
@settings(max_examples=30, deadline=None)
def test_multi_input_split_equivalence(steps):
    """Payload-construction attacks: the payload arrives in pieces (III-A)."""
    # Every critical token (OR/UNION/SELECT/FROM) is multi-character, so
    # each one can be cut in half across adjacent input parameters.
    payload = "0 OR 1 UNION SELECT password FROM users"
    parts = list(split_inside_critical_tokens(payload, 8))
    fast, cold = make_pair()
    warm_pair(fast, cold)
    for template_index, value in steps:
        template = TEMPLATES[template_index]
        # Alternate benign warm-up traffic with the split attack so the
        # attack lands on a warm shape whenever the shape is cacheable.
        for query, inputs in (
            (template["build"](value), [value]),
            (template["build"]("".join(parts)), parts),
        ):
            assert_equivalent(
                fast.inspect(query, ctx(inputs)),
                cold.inspect(query, ctx(inputs)),
                query,
            )


@given(STEPS)
@settings(max_examples=30, deadline=None)
def test_fragment_mutation_mid_sequence_keeps_equivalence(steps):
    """Store swaps mid-traffic never let a stale plan change a verdict."""
    fast, cold = make_pair()
    warm_pair(fast, cold)
    extra = " ORDER BY mutated"
    for index, (template_index, value) in enumerate(steps):
        if index == len(steps) // 2:
            for engine in (fast, cold):
                engine.daemon.refresh_fragments(
                    FragmentStore([*engine.store, extra])
                )
        query = TEMPLATES[template_index]["build"](value)
        assert_equivalent(
            fast.inspect(query, ctx([value])),
            cold.inspect(query, ctx([value])),
            query,
        )


# --------------------------------------------------------------------------
# Shadow validation: the engine's own cold re-check never diverges
# --------------------------------------------------------------------------


@given(STEPS)
@settings(max_examples=40, deadline=None)
def test_shadow_validator_records_zero_divergences(steps):
    engine = JozaEngine.from_fragments(
        ALL_FRAGMENTS,
        JozaConfig(shape=ShapeCacheConfig(shadow_rate=1.0, shadow_seed=1337)),
    )
    for value in ("1", "2", "3"):
        for template in TEMPLATES:
            engine.inspect(template["build"](value), ctx([value]))
    for template_index, value in steps:
        engine.inspect(TEMPLATES[template_index]["build"](value), ctx([value]))
    assert engine.stats.shape_hits > 0
    assert engine.stats.shadow_checks == engine.stats.shape_hits
    assert engine.stats.shadow_divergences == 0
