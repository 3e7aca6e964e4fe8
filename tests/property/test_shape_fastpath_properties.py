"""The shape fast path's runtime monitor: shadow validation never diverges.

With shadow validation at 100% sampling, every shape hit is re-checked on
the cold path, and the divergence counter must stay at zero over
generated shape mixes and literal values ranging from benign to the
paper's evasion payloads.  Fast-path verdicts themselves are held to the
paper's rule by ``tests/property/test_spec_harness.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.payloads import quote_comment_block
from repro.core import JozaConfig, JozaEngine, ShapeCacheConfig
from repro.phpapp.context import CapturedInput, RequestContext

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
