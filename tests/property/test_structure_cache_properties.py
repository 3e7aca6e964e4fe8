"""Property-based soundness proof for the PTI structure cache.

The structure cache serves a query as safe when an earlier instance of its
template was proven safe.  PTI coverage depends on the exact text between
tokens and, for fragment occurrences that span a literal, on the literal's
contents -- so a cached proof may only be reused where it still holds.
This property drives a :class:`~repro.pti.daemon.PTIDaemon` with both of
its caches: a second-slot literal change must be served from the
structure cache, and any other whitespace, literal or quote variant must
get exactly the ``safe`` bit of a cache-less
:class:`~repro.pti.inference.PTIAnalyzer`.  The cached daemon's verdicts
over respaced literal variants are held to the paper's rule by
``tests/property/test_spec_harness.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pti import DaemonConfig, FragmentStore, PTIAnalyzer, PTIConfig, PTIDaemon

# (fragments, template, canonical slot values).  The canonical instance is
# safe; the posts template's first fragment spans a string literal, so its
# coverage of AND depends on that literal's contents.
TEMPLATES = [
    (
        ["SELECT x FROM t WHERE a = ", " OR b = "],
        "SELECT x FROM t WHERE a = {0} OR b = {1}",
        ("1", "2"),
    ),
    (
        [
            "SELECT * FROM posts WHERE status = 'publish' AND slug = '",
            "'",
            "SELECT * FROM posts WHERE status = '",
        ],
        "SELECT * FROM posts WHERE status = '{0}' AND slug = '{1}'",
        ("publish", "hello"),
    ),
    (
        ["UPDATE t SET name = '", "' WHERE id = ", " LIMIT 1"],
        "UPDATE t SET name = '{0}' WHERE id = {1} LIMIT 1",
        ("bob", "7"),
    ),
    (
        ["SELECT * FROM t WHERE a IN (", ", ", ") ORDER BY a DESC"],
        "SELECT * FROM t WHERE a IN ({0}, {1}) ORDER BY a DESC",
        ("1", "2"),
    ),
]

# Slot values: numbers, words, and text carrying quotes (doubled and
# backslash-escaped), whitespace and SQL, so literals both vary in place
# and break out of their slots.
VALUES = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(str),
    st.sampled_from(["publish", "draft", "hello", "x", "bob", "o''reilly", "a\\'b"]),
    st.text(alphabet=" 'abORND=\\-\"#17", max_size=12),
)
# Whitespace edits: replace the n-th space of the query (mod count).
SPACES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=64),
        st.sampled_from(["  ", "\t", "\n", "", " \n "]),
    ),
    max_size=3,
)


def respace(query, edits):
    for index, replacement in edits:
        spaces = [i for i, ch in enumerate(query) if ch == " "]
        if not spaces:
            break
        at = spaces[index % len(spaces)]
        query = query[:at] + replacement + query[at + 1 :]
    return query


@given(st.integers(min_value=0, max_value=len(TEMPLATES) - 1), VALUES, SPACES)
@settings(max_examples=100, deadline=None)
def test_literal_variants_are_served_and_sound(template_index, value, edits):
    """A second-slot literal change keeps every proof: served from cache."""
    fragments, template, canonical = TEMPLATES[template_index]
    daemon = PTIDaemon(FragmentStore(fragments), DaemonConfig())
    plain = PTIAnalyzer(FragmentStore(fragments), PTIConfig(use_mru=False))
    assert daemon.analyze_query(template.format(*canonical)).safe
    numeric = canonical[1].isdigit()
    other = "424242" if numeric else "zz"
    hit = daemon.analyze_query(template.format(canonical[0], other))
    assert hit.safe and hit.from_cache == "structure"
    # Any other variant: whatever path serves it, the verdict is exact.
    query = respace(template.format(canonical[0], value), edits)
    assert daemon.analyze_query(query).safe == plain.analyze(query).safe

