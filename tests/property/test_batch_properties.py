"""Property-based equivalence proof for ``JozaEngine.inspect_batch``.

The batch API is an amortisation, never a semantics change: for any batch
of queries from one request context,

    ``engine.inspect_batch(queries, ctx) == [engine.inspect(q, ctx) ...]``

in ``safe`` bit and detecting-technique set -- over generated shape mixes,
literal values ranging from benign to the paper's evasion payloads
(magic-quotes comment stuffing, Taintless-style short tokens), warm and
cold shape caches, and fragment-store mutations racing the batch.  Plans
are admitted on a shape's second sighting, so the warm properties sight
every shape twice and require ``shape_hits > 0``.  The
mutation property pins the epoch contract: a store mutation fired from
*inside* the batch's daemon exchange must neither change verdicts (the
injected fragment is vocabulary-neutral) nor let the shape cache mix plans
from two epochs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.payloads import quote_comment_block
from repro.core import JozaConfig, JozaEngine, ShapeCacheConfig
from repro.phpapp.context import CapturedInput, RequestContext
from repro.pti.daemon import DaemonConfig, PTIDaemon
from repro.pti.fragments import FragmentStore
from repro.sqlparser import skeletonize

# Shape templates mirroring the fast-path property suite: fragments are
# the application's template pieces, values land in the literal slot.
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

BENIGN = ["1", "42", "hello", "a-slug", "o reilly"]
ATTACKS = [
    "0 OR 1=1",
    "-1 UNION SELECT user()",
    "x' OR '1'='1",
    "' UNION SELECT password FROM users -- ",
    "1; DROP TABLE t",
]
EVASIONS = [
    # Magic-quotes comment stuffing (paper Fig. 6C).
    quote_comment_block(8) + "0 OR 1=1",
    "x' " + quote_comment_block(12) + "OR '1'='1",
    "/*" + "%27" * 6 + "*/ 0 OR 1=1",
    # Taintless-style short tokens.
    "1=1",
    "a'#",
    "1 or 1",
]
VALUES = st.sampled_from(BENIGN + ATTACKS + EVASIONS)
BATCH = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(TEMPLATES) - 1), VALUES),
    min_size=1,
    max_size=10,
)


def ctx(values):
    return RequestContext(
        inputs=[CapturedInput("get", f"p{i}", v) for i, v in enumerate(values)]
    )


def build_batch(steps):
    queries = [TEMPLATES[t]["build"](v) for t, v in steps]
    context = ctx([v for _, v in steps])
    return queries, context


#: One clean instance per template: sighting it twice plants every plan.
BENIGN_WARM = [template["build"]("1") for template in TEMPLATES]
#: Other instances of the same shapes: served by those plans.
BENIGN_PROBE = [template["build"]("42") for template in TEMPLATES]


def warm_twice(serial_engine, batch_engine, queries, context):
    for _ in range(2):
        for q in queries:
            serial_engine.inspect(q, context)
        batch_engine.inspect_batch(queries, context)


def assert_equivalent(batch_verdicts, serial_verdicts, queries):
    assert len(batch_verdicts) == len(serial_verdicts) == len(queries)
    for bv, sv, query in zip(batch_verdicts, serial_verdicts, queries):
        assert bv.safe == sv.safe, query
        assert bv.detected_by() == sv.detected_by(), query


# ---------------------------------------------------------------------------
# inspect_batch == serial inspect
# ---------------------------------------------------------------------------


@given(BATCH)
@settings(max_examples=50, deadline=None)
def test_batch_equals_serial_cold(steps):
    queries, context = build_batch(steps)
    serial_engine = JozaEngine.from_fragments(ALL_FRAGMENTS)
    serial = [serial_engine.inspect(q, context) for q in queries]
    batch_engine = JozaEngine.from_fragments(ALL_FRAGMENTS)
    batch = batch_engine.inspect_batch(queries, context)
    assert_equivalent(batch, serial, queries)


@given(BATCH, BATCH)
@settings(max_examples=30, deadline=None)
def test_batch_equals_serial_warm(warm_steps, probe_steps):
    # Warm both engines twice with identical batches so the probe batch
    # exercises shape hits, fallthroughs and fresh shapes alike.
    warm_queries, warm_context = build_batch(warm_steps)
    queries, context = build_batch(probe_steps)
    queries += BENIGN_PROBE
    serial_engine = JozaEngine.from_fragments(ALL_FRAGMENTS)
    batch_engine = JozaEngine.from_fragments(ALL_FRAGMENTS)
    warm_twice(serial_engine, batch_engine, BENIGN_WARM, ctx(["1"]))
    warm_twice(serial_engine, batch_engine, warm_queries, warm_context)
    serial = [serial_engine.inspect(q, context) for q in queries]
    batch = batch_engine.inspect_batch(queries, context)
    assert_equivalent(batch, serial, queries)
    assert batch_engine.stats.shape_hits > 0
    assert serial_engine.stats.shape_hits > 0


@given(BATCH)
@settings(max_examples=30, deadline=None)
def test_batch_equals_shape_disabled_serial(steps):
    # Cross-mode check: the batched fast path against a serial engine with
    # the shape cache off entirely.
    queries, context = build_batch(steps)
    cold_engine = JozaEngine.from_fragments(
        ALL_FRAGMENTS, JozaConfig(shape=ShapeCacheConfig(enabled=False))
    )
    serial = [cold_engine.inspect(q, context) for q in queries]
    batch_engine = JozaEngine.from_fragments(ALL_FRAGMENTS)
    batch = batch_engine.inspect_batch(queries, context)
    assert_equivalent(batch, serial, queries)


# ---------------------------------------------------------------------------
# Mid-batch store swap: one consistent epoch
# ---------------------------------------------------------------------------


class MidBatchMutatingDaemon(PTIDaemon):
    """In-process daemon that swaps in a new store mid-exchange.

    The added fragment is vocabulary-neutral (it matches no generated
    query text), so verdicts are unaffected -- what changes is only the
    store and its epoch, exactly the race the batch's single epoch pin
    must absorb.
    """

    NEUTRAL = "ZZZ_EPOCH_BUMP_ONLY_"

    def __init__(self, store, mutate_at=1):
        super().__init__(store, DaemonConfig())
        self.mutate_at = mutate_at

    def analyze_batch(self, queries, deadline=None):
        replies = []
        for i, query in enumerate(queries):
            if i == self.mutate_at:
                self.refresh_fragments(FragmentStore([*self.store, self.NEUTRAL]))
            replies.append(self.analyze_query(query, deadline=deadline))
        return replies


@given(BATCH)
@settings(max_examples=30, deadline=None)
def test_mid_batch_mutation_keeps_equivalence_and_epoch_consistency(steps):
    queries, context = build_batch(steps)
    serial_engine = JozaEngine.from_fragments(ALL_FRAGMENTS)
    serial = [serial_engine.inspect(q, context) for q in queries]

    store = FragmentStore(ALL_FRAGMENTS)
    batch_engine = JozaEngine(store, JozaConfig())
    # One first sighting per shape through a quiet daemon (none is planted
    # yet), so the mutating batch below is every shape's second sighting
    # and plants plans.
    firsts = list({skeletonize(q).key: q for q in queries}.values())
    batch_engine.inspect_batch(firsts, context)
    assert len(batch_engine.shape_cache) == 0
    batch_engine.daemon = MidBatchMutatingDaemon(store)
    batch = batch_engine.inspect_batch(queries, context)
    assert_equivalent(batch, serial, queries)

    # The batch observed one epoch: every plan the shape cache holds was
    # planted against the pinned epoch, and the next inspection (which
    # reads the new store) must flush them rather than serve a mix.
    cache = batch_engine.shape_cache
    planted = len(cache)
    hits = batch_engine.stats.shape_hits
    batch_engine.daemon.mutate_at = None  # the follow-up swaps nothing
    followup = batch_engine.inspect_batch(queries, context)
    assert_equivalent(followup, serial, queries)
    if planted and len(queries) > 1:
        # A swap actually fired mid-batch, so the follow-up ran at the new
        # store's epoch and no old plan served it.
        assert cache.snapshot_stats()["epoch"] == float(batch_engine.store.epoch)
        assert batch_engine.stats.shape_hits == hits


@given(BATCH, st.integers(min_value=0, max_value=9))
@settings(max_examples=30, deadline=None)
def test_mutation_between_batches_never_serves_stale_plans(steps, extra_index):
    queries, context = build_batch(steps)
    batch_engine = JozaEngine.from_fragments(ALL_FRAGMENTS)
    batch_engine.inspect_batch(queries, context)
    batch_engine.inspect_batch(queries, context)  # second sighting plants
    # Mutate the vocabulary between batches, then compare the next batch
    # against a fresh cold engine over the *final* store contents: any
    # stale plan served would surface as a verdict divergence here.
    extra = f"ZZZ_BETWEEN_BATCH_{extra_index}_"
    batch_engine.daemon.refresh_fragments(FragmentStore(ALL_FRAGMENTS + [extra]))
    cold_engine = JozaEngine.from_fragments(
        sorted(ALL_FRAGMENTS + [extra]),
        JozaConfig(shape=ShapeCacheConfig(enabled=False)),
    )
    serial = [cold_engine.inspect(q, context) for q in queries]
    batch = batch_engine.inspect_batch(queries, context)
    assert_equivalent(batch, serial, queries)
