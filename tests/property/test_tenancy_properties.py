"""Property suite for tenant isolation (DESIGN.md section 13 invariants).

Two properties, fuzzed over overlay vocabularies and the Table IV attack
matrix, and one seeded reload storm that holds both of them while
overlays change under traffic:

- **Coverage isolation** -- a tenant's compiled matcher only ever reports
  fragments from its own composed vocabulary (shared base + own overlay);
  a sibling tenant's overlay fragments never cover tokens in its queries,
  no matter what text is scanned.
- **Verdict parity** -- a tenant engine over interned
  :class:`~repro.tenancy.TenantStore` state produces byte-identical
  canonical verdict JSON to a dedicated single-tenant engine built over a
  plain ``FragmentStore(base + overlay)``, across the Table IV families,
  and keeps doing so after warm overlay reloads.
"""

from __future__ import annotations

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JozaEngine
from repro.phpapp.context import CapturedInput, RequestContext
from repro.core.verdict import verdict_to_dict
from repro.service.codec import encode_verdict
from repro.tenancy import TenantRegistry

BASE = [
    "SELECT * FROM records WHERE ID=",
    "SELECT name FROM users WHERE id=",
    " LIMIT 5",
    " LIMIT 1",
    "SELECT option_value FROM options WHERE option_name='",
    "SELECT COUNT(*) FROM comments WHERE post_id=",
    " AND approved=1",
]

OVERLAY_POOL = [
    "SELECT slot FROM alpha_widgets WHERE slot_id=",
    "SELECT meta FROM alpha_meta WHERE post_id=",
    "SELECT tag FROM beta_tags WHERE tag_name='",
    "SELECT score FROM beta_scores WHERE game=",
    "SELECT cart FROM gamma_carts WHERE session='",
    " ORDER BY created_at DESC",
    " AND visible=1",
]

OVERLAYS = st.lists(
    st.sampled_from(OVERLAY_POOL), unique=True, max_size=4
)

#: (query, input values, is_attack) -- Table IV families over the base
#: vocabulary, inspected identically for every tenant.
MATRIX = [
    ("SELECT * FROM records WHERE ID=7 LIMIT 5", ["7"], False),
    ("SELECT name FROM users WHERE id=3 LIMIT 1", ["3"], False),
    (
        "SELECT name FROM users WHERE id=1 OR 1=1 LIMIT 1",
        ["1 OR 1=1"],
        True,
    ),
    (
        "SELECT * FROM records WHERE ID=7 UNION SELECT user_pass FROM users"
        " LIMIT 5",
        ["7 UNION SELECT user_pass FROM users"],
        True,
    ),
    (
        "SELECT name FROM users WHERE id=2; DROP TABLE records-- LIMIT 1",
        ["2; DROP TABLE records--"],
        True,
    ),
    (
        "SELECT * FROM records WHERE ID=5 AND SLEEP(5) LIMIT 5",
        ["5 AND SLEEP(5)"],
        True,
    ),
]

SCAN_TEXTS = st.sampled_from(
    [query for query, _, _ in MATRIX]
    + OVERLAY_POOL
    + ["".join(OVERLAY_POOL), "SELECT 1", ""]
)


#: Overlay swaps of the reload storm, round-robin over its tenants.
STORM_RELOADS = 12


def ctx(values):
    return RequestContext(
        inputs=[CapturedInput("get", f"p{i}", v) for i, v in enumerate(values)]
    )


def assert_parity(tenant_engine, dedicated_engine, cases=MATRIX):
    """Byte-identical canonical verdicts on ``cases``; attacks blocked."""
    for query, values, is_attack in cases:
        mine = tenant_engine.inspect_batch([query], ctx(values))[0]
        theirs = dedicated_engine.inspect_batch([query], ctx(values))[0]
        assert encode_verdict(verdict_to_dict(mine)) == encode_verdict(
            verdict_to_dict(theirs)
        ), f"divergence on {query!r}"
        assert mine.safe is (not is_attack)


@given(OVERLAYS, OVERLAYS, SCAN_TEXTS)
@settings(max_examples=60, deadline=None)
def test_tenant_matcher_never_reports_foreign_fragments(
    overlay_a, overlay_b, text
):
    """Tenant A's matcher reports only A's vocabulary; B's overlay
    fragments never cover tokens in A's scans (and vice versa)."""
    registry = TenantRegistry(BASE)
    a = registry.add_tenant("a", overlay_a)
    b = registry.add_tenant("b", overlay_b)
    for store, own, foreign in ((a, overlay_a, overlay_b),
                                (b, overlay_b, overlay_a)):
        automaton, _ = store.compiled_automaton()
        allowed = set(store.fragments)
        assert allowed == set(BASE) | set(own)
        for _, _, fragment in automaton.occurrences(text):
            assert fragment in allowed
        foreign_only = set(foreign) - set(own) - set(BASE)
        covered = {frag for _, _, frag in automaton.occurrences(text)}
        assert not (covered & foreign_only)


@given(OVERLAYS)
@settings(max_examples=25, deadline=None)
def test_tenant_verdicts_byte_identical_to_dedicated_engine(overlay):
    """Table IV matrix parity: interned tenant state vs dedicated store."""
    registry = TenantRegistry(BASE)
    tenant_engine = JozaEngine(registry.add_tenant("t", overlay))
    dedicated_engine = JozaEngine.from_fragments(list(BASE) + list(overlay))
    assert_parity(tenant_engine, dedicated_engine)


@given(OVERLAYS, OVERLAYS)
@settings(max_examples=15, deadline=None)
def test_parity_survives_warm_overlay_reload(overlay, next_overlay):
    """After a warm handoff the tenant engine still matches a dedicated
    engine built over the *new* vocabulary."""
    registry = TenantRegistry(BASE)
    tenant_engine = JozaEngine(registry.add_tenant("t", overlay))
    tenant_engine.daemon.refresh_fragments(
        registry.reload_tenant("t", next_overlay)
    )
    dedicated_engine = JozaEngine.from_fragments(
        list(BASE) + list(next_overlay)
    )
    assert_parity(tenant_engine, dedicated_engine)


def test_reload_storm_never_fails_open_and_ends_in_parity():
    """Overlay swaps under traffic: no attack passes mid-storm, and each
    tenant then answers like a dedicated engine over its final vocabulary."""
    registry = TenantRegistry(BASE)
    engines = {
        f"t{i}": JozaEngine(registry.add_tenant(f"t{i}", OVERLAY_POOL[i : i + 2]))
        for i in range(4)
    }
    tenant_ids = list(engines)
    generations = {tenant_id: [] for tenant_id in tenant_ids}
    served = threading.Event()  # a full traffic pass ended
    finished = threading.Event()  # the last swap is done
    stopping = threading.Event()  # the data plane gave up
    failures = []

    def storm():
        try:
            for n in range(STORM_RELOADS):
                # Every swap lands while traffic runs, one pass after the
                # previous swap at the earliest.
                if not served.wait(30) or stopping.is_set():
                    return
                served.clear()
                tenant_id = tenant_ids[n % len(tenant_ids)]
                overlay = OVERLAY_POOL[n % len(OVERLAY_POOL) :][:2] + [
                    f"SELECT v FROM reloaded_g{n} WHERE k="
                ]
                engines[tenant_id].daemon.refresh_fragments(
                    registry.reload_tenant(tenant_id, overlay)
                )
                generations[tenant_id].append(n)
        except Exception as exc:  # surfaced on the main thread
            failures.append(exc)
        finally:
            finished.set()

    thread = threading.Thread(target=storm)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two threads finely
    thread.start()
    passes = 0
    try:
        while not finished.is_set():
            for tenant_id in tenant_ids:
                for query, values, is_attack in MATRIX:
                    verdict = engines[tenant_id].inspect_batch(
                        [query], ctx(values)
                    )[0]
                    assert not (is_attack and verdict.safe), (tenant_id, query)
            passes += 1
            served.set()
    finally:
        stopping.set()
        served.set()
        thread.join(30)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert not failures, failures
    assert passes >= STORM_RELOADS
    assert registry.tenancy_report()["handoff_swaps"] == STORM_RELOADS

    for tenant_id, engine in engines.items():
        dedicated = JozaEngine.from_fragments(
            list(registry.get(tenant_id).fragments)
        )
        # An engine left on any older store diverges: only the last
        # swap's overlay covers the first query, and only the tenant's
        # first swap's overlay (gone since) covered the second.
        first, *__, last = generations[tenant_id]
        cases = MATRIX + [
            (f"SELECT v FROM reloaded_g{last} WHERE k=5", ["5"], False),
            (f"SELECT v FROM reloaded_g{first} WHERE k=5", ["5"], True),
        ]
        # Equally warm on both sides, twice: plans are planted on a
        # shape's second sighting, and a plan hit elides markings.
        for __ in range(2):
            for query, values, _ in cases:
                engine.inspect_batch([query], ctx(values))
                dedicated.inspect_batch([query], ctx(values))
        assert_parity(engine, dedicated, cases)
