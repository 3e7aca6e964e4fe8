"""One correctness judge: every deployment shape decides as the paper's rule.

The rule is ``tests/reference/hybrid_spec.py`` (DESIGN.md section 1): PTI
covers every critical token with one fragment occurrence, NTI's difference
ratio plus the whole-token rule, and the AND of the two.  This harness
generates cases and requires every deployment shape to give the spec's
verdict on every query, overall and for PTI and NTI separately, under both
token policies, with ``failsafe`` false (no fault is injected).

A case is

- a **vocabulary**: fragments of the application's query templates (some
  templates left out, some fragments dropped), generic SQL pieces and
  filler, split into a shared base and a tenant overlay;
- **requests**: queries of the Patwari et al. attack classes (tautology,
  union, piggy-backed, blind) and benign traffic, each raw input taken to
  its query value through SNIPPETS' taint transfer functions (concat,
  substring, replace, trim, case, split/join) composed with
  ``repro.phpapp.transforms`` (``addslashes``, ``base64_encode``,
  ``urlencode`` and the decodes behind them); evasions come from
  ``mutate_payload_for_nti`` and ``taintless_mutate``; queries are
  respaced; the requests open with three benign sightings of one template,
  so its shape plan is planted, and then benign variants of it with other
  literals and an echoing parameter, which the plan serves;
- a **vocabulary swap**: a new overlay, after which the requests run again.

The seven shapes (each proves it did its work):

1. ``inspect`` with the shape cache off -- the PTI query and structure
   caches serve repeats and respaced literal variants (structure cache
   hits > 0);
2. ``inspect_batch`` on a default engine, one batch per request;
3. ``inspect`` on a shape-warm engine -- records ``shape_hits > 0``;
4. a :class:`~repro.pti.daemon.SubprocessPTIDaemon` backend -- records
   ``daemon.counters.batches > 0``;
5. a :class:`~repro.tenancy.TenantStore` over the base and overlay;
6. a tenant-mode gateway -- every verdict comes from a worker;
7. that gateway stopped with ``drain=False`` and restarted from its state
   dir -- the reloaded overlay is recovered.

Vocabularies of 16 or more fragments run the automaton matcher (the
explicit example guarantees one), smaller ones the scan.  Tier-1 runs a
few examples per policy; CI's ``spec-harness`` profile (``tests/conftest.py``)
runs many more.

Python 3.9 compatible: tier-1 CI runs 3.9.
"""

import dataclasses
import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.attacks import mutate_payload_for_nti, taintless_mutate
from repro.core import JozaConfig, JozaEngine, ShapeCacheConfig
from repro.phpapp import transforms
from repro.phpapp.context import CapturedInput, RequestContext
from repro.pti import FragmentStore, SubprocessPTIDaemon
from repro.service import AsyncGateway, GatewayClient, GatewayConfig, GatewayThread
from repro.tenancy import TenantRegistry
from tests.reference.hybrid_spec import hybrid_spec

THRESHOLD = JozaConfig().nti.threshold
TENANT = "t"
CI_PROFILE = settings.get_profile("spec-harness")
#: Examples per token policy: a few in tier-1, the profile's count in CI.
EXAMPLES = CI_PROFILE.max_examples if settings.default is CI_PROFILE else 12


# ---------------------------------------------------------------------------
# The application: query templates and the fragments its source holds
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Template:
    """One query the application builds: ``text.format(*values)``.

    ``fragments`` are the string literals of its source.  ``slots`` holds
    each slot's benign values (the first is canonical) and ``vulnerable``
    the slot that takes the request's input, in context ``context``.
    """

    text: str
    fragments: tuple
    slots: tuple
    vulnerable: int
    context: str


NUMBERS = ("1", "42", "7")
WORDS = ("hello", "a-slug", "o'reilly")
TEMPLATES = (
    Template(
        "SELECT name FROM users WHERE id={} LIMIT 1",
        ("SELECT name FROM users WHERE id=", " LIMIT 1"),
        (NUMBERS,), 0, "numeric",
    ),
    Template(
        "SELECT * FROM posts WHERE slug='{}' ORDER BY id DESC",
        ("SELECT * FROM posts WHERE slug='", "' ORDER BY id DESC"),
        (WORDS,), 0, "quoted",
    ),
    Template(
        "SELECT ID FROM wp_posts WHERE post_title LIKE '%{}%'",
        ("SELECT ID FROM wp_posts WHERE post_title LIKE '%", "%'"),
        (WORDS,), 0, "like",
    ),
    # Fragments that span a literal: whether they cover AND depends on the
    # status or post type, so a shape plan must re-prove them per instance.
    Template(
        "SELECT * FROM posts WHERE status = '{}' AND slug = '{}'",
        ("SELECT * FROM posts WHERE status = 'publish' AND slug = '", "'"),
        (("publish", "draft"), WORDS), 1, "quoted",
    ),
    Template(
        "SELECT * FROM wp_posts WHERE post_type = '{}' AND ID = {}",
        ("SELECT * FROM wp_posts WHERE post_type = 'post' AND ID = ",),
        (("post", "page"), NUMBERS), 1, "numeric",
    ),
    Template(
        "UPDATE users SET name = '{}' WHERE id = {}",
        ("UPDATE users SET name = '", "' WHERE id = "),
        (WORDS, NUMBERS), 1, "numeric",
    ),
    Template(
        "INSERT INTO comments (post_id, content) VALUES ({}, '{}')",
        ("INSERT INTO comments (post_id, content) VALUES (", ", '", "')"),
        (NUMBERS, WORDS), 1, "quoted",
    ),
    Template(
        "SELECT * FROM t WHERE a IN ({}, {}) ORDER BY a DESC",
        ("SELECT * FROM t WHERE a IN (", ", ", ") ORDER BY a DESC"),
        (NUMBERS, NUMBERS), 0, "numeric",
    ),
)
#: The templates whose first fragment spans a literal.
SPANNING = TEMPLATES[3:5]
#: Generic SQL pieces: partial coverage for attacks (Taintless' material).
PIECES = (
    " OR ", " = ", "'", ")", " AND ", "#", "-- ", " UNION ", "SELECT ",
    " FROM ", "1", "=", " LIMIT 5", "users", "user_pass", ";",
)
#: Fragments no template uses, to grow a vocabulary past 16.
FILLER = tuple(
    f"SELECT option_value FROM wp_options WHERE option_name = 'opt{i}'"
    for i in range(16)
)
#: Benign sightings of the anchor template's vulnerable slot.
WARM_VALUES = {"numeric": ("11", "12", "13"), "quoted": ("kiwi", "lime", "plum")}
WARM_VALUES["like"] = WARM_VALUES["quoted"]

#: The Patwari et al. attack classes, per injection context.
ATTACKS = {
    "numeric": {
        "tautology": ("1 OR 1=1", "0 OR 2>1 #"),
        "union": ("-1 UNION SELECT user_pass FROM users", "0 UNION ALL SELECT 1"),
        "piggy-backed": ("1; DROP TABLE users", "1; UPDATE users SET name='x'"),
        "blind": ("1 AND SLEEP(5)", "1 AND 1=2", "1 AND ASCII(user())>64"),
    },
    "quoted": {
        "tautology": ("x' OR '1'='1", "x' OR 1=1 #"),
        "union": ("x' UNION SELECT user_pass FROM users -- ", "' UNION SELECT 1 #"),
        "piggy-backed": ("x'; DROP TABLE users -- ",),
        "blind": ("x' AND SLEEP(5) AND '1'='1", "x' AND 1=2 #"),
    },
}
ATTACKS["like"] = ATTACKS["quoted"]

#: SNIPPETS' taint transfer functions and the application transforms: each
#: maps the value on its way from the raw input into the query.
TRANSFERS = {
    "concat": lambda value: "wp_" + value,
    "substring": lambda value: value[: len(value) - len(value) // 3],
    "replace": lambda value: value.replace("'", "''"),
    "trim": transforms.trim,
    "lower": transforms.strtolower,
    "upper": transforms.strtoupper,
    "split/join": lambda value: " ".join(value.split(",")),
    "addslashes": transforms.addslashes,
    "base64_encode": transforms.base64_encode,
    "urlencode": transforms.urlencode,
}
#: How a payload travels: the client's encoding and the application's decode.
ENCODINGS = {
    "plain": (str, str),
    "url": (transforms.urlencode, transforms.urldecode),
    "base64": (transforms.base64_encode, transforms.base64_decode),
    # The client writes the %XX escapes itself.
    "urldecode": (str, transforms.urldecode),
}
#: ``mutate_payload_for_nti``'s vectors and the transform each one rides.
VECTORS = {
    "magic_quotes": ("plain", ("addslashes",)),
    "urldecode": ("urldecode", ()),
    "trim": ("plain", ("trim",)),
    "base64": ("base64", ()),
}


@dataclasses.dataclass(frozen=True)
class Request:
    queries: tuple
    inputs: tuple

    def context(self):
        return RequestContext(inputs=[CapturedInput(*i) for i in self.wire_inputs()])

    def wire_inputs(self):
        return [("get", f"p{i}", value) for i, value in enumerate(self.inputs)]


@dataclasses.dataclass(frozen=True)
class Case:
    base: tuple
    overlay: tuple
    overlay_after: tuple
    requests: tuple

    def vocabularies(self):
        return (self.base + self.overlay, self.base + self.overlay_after)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def render(template, values, edits=()):
    """The query for ``values``, with some spaces respaced by ``edits``."""
    query = template.text.format(*values)
    for index, replacement in edits:
        spaces = [i for i, ch in enumerate(query) if ch == " "]
        if spaces:
            at = spaces[index % len(spaces)]
            query = query[:at] + replacement + query[at + 1 :]
    return query


def deliver(payload, encoding, chain):
    """``(raw input, query value)`` of a payload sent through one flow."""
    encode, decode = ENCODINGS[encoding]
    raw = encode(payload)
    value = decode(raw)
    for name in chain:
        value = TRANSFERS[name](value)
    return raw, value


def warm_request(template, value):
    values = [pool[0] for pool in template.slots]
    values[template.vulnerable] = value
    return Request((render(template, values),), (value,))


@st.composite
def request(draw, anchor, vocabulary, variant=False):
    """One request: a payload's flow into one or two templated queries.

    A ``variant`` is a benign instance of the anchor template with other
    literals and an echoing parameter: a planted shape plan serves it.
    """
    if variant:
        template, kind = anchor, "benign"
    else:
        template = draw(st.sampled_from((anchor,) * 3 + TEMPLATES))
        kinds = ("benign", "benign", "attack", "evasion", "taintless")
        kind = draw(st.sampled_from(kinds))
    # A variant changes every literal the warm-up held fixed.
    pools = [pool[1:] if variant and len(pool) > 1 else pool for pool in template.slots]
    values = [draw(st.sampled_from(pool)) for pool in pools]
    context = template.context
    if kind == "benign":
        payload = draw(st.sampled_from(template.slots[template.vulnerable]))
    else:
        family = draw(st.sampled_from(sorted(ATTACKS[context])))
        payload = draw(st.sampled_from(ATTACKS[context][family]))
    encoding, chain = "plain", ()
    if not variant:
        encoding = draw(st.sampled_from(sorted(ENCODINGS)))
        chain = tuple(draw(st.lists(st.sampled_from(sorted(TRANSFERS)), max_size=2)))
    raws = None
    if kind == "evasion":
        vector = draw(st.sampled_from(sorted(VECTORS) + ["split"]))
        if vector == "split":
            try:
                raws = mutate_payload_for_nti(payload, vector, context, THRESHOLD)
            except ValueError:  # a one-character critical token cannot be cut
                raws = None
            encoding, chain = "plain", ()
        else:
            payload = mutate_payload_for_nti(payload, vector, context, THRESHOLD)
            encoding, chain = VECTORS[vector]
    elif kind == "taintless":

        def build(candidate):
            values[template.vulnerable] = deliver(candidate, encoding, chain)[1]
            return render(template, values)

        adapted = taintless_mutate(payload, build, FragmentStore(vocabulary), 4)
        payload = adapted.payload or payload
    if raws is None:
        raw, value = deliver(payload, encoding, chain)
        raws = (raw,)
    else:
        value = "".join(raws)
    values[template.vulnerable] = value
    edits = draw(
        st.lists(
            st.tuples(st.integers(0, 40), st.sampled_from(("  ", "\t", "\n", ""))),
            max_size=2,
        )
    )
    queries = [render(template, values, edits)]
    if draw(st.booleans()):
        # The application issues a second query with the same value.
        other = draw(st.sampled_from(TEMPLATES))
        second = [pool[0] for pool in other.slots]
        second[other.vulnerable] = value
        queries.append(render(other, second))
    inputs = list(raws)
    extras = st.lists(
        st.sampled_from(("noise", "echo", "echo")), min_size=int(variant), max_size=2
    )
    for extra in draw(extras):
        if extra == "noise":
            inputs.append(draw(st.sampled_from(NUMBERS + WORDS + ("",))))
        else:
            # Another parameter that echoes part of the query text.
            start = draw(st.integers(0, len(queries[0]) - 1))
            length = draw(st.integers(1, 24))
            inputs.append(queries[0][start : start + length])
    return Request(tuple(queries), tuple(inputs))


@st.composite
def cases(draw):
    # Templates whose fragments span a literal anchor a case more often.
    anchor = draw(st.sampled_from(TEMPLATES + SPANNING))
    chosen = draw(st.lists(st.sampled_from(TEMPLATES), max_size=4))
    fragments = list(anchor.fragments)
    for template in chosen:
        kept = draw(st.lists(st.sampled_from(template.fragments), unique=True))
        fragments.extend(kept)
    fragments.extend(draw(st.lists(st.sampled_from(PIECES), unique=True, max_size=5)))
    fragments.extend(
        draw(st.lists(st.text("SELCT ORUNIADW=')#1-;", min_size=1, max_size=5),
                      max_size=2))
    )
    fragments = list(dict.fromkeys(fragments))
    if draw(st.sampled_from(("automaton", "automaton", "scan"))) == "automaton":
        fragments.extend(FILLER[: max(0, 16 - len(fragments))])
    in_overlay = draw(st.lists(st.booleans(), min_size=len(fragments),
                               max_size=len(fragments)))
    base = tuple(f for f, o in zip(fragments, in_overlay) if not o)
    overlay = tuple(f for f, o in zip(fragments, in_overlay) if o)
    overlay_after = tuple(
        draw(st.lists(st.sampled_from(fragments + list(PIECES)), unique=True,
                      max_size=8))
    )
    warm = tuple(warm_request(anchor, v) for v in WARM_VALUES[anchor.context])
    variants = draw(st.lists(request(anchor, fragments, True), min_size=1, max_size=2))
    rest = draw(st.lists(request(anchor, fragments), max_size=4))
    return Case(base, overlay, overlay_after, warm + tuple(variants + rest))


def _status_case():
    """Past 16 fragments, the status template warm in the overlay, then a
    literal variant its shape plan must re-prove and an attack on a warm
    shape that only NTI sees."""
    status, numeric = TEMPLATES[3], TEMPLATES[0]
    base = tuple(f for t in TEMPLATES if t is not status for f in t.fragments)
    base += FILLER[:6]
    warm = tuple(warm_request(status, v) for v in WARM_VALUES["quoted"])
    draft = Request((render(status, ["draft", "kiwi"]),), ("kiwi",))
    echo = Request((render(status, ["publish", "fig"]),), ("fig", "' AND slug = '"))
    numbers = tuple(warm_request(numeric, v) for v in WARM_VALUES["numeric"])
    attack = Request((render(numeric, ["1 OR 1=1"]),), ("1 OR 1=1",))
    return Case(
        base, status.fragments, (), warm + (draft, echo) + numbers + (attack,)
    )


# ---------------------------------------------------------------------------
# The judge
# ---------------------------------------------------------------------------


def spec_views(case, vocabulary, strict):
    """``(safe, pti_safe, nti_safe, failsafe)`` as the spec decides each
    query of one phase."""
    views = []
    for request in case.requests:
        for query in request.queries:
            safe, pti, nti = hybrid_spec(
                query, vocabulary, request.inputs, THRESHOLD, strict
            )
            views.append((safe, pti[0], nti[0], False))
    return views


def engine_view(verdict):
    return (
        verdict.safe,
        None if verdict.pti is None else verdict.pti.safe,
        None if verdict.nti is None else verdict.nti.safe,
        verdict.failsafe,
    )


def gateway_view(verdict):
    return (
        verdict["safe"],
        None if verdict["pti"] is None else verdict["pti"]["safe"],
        None if verdict["nti"] is None else verdict["nti"]["safe"],
        verdict["failsafe"],
    )


def run_engine(engine, case, swap, batch=False):
    """Both phases' views: the requests, the swap, the requests again."""
    phases = []
    for overlay in (None, case.overlay_after):
        if overlay is not None:
            swap(overlay)
        views = []
        for request in case.requests:
            context = request.context()
            if batch:
                verdicts = engine.inspect_batch(request.queries, context)
            else:
                verdicts = [engine.inspect(q, context) for q in request.queries]
            views.extend(engine_view(v) for v in verdicts)
        phases.append(views)
    return phases


def in_process_shapes(case, strict):
    """Shapes 1-5: name -> (phase views, the engine)."""
    config = JozaConfig(strict_tokens=strict)
    cold_config = JozaConfig(
        strict_tokens=strict, shape=ShapeCacheConfig(enabled=False)
    )
    vocabulary = case.base + case.overlay

    def swapper(engine):
        return lambda overlay: engine.daemon.refresh_fragments(
            FragmentStore(case.base + overlay)
        )

    shapes = {}
    for name, engine_config, batch in (
        ("inspect, shape cache off", cold_config, False),
        ("inspect_batch", config, True),
        ("shape-warm inspect", config, False),
    ):
        engine = JozaEngine(FragmentStore(vocabulary), engine_config)
        shapes[name] = (run_engine(engine, case, swapper(engine), batch), engine)

    store = FragmentStore(vocabulary)
    engine = JozaEngine(
        store, cold_config, daemon=SubprocessPTIDaemon(store, cold_config.daemon)
    )
    try:
        views = run_engine(engine, case, swapper(engine), batch=True)
        shapes["subprocess daemon"] = (views, engine)
    finally:
        engine.daemon.close()

    registry = TenantRegistry(case.base)
    engine = JozaEngine(registry.add_tenant(TENANT, case.overlay), config)

    def reload(overlay):
        engine.daemon.refresh_fragments(registry.reload_tenant(TENANT, overlay))

    shapes["tenant store"] = (run_engine(engine, case, reload), engine)
    return shapes


def start_gateway(case, strict, state_dir):
    gateway = AsyncGateway(
        case.base,
        JozaConfig(strict_tokens=strict),
        GatewayConfig(
            unix_path=os.path.join(state_dir, "gw.sock"),
            workers=1,
            max_deadline=None,
            tenants={TENANT: list(case.overlay)},
            state_dir=state_dir,
            fsync_policy="never",
        ),
    )
    return gateway, GatewayThread(gateway).start()


def gateway_views(gateway, case):
    client = GatewayClient(unix_path=gateway.gw.unix_path, client_id=TENANT)
    try:
        views = []
        for request in case.requests:
            verdicts = client.inspect(
                list(request.queries), inputs=request.wire_inputs()
            )
            views.extend(gateway_view(v) for v in verdicts)
        return views
    finally:
        client.close()


def gateway_shapes(case, strict):
    """Shapes 6 and 7: name -> phase views (the restart runs phase 2)."""
    queries = sum(len(request.queries) for request in case.requests)
    with tempfile.TemporaryDirectory(prefix="joza-spec-") as state_dir:
        gateway, thread = start_gateway(case, strict, state_dir)
        try:
            before = gateway_views(gateway, case)
            reload = thread.run_coro(
                gateway.reload_tenant(TENANT, list(case.overlay_after))
            )
            after = gateway_views(gateway, case)
            counters = gateway.stats.snapshot()
        finally:
            thread.stop(drain=False)
        assert not reload["failures"]
        # Every query reached a worker; none was shed or failed over.
        assert counters["queries_inspected"] == 2 * queries
        assert counters["worker_failures"] == 0

        restarted, thread = start_gateway(case, strict, state_dir)
        try:
            recovered = restarted.gw.tenants[TENANT]
            after_restart = gateway_views(restarted, case)
        finally:
            thread.stop()
    assert recovered == list(case.overlay_after)
    return {
        "tenant gateway": [before, after],
        "gateway restarted from its state dir": [None, after_restart],
    }


@pytest.mark.parametrize("strict", [False, True], ids=["pragmatic", "strict"])
@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=cases())
@example(case=_status_case())
def test_every_shape_decides_as_hybrid_spec(strict, case):
    shapes = in_process_shapes(case, strict)
    views = {name: phases for name, (phases, _) in shapes.items()}
    views.update(gateway_shapes(case, strict))
    assert len(views) == 7
    specs = [spec_views(case, v, strict) for v in case.vocabularies()]
    queries = [(q, r.inputs) for r in case.requests for q in r.queries]
    for name, phases in views.items():
        for spec, phase in zip(specs, phases):
            if phase is None:
                continue
            assert len(phase) == len(spec), name
            for (query, inputs), got, want in zip(queries, phase, spec):
                assert got == want, (name, query, inputs, got, want)

    # Each shape did its work.
    warm = shapes["shape-warm inspect"][1].stats
    assert warm.shape_hits > 0
    assert (
        warm.shape_hits + warm.shape_misses + warm.shape_fallthroughs
        == warm.queries_checked
    )
    assert shapes["subprocess daemon"][1].daemon.counters.batches > 0
    cold = shapes["inspect, shape cache off"][1].cache_stats()["pti"]
    assert cold["structure"]["hits"] > 0
    if len(set(case.base + case.overlay_after)) >= 16:
        assert cold["matcher"]["automaton_builds"] > 0
