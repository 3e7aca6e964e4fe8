"""Seeded workload generators.

Each generator turns ``--seed`` into the exact inputs the guard receives --
query strings plus the captured request inputs -- and labels every query
with the generator's own knowledge of whether it carries an injection.
The guard never sees a label; the oracle in :mod:`perfbench.drive` checks
its verdicts against them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.attacks import mutate_payload_for_nti, taintless_mutate
from repro.bench import read_stream, search_stream, write_stream
from repro.phpapp.context import CapturedInput, RequestContext
from repro.phpapp.transforms import addslashes, trim
from repro.pti import FragmentStore
from repro.testbed import build_testbed
from repro.testbed.exploits import all_exploits, benign_value, make_request
from repro.testbed.plugin_defs import NtiVector

from . import config


@dataclass(frozen=True)
class Request:
    """One HTTP request's worth of queries, as the DB wrapper sees them."""

    queries: tuple[str, ...]
    #: Generator label per query: True = carries an injection.
    attack: tuple[bool, ...]
    context: RequestContext
    #: The same inputs in the gateway's wire form (source, name, value).
    inputs: tuple[tuple[str, str, str], ...]
    tenant: str = ""

    @property
    def is_attack(self) -> bool:
        return any(self.attack)


@dataclass
class Workload:
    name: str
    seed: int
    #: What set-up builds the store from: PHP sources (WordPress) or an
    #: explicit fragment list (wp.com-scale vocabulary).
    sources: list[str] = field(default_factory=list)
    fragments: list[str] = field(default_factory=list)
    #: Verification pass, replayed once in order (also the warm-up); the
    #: verdict digest covers exactly these.
    warm: list[Request] = field(default_factory=list)
    #: Cycled by the timed closed and open loops.
    timed: list[Request] = field(default_factory=list)
    #: Gateway only: tenant id -> overlay fragments at boot.
    tenants: dict[str, list[str]] = field(default_factory=dict)


def _request(queries, attack, context: RequestContext) -> Request:
    return Request(
        queries=tuple(queries),
        attack=tuple(attack),
        context=context,
        inputs=tuple((c.source, c.name, c.value) for c in context.inputs),
    )


# ---------------------------------------------------------------------------
# WordPress testbed traffic (wp_mix, gateway_tenants)
# ---------------------------------------------------------------------------

#: Request-kind shares of the WordPress mix (reads dominate, as on a real
#: site); exploits are the testbed's crafted originals.
_WP_SHARES = (("exploit", 0.02), ("search", 0.13), ("write", 0.15))


class _Recorder:
    """Query guard that records every intercepted query and blocks none."""

    def __init__(self) -> None:
        self.items: list[tuple[str, RequestContext]] = []

    def check_query(self, query: str, context: RequestContext) -> None:
        self.items.append((query, context))

    def capture(self, app, http_request) -> list[tuple[str, RequestContext]]:
        self.items = []
        app.handle(http_request)
        return self.items


def wordpress_requests(seed: int, size: str) -> tuple[list[str], list[Request]]:
    """Capture the WordPress mix once: (PHP sources, labelled requests).

    Benign requests come from the ``repro.bench.workload`` streams.  For an
    exploit request the attack query is the first one the benign variant
    of the same plugin request does not issue; queries after it are
    dropped, because the protected wrapper terminates the request there.
    """
    sizes = config.SIZES[size]
    posts, count = sizes["wp_posts"], sizes["wp_requests"]
    rng = random.Random(seed)
    streams = {
        "read": iter(read_stream(posts, count, seed=rng.randrange(1, 1 << 30))),
        "write": iter(write_stream(posts, count, seed=rng.randrange(1, 1 << 30))),
        "search": iter(search_stream(count, seed=rng.randrange(1, 1 << 30))),
    }
    exploits = all_exploits()
    app = build_testbed(posts)
    recorder = _Recorder()
    app.install_guard(recorder)
    # Exact shares, shuffled: seeds vary the order and content of the
    # traffic, never its composition.
    kinds = [name for name, share in _WP_SHARES for __ in range(round(share * count))]
    kinds += ["read"] * (count - len(kinds))
    rng.shuffle(kinds)
    benign_queries: dict[str, set[str]] = {}
    requests: list[Request] = []
    for kind in kinds:
        if kind != "exploit":
            captured = recorder.capture(app, next(streams[kind]))
            if captured:
                requests.append(
                    _request(
                        [q for q, __ in captured],
                        [False] * len(captured),
                        captured[0][1],
                    )
                )
            continue
        exploit = rng.choice(exploits)
        defn = exploit.plugin
        if defn.name not in benign_queries:
            benign_queries[defn.name] = {
                q
                for q, __ in recorder.capture(
                    app, make_request(defn, benign_value(defn))
                )
            }
        payload = rng.choice(exploit.payloads)
        captured = recorder.capture(app, make_request(defn, payload))
        for index, (query, context) in enumerate(captured):
            if query not in benign_queries[defn.name]:
                requests.append(
                    _request(
                        [q for q, __ in captured[: index + 1]],
                        [False] * index + [True],
                        context,
                    )
                )
                break
        else:
            raise RuntimeError(f"exploit for {defn.name} issued no attack query")
    app.install_guard(None)
    return app.all_sources(), requests


def wp_mix(seed: int, size: str) -> Workload:
    sources, requests = wordpress_requests(seed, size)
    return Workload("wp_mix", seed, sources=sources, warm=requests, timed=requests)


def tenant_overlay(tenant: str, revision: int) -> list[str]:
    """Tenant-private vocabulary; each revision adds one new fragment."""
    base = [
        f"SELECT option_value FROM {tenant}_options WHERE option_name = ",
        f"UPDATE {tenant}_usermeta SET meta_value = ",
        f" WHERE {tenant}_user_id = ",
    ]
    return base + [
        f"SELECT rev_{tenant}_{n} FROM {tenant}_revisions WHERE id = "
        for n in range(revision + 1)
    ]


def gateway_tenants(seed: int, size: str) -> Workload:
    """The WordPress mix, each request routed to one of a few tenants."""
    sources, requests = wordpress_requests(seed, size)
    tenants = [f"tenant{i}" for i in range(config.GATEWAY_TENANTS)]
    routes = [tenants[i % len(tenants)] for i in range(len(requests))]
    random.Random(seed ^ 0x5EED).shuffle(routes)
    routed = [
        Request(r.queries, r.attack, r.context, r.inputs, tenant)
        for r, tenant in zip(requests, routes)
    ]
    return Workload(
        "gateway_tenants",
        seed,
        sources=sources,
        warm=routed,
        timed=routed,
        tenants={t: tenant_overlay(t, 0) for t in tenants},
    )


# ---------------------------------------------------------------------------
# wp.com-scale cold traffic (cold_wpcom)
# ---------------------------------------------------------------------------

#: Short keyword fragments a large code base always contains; they are what
#: lets Taintless rebuild a payload from the application's own vocabulary.
GENERIC_FRAGMENTS = (" OR ", " AND ", " = ", "UNION ALL SELECT ", ", ")

#: Original payloads for the numeric slot.
BASE_ATTACKS = (
    "0 OR 1=1",
    "0 AND 1=1",
    "-1 UNION SELECT user()",
    "9; DROP TABLE wp_posts",
)

#: Keyword-free filler vocabulary (no SQL keyword, operator or punctuation,
#: so no benign input can cover a critical token).
_FILLER_WORDS = (
    "lorem", "ipsum", "dolor", "amet", "tempor", "magna", "aliqua",
    "veniam", "nostrud", "labore", "posted", "body", "tbl", "visitor",
    "session", "campaign", "theme", "widget", "gallery", "caption",
)

_COLUMNS = ("id, body", "id, title", "ID, post_author", "meta_id, meta_value")

#: Share of cold_wpcom requests that carry an attack.
_WPCOM_ATTACK_SHARE = 0.04


def wpcom_vocabulary(seed: int, count: int) -> tuple[list[str], list[str], list[str]]:
    """``count`` keyword-heavy fragments: (fragments, heads, tails).

    Every head holds SELECT/FROM/WHERE and every tail ORDER/BY/DESC/LIMIT,
    so a keyword's candidate list is half the store and only the table and
    column identifiers tell fragments apart.
    """
    rng = random.Random(seed)
    heads, tails = [], []
    for i in range(count // 2):
        heads.append(
            f"SELECT {rng.choice(_COLUMNS)} FROM tbl_{i} "
            f"WHERE key_{rng.randrange(97)} = "
        )
        tails.append(f" ORDER BY posted_{i} DESC LIMIT {5 + rng.randrange(40)}")
    return heads + tails + list(GENERIC_FRAGMENTS), heads, tails


def attack_values(head: str, tail: str) -> list[tuple[str, str, str]]:
    """(raw input, value as it lands in the query) per attack variant.

    Plain originals; NTI evasions for a magic-quotes and a trimming
    application (the raw input differs from what reaches the query); and
    Taintless rewrites that PTI alone passes, rebuilt from the generic
    fragments.
    """
    variants = []
    rewrites = 0
    store = FragmentStore([head, tail, *GENERIC_FRAGMENTS])
    for payload in BASE_ATTACKS:
        variants.append((payload, payload))
        raw = mutate_payload_for_nti(payload, NtiVector.MAGIC_QUOTES, "numeric")
        variants.append((raw, addslashes(raw)))
        raw = mutate_payload_for_nti(payload, NtiVector.TRIM, "numeric")
        variants.append((raw, trim(raw)))
        result = taintless_mutate(payload, lambda p: head + p + tail, store)
        if result.succeeded:
            rewrites += 1
            variants.append((result.payload, result.payload))
    if not rewrites:
        raise RuntimeError("no Taintless rewrite succeeded on the vocabulary")
    return variants


def _filler(rng: random.Random) -> str:
    draw = rng.random()
    if draw < 0.3:
        return str(rng.randrange(10 ** rng.randint(1, 7)))
    if draw < 0.6:
        return f"{rng.choice(_FILLER_WORDS)}{rng.randrange(100)}"
    if draw < 0.8:
        return f"{rng.getrandbits(128):032x}"
    return " ".join(rng.choice(_FILLER_WORDS) for __ in range(rng.randint(2, 6)))


def cold_wpcom(seed: int, size: str) -> Workload:
    """Uniform traffic over every head x tail pairing of the vocabulary.

    There are far more distinct query shapes and structures than the shape,
    query and structure caches hold, so nearly every query takes the cold
    path.  Each request carries 16-64 captured inputs.
    """
    sizes = config.SIZES[size]
    fragments, heads, tails = wpcom_vocabulary(seed, sizes["wpcom_fragments"])
    rng = random.Random(seed + 1)
    attacks = attack_values(heads[0], tails[0])

    def make(index: int, hostile: bool) -> Request:
        count = rng.choice((1, 2, 2, 3))
        target = rng.randrange(count) if hostile else -1
        queries, labels, raw_values = [], [], []
        for slot in range(count):
            if slot == target:
                raw, value = rng.choice(attacks)
            else:
                raw = value = str(rng.randrange(1_000_000))
            queries.append(rng.choice(heads) + value + rng.choice(tails))
            labels.append(slot == target)
            raw_values.append(raw)
        total = rng.randint(16, 64)
        inputs = [
            CapturedInput("get", f"q{slot}", raw)
            for slot, raw in enumerate(raw_values)
        ]
        inputs += [
            CapturedInput("post", f"field{n}", _filler(rng))
            for n in range(total - len(inputs))
        ]
        rng.shuffle(inputs)
        context = RequestContext(inputs=inputs, path=f"/page/{index}")
        return _request(queries, labels, context)

    def batch(size: int) -> list[Request]:
        hostile = set(rng.sample(range(size), round(size * _WPCOM_ATTACK_SHARE)))
        return [make(i, i in hostile) for i in range(size)]

    warm = batch(sizes["wpcom_warm"])
    timed = batch(sizes["wpcom_timed"])
    return Workload("cold_wpcom", seed, fragments=fragments, warm=warm, timed=timed)


GENERATORS = {
    "wp_mix": wp_mix,
    "cold_wpcom": cold_wpcom,
    "gateway_tenants": gateway_tenants,
}
