"""The traced run: spans around the public calls into each layer.

Nothing inside ``src/`` is instrumented.  For the length of a traced phase
the benchmark wraps, from outside, the calls each layer makes into the
next -- ``JozaEngine.inspect``, the PTI daemon's ``analyze_query``, the NTI
analyzer's ``analyze``, and the parser and plan builder the engine module
calls -- and restores them afterwards.  Each span records its name, start,
end, parent span and request id; spans are kept in memory and written out
when the run ends.  A layer's self time is its span time minus the part
its child spans cover, so the per-layer self times plus the harness's
unattributed remainder add up to the traced request latency exactly.

Layers that run in other processes are measured at their boundary: the
gateway client's round trip, worker engine time from the workers' own
reports, and the wire codec replayed client-side on the same frames.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict

import repro.core.engine as engine_module
from repro.core import JozaEngine
from repro.nti.sources import candidate_inputs
from repro.pti import wire
from repro.service.codec import decode_verdict, encode_verdict

from . import config

perf = time.perf_counter

#: The per-layer metrics of ``BENCHMARK.json``, in its order: (name, unit).
PER_LAYER = (
    ("core.inspect.self_us", "us"),
    ("core.shape.hit_ratio", "ratio"),
    ("core.shape.fallthroughs", "1/req"),
    ("core.plan_build.us", "us"),
    ("core.unattributed_us", "us"),
    ("sqlparser.skeletonize.us", "us"),
    ("sqlparser.skeletonize.calls", "1/req"),
    ("sqlparser.tokens.us", "us"),
    ("pti.parse_us", "us"),
    ("pti.daemon.us", "us"),
    ("pti.daemon.calls", "1/req"),
    ("pti.match_us", "us"),
    ("pti.cache_us", "us"),
    ("pti.query_cache.hit_ratio", "ratio"),
    ("pti.structure_cache.hit_ratio", "ratio"),
    ("pti.matcher.comparisons_per_query", "count"),
    ("pti.automaton.build_s", "s"),
    ("nti.analyze.us", "us"),
    ("nti.analyze.calls", "1/req"),
    ("nti.candidates_per_query", "count"),
    ("nti.match_cache.hit_ratio", "ratio"),
    ("matching.qgram_prune_ratio", "ratio"),
    ("matching.full_scan_fallthroughs", "1/req"),
    ("matching.anchored_window_fraction", "ratio"),
    ("harness.traced_request_us", "us"),
    ("harness.gen_late_p99_us", "us"),
    ("harness.trace_overhead_pct", "%"),
)

#: The gateway's own layers.  ``gateway_tenants`` is not in
#: ``BENCHMARK.json`` (its figures did not repeat on the development
#: host), so these are reported by its traced runs only.
GATEWAY_LAYER = (
    ("service.rtt_us", "us"),
    ("service.worker_engine_us", "us"),
    ("service.codec_us", "us"),
    ("service.transport_us", "us"),
    ("service.frame_bytes", "B"),
    ("service.sheds", "count"),
    ("service.worker_failures", "count"),
    ("persist.appends", "1/req"),
    ("persist.append_us", "us"),
    ("persist.fsyncs", "1/req"),
    ("persist.bytes_written", "B/req"),
    ("persist.checkpoints", "count"),
    ("tenancy.reload.us", "us"),
    ("tenancy.snapshot_pushes", "count"),
    ("tenancy.push_failures", "count"),
)

#: Self-time rows whose per-request means add up to
#: ``harness.traced_request_us`` (``core.unattributed_us`` is the rest).
SELF_ROWS = (
    "core.inspect.self_us",
    "core.plan_build.us",
    "sqlparser.skeletonize.us",
    "sqlparser.tokens.us",
    "pti.daemon.us",
    "nti.analyze.us",
    "service.worker_engine_us",
    "service.codec_us",
    "service.transport_us",
    "core.unattributed_us",
)

#: Span name -> the self-time row it feeds.
_SPAN_ROWS = {
    "core.inspect": "core.inspect.self_us",
    "core.plan_build": "core.plan_build.us",
    "sqlparser.skeletonize": "sqlparser.skeletonize.us",
    "sqlparser.tokens": "sqlparser.tokens.us",
    "pti.daemon": "pti.daemon.us",
    "nti.analyze": "nti.analyze.us",
    "request": "core.unattributed_us",
}

#: Verdict lists kept per traced phase for the codec replay and NTI
#: candidate counts.
_SAMPLE = 2000


class _ThreadSpans:
    """One thread's open-span stack, kept spans and per-name totals."""

    __slots__ = ("stack", "request", "spans", "totals")

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.request = None
        self.spans: list[tuple] = []
        #: name -> [self seconds, total seconds, calls]
        self.totals: dict[str, list] = {}


class Tracer:
    """In-memory spans with per-thread stacks and self-time totals.

    The hot path takes no lock: every thread records into its own
    :class:`_ThreadSpans`, and the totals are merged when read.
    """

    def __init__(self, keep: int = config.MAX_KEPT_SPANS) -> None:
        self.keep = keep
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()

    def _register(self) -> _ThreadSpans:
        state = self._local.state = _ThreadSpans()
        with self._lock:
            self._threads.append(state)
        return state

    def wrap(self, name: str, fn, *, root: bool = False):
        """``fn`` timed as span ``name``; ``root`` spans open a new request."""
        ids, local, keep = self._ids, self._local, self.keep

        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = self._register()
            stack = state.stack
            span_id = next(ids)
            if root:
                state.request = span_id
            frame = [span_id, 0.0, perf()]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[2]
                parent_id = None
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent_id = parent[0]
                total = state.totals.get(name)
                if total is None:
                    total = state.totals[name] = [0.0, 0.0, 0]
                total[0] += duration - frame[1]
                total[1] += duration
                total[2] += 1
                if len(state.spans) < keep:
                    state.spans.append(
                        (span_id, parent_id, state.request, name, frame[2], end)
                    )

        return traced

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """name -> (self seconds, total seconds, calls) over all threads."""
        merged: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for state in self._threads:
            for name, (own, total, calls) in state.totals.items():
                row = merged[name]
                row[0] += own
                row[1] += total
                row[2] += calls
        return {name: tuple(row) for name, row in merged.items()}

    @property
    def spans(self) -> list[tuple]:
        return [span for state in self._threads for span in state.spans]

    def write(self, path: str) -> int:
        """Spans as JSON lines (id, parent, request, name, start, end in s).

        Returns how many spans were recorded but not kept.
        """
        spans = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, request, name, start, end in spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "request": request,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
        return sum(row[2] for row in self.totals().values()) - len(spans)


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace ``obj.attr`` for each ``(obj, attr, new)``."""
    saved = []
    try:
        for obj, attr, new in targets:
            own = attr in vars(obj)
            saved.append((obj, attr, own, getattr(obj, attr)))
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, own, old in reversed(saved):
            if own:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)


# ---------------------------------------------------------------------------
# In-process layers
# ---------------------------------------------------------------------------


def in_process_targets(tracer: Tracer, guard, samples: list):
    """Wrap the engine's calls into parser, PTI daemon, NTI and plan builder."""
    engine = guard.engine
    nti_analyze = engine.nti.analyze

    def analyze(query, context, *args, **kwargs):
        if len(samples) < _SAMPLE:
            samples.append((query, context))
        return nti_analyze(query, context, *args, **kwargs)

    return [
        (guard, "vet", tracer.wrap("request", guard.vet, root=True)),
        (engine, "inspect", tracer.wrap("core.inspect", engine.inspect)),
        (
            engine.daemon,
            "analyze_query",
            tracer.wrap("pti.daemon", engine.daemon.analyze_query),
        ),
        (engine.nti, "analyze", tracer.wrap("nti.analyze", analyze)),
        (
            engine_module,
            "skeletonize",
            tracer.wrap("sqlparser.skeletonize", engine_module.skeletonize),
        ),
        (
            engine_module,
            "critical_tokens",
            tracer.wrap("sqlparser.tokens", engine_module.critical_tokens),
        ),
        (
            engine_module,
            "build_plan",
            tracer.wrap("core.plan_build", engine_module.build_plan),
        ),
    ]


def engine_counters(engine: JozaEngine) -> dict[str, float]:
    """Flat counter snapshot of one in-process engine (public reports)."""
    out: dict[str, float] = {}
    for key, value in engine.stats.shape_counters().items():
        out[f"shape.{key}"] = float(value)
    for key, value in engine.daemon.timings.snapshot().items():
        out[f"stage.{key}"] = value
    out["daemon.queries"] = float(engine.daemon.queries_analyzed)
    caches = engine.cache_stats()
    for name in ("query", "structure"):
        leaf = caches["pti"].get(name, {})
        out[f"pti.{name}.hits"] = leaf.get("hits", 0.0)
        out[f"pti.{name}.misses"] = leaf.get("misses", 0.0)
    out["pti.comparisons"] = caches["pti"].get("matcher", {}).get("comparisons", 0.0)
    match = caches["nti"].get("match", {})
    out["nti.match.hits"] = float(match.get("hits", 0.0))
    out["nti.match.misses"] = float(match.get("misses", 0.0))
    for key, value in engine.nti.filter_stats().items():
        out[f"filter.{key}"] = value
    return out


def counter_delta(before: dict, after: dict) -> dict:
    return {key: after.get(key, 0.0) - before.get(key, 0.0) for key in after}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def in_process_layers(delta: dict, requests: int, samples: list, threshold: float) -> dict:
    """Per-layer metrics from counter deltas over the traced phase."""
    hits = delta.get("shape.shape_hits", 0.0)
    lookups = hits + delta.get("shape.shape_misses", 0.0) + delta.get(
        "shape.shape_fallthroughs", 0.0
    )
    daemon_calls = delta.get("daemon.queries", 0.0)
    pruned = delta.get("filter.pruned_qgram", 0.0)
    candidates = pruned + sum(
        delta.get(f"filter.{key}", 0.0)
        for key in (
            "pruned_zero_budget",
            "anchored_scans",
            "fallthrough_full_scan",
            "exact_hits",
            "packed_lanes",
        )
    )
    per_req = 1e6 / max(requests, 1)
    out = {
        "core.shape.hit_ratio": _ratio(hits, lookups),
        "core.shape.fallthroughs": delta.get("shape.shape_fallthroughs", 0.0) / max(requests, 1),
        "pti.parse_us": delta.get("stage.parse", 0.0) * per_req,
        "pti.match_us": delta.get("stage.match", 0.0) * per_req,
        "pti.cache_us": delta.get("stage.cache", 0.0) * per_req,
        "pti.query_cache.hit_ratio": _ratio(
            delta.get("pti.query.hits", 0.0),
            delta.get("pti.query.hits", 0.0) + delta.get("pti.query.misses", 0.0),
        ),
        "pti.structure_cache.hit_ratio": _ratio(
            delta.get("pti.structure.hits", 0.0),
            delta.get("pti.structure.hits", 0.0)
            + delta.get("pti.structure.misses", 0.0),
        ),
        "pti.matcher.comparisons_per_query": _ratio(
            delta.get("pti.comparisons", 0.0), daemon_calls
        ),
        "nti.match_cache.hit_ratio": _ratio(
            delta.get("nti.match.hits", 0.0),
            delta.get("nti.match.hits", 0.0) + delta.get("nti.match.misses", 0.0),
        ),
        "matching.qgram_prune_ratio": _ratio(pruned, candidates),
        "matching.full_scan_fallthroughs": delta.get("filter.fallthrough_full_scan", 0.0)
        / max(requests, 1),
        "matching.anchored_window_fraction": _ratio(
            delta.get("filter.anchored_window_chars", 0.0),
            delta.get("filter.anchored_text_chars", 0.0),
        ),
    }
    if samples:
        out["nti.candidates_per_query"] = sum(
            len(candidate_inputs(context, query, threshold))
            for query, context in samples
        ) / len(samples)
    return out


# ---------------------------------------------------------------------------
# Gateway layers
# ---------------------------------------------------------------------------

_BUSY_KEY = "perfbench_busy_s"


@contextlib.contextmanager
def worker_engine_probe():
    """Time ``JozaEngine.inspect_batch`` inside gateway workers.

    Installed in the gateway process before it forks its workers, so each
    worker's engines accumulate their own busy time and report it through
    ``resilience_report()``, which reaches the benchmark via
    ``AsyncGateway.resilience_report()``.
    """
    batch = JozaEngine.inspect_batch
    report = JozaEngine.resilience_report

    def inspect_batch(self, *args, **kwargs):
        t0 = perf()
        try:
            return batch(self, *args, **kwargs)
        finally:
            self.__dict__[_BUSY_KEY] = self.__dict__.get(_BUSY_KEY, 0.0) + perf() - t0

    def resilience_report(self):
        out = report(self)
        out[_BUSY_KEY] = self.__dict__.get(_BUSY_KEY, 0.0)
        return out

    with patched(
        [
            (JozaEngine, "inspect_batch", inspect_batch),
            (JozaEngine, "resilience_report", resilience_report),
        ]
    ):
        yield


def gateway_targets(tracer: Tracer, guard, samples: list):
    """Wrap the client round trips (the gateway process traces its journal)."""
    targets = [(guard, "vet", tracer.wrap("request", guard.vet, root=True))]
    for client in guard.clients:
        inspect = client.inspect

        def sampled(queries, *, path="/", inputs=(), budget=None, _inspect=inspect, _client=client):
            verdicts = _inspect(queries, path=path, inputs=inputs, budget=budget)
            if len(samples) < _SAMPLE:
                samples.append((queries, _client.client_id, path, inputs, verdicts))
            return verdicts

        targets.append((client, "inspect", tracer.wrap("service.rtt", sampled)))
    return targets


@contextlib.contextmanager
def remote_spans(guard):
    """Journal-append spans inside the gateway process, for one phase."""
    guard.call("trace", True)
    try:
        yield
    finally:
        guard.call("trace", False)


def durable_targets(tracer: Tracer, gateway):
    """Inside the gateway process: wrap the durable journal's appends."""
    durable = gateway.durable
    if durable is None:
        return []
    return [
        (durable, attr, tracer.wrap("persist.append", getattr(durable, attr)))
        for attr in ("append_audit", "set_overlay")
    ]


def gateway_counters(guard) -> dict[str, float]:
    """Flat snapshot of gateway, journal and worker-engine counters."""
    report, spans = guard.call("report")
    gateway = report["gateway"]
    out = {
        key: float(gateway[key])
        for key in (
            "shed_queue_full",
            "shed_no_worker",
            "expired_on_arrival",
            "expired_in_queue",
            "worker_failures",
            "snapshot_pushes",
            "snapshot_push_failures",
        )
    }
    durability = gateway.get("durability", {})
    for key in ("appends", "fsyncs", "bytes_written", "checkpoints_written"):
        out[f"journal.{key}"] = float(durability.get(key, 0))
    own, __, calls = spans.get("persist.append", (0.0, 0.0, 0))
    out["append.seconds"] = own
    out["append.calls"] = float(calls)
    busy = hits = misses = fallthroughs = 0.0
    for worker in report["workers"]:
        for engine_report in worker.get("engine", {}).get("tenants", {}).values():
            busy += engine_report.get(_BUSY_KEY, 0.0)
            shape = engine_report.get("shape_fastpath", {})
            hits += shape.get("shape_hits", 0)
            misses += shape.get("shape_misses", 0)
            fallthroughs += shape.get("shape_fallthroughs", 0)
    out.update(
        {
            "worker.busy_s": busy,
            "shape.shape_hits": hits,
            "shape.shape_misses": misses,
            "shape.shape_fallthroughs": fallthroughs,
        }
    )
    return out


def codec_replay(samples: list) -> tuple[float, float]:
    """Mean (seconds, frame bytes) of the wire codec per request.

    Replays, on the frames the run actually exchanged, all four codec
    steps a round trip pays: client pack, gateway unpack, gateway verdict
    encode + pack, client unpack + verdict decode.
    """
    if not samples:
        return 0.0, 0.0
    seconds = size = 0.0
    for queries, client_id, path, inputs, verdicts in samples:
        t0 = perf()
        request = wire.pack_gateway_request(
            list(queries), client_id=client_id, path=path, inputs=list(inputs)
        )
        wire.unpack_gateway_request(request)
        reply = wire.pack_gateway_reply([encode_verdict(v) for v in verdicts])
        [decode_verdict(p) for p in wire.unpack_gateway_reply(reply)]
        seconds += perf() - t0
        size += len(request) + len(reply)
    return seconds / len(samples), size / len(samples)


def gateway_layers(delta: dict, requests: int, samples: list, rtt_us: float) -> dict:
    """Per-layer metrics of the gateway; ``rtt_us`` is the mean round trip."""
    per_req = 1.0 / max(requests, 1)
    engine_us = delta.get("worker.busy_s", 0.0) * 1e6 * per_req
    codec_s, frame_bytes = codec_replay(samples)
    codec_us = codec_s * 1e6
    hits = delta.get("shape.shape_hits", 0.0)
    lookups = hits + delta.get("shape.shape_misses", 0.0) + delta.get(
        "shape.shape_fallthroughs", 0.0
    )
    return {
        "core.shape.hit_ratio": _ratio(hits, lookups),
        "core.shape.fallthroughs": delta.get("shape.shape_fallthroughs", 0.0) * per_req,
        "service.rtt_us": rtt_us,
        "service.worker_engine_us": engine_us,
        "service.codec_us": codec_us,
        "service.transport_us": rtt_us - engine_us - codec_us,
        "service.frame_bytes": frame_bytes,
        "service.sheds": sum(
            delta.get(key, 0.0)
            for key in (
                "shed_queue_full",
                "shed_no_worker",
                "expired_on_arrival",
                "expired_in_queue",
            )
        ),
        "service.worker_failures": delta.get("worker_failures", 0.0),
        "persist.appends": delta.get("journal.appends", 0.0) * per_req,
        "persist.append_us": _ratio(
            delta.get("append.seconds", 0.0) * 1e6, delta.get("append.calls", 0.0)
        ),
        "persist.fsyncs": delta.get("journal.fsyncs", 0.0) * per_req,
        "persist.bytes_written": delta.get("journal.bytes_written", 0.0) * per_req,
        "persist.checkpoints": delta.get("journal.checkpoints_written", 0.0),
        "tenancy.snapshot_pushes": delta.get("snapshot_pushes", 0.0),
        "tenancy.push_failures": delta.get("snapshot_push_failures", 0.0),
    }


def self_rows(tracer: Tracer, requests: int) -> dict[str, float]:
    """Per-request mean self time (us) of every spanned layer, plus counts."""
    totals = tracer.totals()
    per_req = 1.0 / max(requests, 1)

    def own(span: str) -> float:
        return totals.get(span, (0.0, 0.0, 0))[0]

    def calls(span: str) -> int:
        return totals.get(span, (0.0, 0.0, 0))[2]

    rows = {row: 0.0 for row in _SPAN_ROWS.values()}
    for span, row in _SPAN_ROWS.items():
        rows[row] += own(span) * 1e6 * per_req
    rows["sqlparser.skeletonize.calls"] = calls("sqlparser.skeletonize") * per_req
    rows["pti.daemon.calls"] = calls("pti.daemon") * per_req
    rows["nti.analyze.calls"] = calls("nti.analyze") * per_req
    rows["service.rtt_us"] = own("service.rtt") * 1e6 * per_req
    rows["harness.traced_request_us"] = totals.get("request", (0.0, 0.0, 0))[1] * 1e6 * per_req
    return rows
