"""Figure 8 -- read / write / search request times, plain vs protected.

The paper's bar chart compares WordPress request times with and without
Joza for a full-site crawl (read), random comment posting (write) and
random searching, splitting the protection cost into its NTI and PTI
shares.

Shape asserted: protection cost is visible on every stream; the write
stream pays the largest relative cost; NTI is a substantial share of the
write/search cost (the paper's rationale for keeping NTI in-process).
"""

from __future__ import annotations

import sys

import pytest
from conftest import PERF_NUM_POSTS, REFERENCE_RENDER_COST, REPEATS, emit, emit_json

from repro.bench import read_stream, search_stream, write_stream
from repro.bench.reporting import latency_summary, pct, render_kv, render_table
from repro.bench.runner import attributed_overhead_pct, measure


@pytest.fixture(scope="module")
def fig8_data():
    streams = {
        "read (site crawl)": read_stream(PERF_NUM_POSTS, 300),
        "write (comments)": write_stream(PERF_NUM_POSTS, 200),
        "search": search_stream(200),
    }
    warm = read_stream(PERF_NUM_POSTS, PERF_NUM_POSTS + 5)
    common = dict(
        num_posts=PERF_NUM_POSTS,
        render_cost=REFERENCE_RENDER_COST,
        repeats=REPEATS,
        warmup=warm,
        record_latencies=True,
    )
    out = {}
    for label, stream in streams.items():
        plain = measure(stream, f"plain {label}", protected=False, **common)
        protected = measure(stream, f"joza {label}", **common)
        out[label] = (plain, protected)
    return out


def test_fig8_request_times(benchmark, fig8_data):
    rows = []
    overheads = {}
    nti_share = {}
    for label, (plain, protected) in fig8_data.items():
        stats = protected.engine.stats
        nti_ms = stats.nti_seconds / protected.requests * 1000
        pti_ms = stats.pti_seconds / protected.requests * 1000
        plain_ms = plain.per_request * 1000
        overheads[label] = attributed_overhead_pct(plain, protected)
        analysis = stats.nti_seconds + stats.pti_seconds
        nti_share[label] = stats.nti_seconds / analysis if analysis else 0.0
        rows.append(
            [
                label,
                f"{plain_ms:.3f}",
                f"{plain_ms + nti_ms + pti_ms:.3f}",
                f"{nti_ms:.4f}",
                f"{pti_ms:.4f}",
                pct(overheads[label]),
            ]
        )
    cache_pairs = []
    cache_rates = {}
    for label, (__, protected) in fig8_data.items():
        caches = protected.engine.cache_stats()["nti"]
        for cache_name, stats in sorted(caches.items()):
            cache_pairs.append(
                (
                    f"{label} / {cache_name}",
                    f"hit rate {stats['hit_rate'] * 100:.1f}% "
                    f"({stats['hits']:.0f} hits / {stats['misses']:.0f} misses, "
                    f"{stats['entries']:.0f} entries)",
                )
            )
        cache_rates[label] = caches.get("match", {}).get("hit_rate", 0.0)
    # Degradation counters (DESIGN.md section 7): the failure model's
    # operator view.  A healthy benchmark run shows zeros on every stream;
    # anything else means the resilience layer absorbed faults *during the
    # measurement* and the timing rows above must be read accordingly.
    resilience_pairs = []
    degradations = {}
    for label, (__, protected) in fig8_data.items():
        report = protected.engine.resilience_report()
        degradations[label] = (
            report["deadline_exceeded"]
            + report["breaker_open"]
            + report["failsafe_blocks"]
        )
        resilience_pairs.append(
            (
                label,
                f"deadline_exceeded={report['deadline_exceeded']} "
                f"breaker_open={report['breaker_open']} "
                f"failsafe_blocks={report['failsafe_blocks']} "
                f"dropped_records={report['dropped_records']}",
            )
        )
    emit(
        "fig8_request_times",
        render_table(
            "Figure 8: request times with and without Joza (ms/request)",
            ["Stream", "Plain", "Protected", "NTI share", "PTI share", "Overhead"],
            rows,
        )
        + "\n\n"
        + render_kv("NTI cache accounting (cross-request LRUs)", cache_pairs)
        + "\n\n"
        + render_kv(
            "Resilience / degradation counters (0 = no faults absorbed)",
            resilience_pairs,
        ),
    )
    # Machine-readable sidecar: raw percentiles and counters for dashboards
    # and regression gates (the .txt above stays the human rendering).
    emit_json(
        "fig8_request_times",
        {
            "benchmark": "fig8_request_times",
            "config": {
                "num_posts": PERF_NUM_POSTS,
                "render_cost": REFERENCE_RENDER_COST,
                "repeats": REPEATS,
            },
            "streams": {
                label: {
                    "requests": protected.requests,
                    "latency_plain": latency_summary(plain.latencies),
                    "latency_protected": latency_summary(protected.latencies),
                    "overhead_pct": overheads[label],
                    "nti_share": nti_share[label],
                    "nti_seconds": protected.engine.stats.nti_seconds,
                    "pti_seconds": protected.engine.stats.pti_seconds,
                    "caches": protected.engine.cache_stats(),
                    "resilience": protected.engine.resilience_report(),
                }
                for label, (plain, protected) in fig8_data.items()
            },
        },
    )
    # Fault-free benchmark environment: the guard must not have degraded.
    assert all(v == 0 for v in degradations.values()), degradations
    # The match cache must actually fire on the input-heavy write stream:
    # comment texts repeat across requests, so (input, query) pairs recur.
    assert cache_rates["write (comments)"] > 0.0
    assert overheads["write (comments)"] == max(overheads.values())
    assert all(v >= 0 for v in overheads.values())
    # NTI carries a real share of the cost on input-heavy streams.
    assert nti_share["write (comments)"] > 0.2

    # Timed representative operation: one protected search request.
    from repro.core import JozaEngine
    from repro.phpapp import HttpRequest
    from repro.testbed import build_testbed

    app = build_testbed(10)
    JozaEngine.protect(app)
    request = HttpRequest(path="/search", get={"s": "lorem"})
    benchmark(app.handle, request)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, *sys.argv[1:]]))
