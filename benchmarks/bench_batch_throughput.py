"""Throughput harness for the batch-amortised hot path.

Replays a Zipf-distributed shape mix through engines backed by the real
subprocess PTI daemon, once per batch size (1 / 4 / 16 / 64): batch size 1
is the per-query baseline (``engine.inspect`` per request, one
single-query frame exchange each); larger sizes go through
``engine.inspect_batch`` (one struct-packed frame each way per batch, one
deadline clamp, one daemon lock).  The shape cache is disabled so the
measurement isolates the daemon pipe -- with it enabled, warm traffic
never reaches the wire at all (that path is perfbench's ``wp_mix``).

A serialization ablation row times the packed frame codec against pickle
(the daemon pipe's former codec) for the same batch-of-16 request and
reply payloads, separating the wire format's contribution from the pure
exchange amortisation.

Gates (enforced both as a pytest test and in script mode):

- single-thread qps at batch=16 >= 2x the per-query baseline in the full
  run, >= 1.5x in ``--smoke`` mode (CI-sized, looser for runner noise);
- verdict parity: every batch size produces the same safety bits;
- attack parity: every injected attack is blocked at every batch size.

The 2x full gate assumes the daemon child has a core of its own (the
paper's deployment shape: analysis daemon beside the web worker).  On a
single-CPU host the parent's send blocks while the kernel runs the child,
so every exchange serialises both processes' compute and only the
per-exchange fixed costs (context switches, framing) remain amortisable
-- the daemon-level wire still measures >3x there, but end-to-end qps
tops out lower.  The gate therefore relaxes to the smoke threshold when
``os.cpu_count() == 1``; the applied gate and the reason are recorded in
the sidecar.

The machine-readable sidecar lands in
``benchmarks/results/BENCH_batch_throughput.json``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_batch_throughput.py [--smoke]
"""

from __future__ import annotations

import argparse
import os
import pickle
import random
import sys
import time

from repro.bench.reporting import latency_summary, percentile, render_kv, save_json
from repro.core import JozaConfig, JozaEngine, ShapeCacheConfig
from repro.phpapp.context import CapturedInput, RequestContext
from repro.pti import wire
from repro.pti.daemon import SubprocessPTIDaemon
from repro.pti.fragments import FragmentStore
from repro.sqlparser.parser import critical_tokens

SIDE_CAR = "BENCH_batch_throughput"
FULL_GATE = 2.0
SMOKE_GATE = 1.5
BATCH_SIZES = (1, 4, 16, 64)
GATE_BATCH = 16

TABLES = ["posts", "users", "comments", "options", "terms", "linkmeta"]
COLUMNS = ["id", "author", "status", "slug", "parent", "rank"]
WORDS = ["alpha", "bravo", "delta", "echo", "lima", "oscar", "tango", "zulu"]
NUMBER_ATTACKS = ["0 OR 1=1", "-1 UNION SELECT user()", "9; DROP TABLE posts"]
STRING_ATTACKS = [
    "x' OR '1'='1",
    "' UNION SELECT password FROM users -- ",
    "'; DROP TABLE posts -- ",
]


def make_templates(count: int) -> list[dict]:
    templates = []
    for i in range(count):
        table = f"{TABLES[i % len(TABLES)]}_{i}"
        column = COLUMNS[i % len(COLUMNS)]
        if i % 2 == 0:
            head = f"SELECT * FROM {table} WHERE {column} = "
            tail = f" LIMIT {5 + i}"
            templates.append(
                {
                    "fragments": [head, tail],
                    "build": (lambda v, h=head, t=tail: h + v + t),
                    "kind": "number",
                }
            )
        else:
            head = f"SELECT {column} FROM {table} WHERE slug = '"
            tail = f"' ORDER BY {column} DESC"
            templates.append(
                {
                    "fragments": [head, tail],
                    "build": (lambda v, h=head, t=tail: h + v + t),
                    "kind": "string",
                }
            )
    return templates


def build_requests(
    templates: list[dict], count: int, seed: int, attack_every: int = 50
) -> list[tuple[str, list[str], bool]]:
    rng = random.Random(seed)
    weights = [1.0 / (rank**1.2) for rank in range(1, len(templates) + 1)]
    picks = rng.choices(range(len(templates)), weights=weights, k=count)
    out = []
    for i, index in enumerate(picks):
        template = templates[index]
        if attack_every and i % attack_every == attack_every - 1:
            pool = NUMBER_ATTACKS if template["kind"] == "number" else STRING_ATTACKS
            payload = rng.choice(pool)
            out.append((template["build"](payload), [payload], True))
        else:
            if template["kind"] == "number":
                value = str(rng.randrange(1_000_000))
            else:
                value = f"{rng.choice(WORDS)}-{rng.randrange(10_000)}"
            out.append((template["build"](value), [value], False))
    return out


def ctx(values: list[str]) -> RequestContext:
    return RequestContext(
        inputs=[CapturedInput("get", f"p{i}", v) for i, v in enumerate(values)]
    )


def make_engine(fragments: list[str]) -> JozaEngine:
    """Engine over the real subprocess daemon, shape cache off.

    Disabling the shape cache keeps every query on the daemon pipe, which
    is the subsystem under test; the daemon's own child-side caches stay
    on (both modes benefit equally after the warm pass).
    """
    engine = JozaEngine.from_fragments(
        fragments, JozaConfig(shape=ShapeCacheConfig(enabled=False))
    )
    engine.daemon = SubprocessPTIDaemon(FragmentStore(fragments))
    return engine


#: One request context for the whole stream -- the realistic CMS shape
#: (one HTTP request with a few parameters issuing many queries) and, more
#: importantly, *identical NTI work per query at every batch size*, so the
#: ladder isolates the daemon-pipe amortisation.  Inputs are benign:
#: throughput is a legitimate-traffic steady-state metric (paper Table V);
#: the injected attack *queries* in the stream still exercise detection --
#: PTI must block them at every batch size (a gated assertion).
REQUEST_INPUTS = ["alpha-slug", "123456"]


def drive_batched(
    engine: JozaEngine, requests, batch_size: int
) -> tuple[list[float], list[bool], float]:
    """Run the stream in fixed-size batches; per-query seconds + wall time.

    Batch size 1 deliberately uses the serial ``inspect`` API -- it is the
    baseline whose per-query IPC cost batching amortises.
    """
    latencies: list[float] = []
    safeties: list[bool] = []
    context = ctx(REQUEST_INPUTS)
    wall0 = time.perf_counter()
    for i in range(0, len(requests), batch_size):
        block = requests[i : i + batch_size]
        queries = [q for q, __, __ in block]
        t0 = time.perf_counter()
        if batch_size == 1:
            verdicts = [engine.inspect(queries[0], context)]
        else:
            verdicts = engine.inspect_batch(queries, context)
        elapsed = time.perf_counter() - t0
        latencies.extend([elapsed / len(block)] * len(block))
        safeties.extend(v.safe for v in verdicts)
    return latencies, safeties, time.perf_counter() - wall0


def serialization_ablation(requests, batch_size: int = GATE_BATCH) -> dict:
    """Packed frame codec vs pickle, same batch payloads, codec time only."""
    queries = [q for q, __, __ in requests[:batch_size]]
    spans = [
        (True, None, wire.spans_from_tokens(critical_tokens(q))) for q in queries
    ]
    deltas = {stage: 0.001 for stage in wire.STAGES}
    legacy_reply = [
        (safe, from_cache, critical_tokens(q), deltas)
        for q, (safe, from_cache, __) in zip(queries, spans)
    ]
    rounds = 2000

    def timed(fn) -> float:
        t0 = time.perf_counter()
        for __ in range(rounds):
            fn()
        return (time.perf_counter() - t0) / rounds

    packed_request = timed(
        lambda: wire.unpack_batch_request(bytes(wire.pack_batch_request(queries)))
    )
    pickled_request = timed(lambda: pickle.loads(pickle.dumps(queries)))
    packed_reply = timed(
        lambda: wire.unpack_batch_reply(bytes(wire.pack_batch_reply(spans, deltas)))
    )
    pickled_reply = timed(lambda: pickle.loads(pickle.dumps(legacy_reply)))
    frame_bytes = len(wire.pack_batch_request(queries)) + len(
        wire.pack_batch_reply(spans, deltas)
    )
    pickle_bytes = len(pickle.dumps(queries)) + len(pickle.dumps(legacy_reply))
    return {
        "batch_size": batch_size,
        "packed_roundtrip_us": (packed_request + packed_reply) * 1e6,
        "pickle_roundtrip_us": (pickled_request + pickled_reply) * 1e6,
        "codec_speedup": (pickled_request + pickled_reply)
        / max(packed_request + packed_reply, 1e-12),
        "packed_bytes": frame_bytes,
        "pickle_bytes": pickle_bytes,
    }


def run_batch_bench(*, shapes: int, requests: int, seed: int, smoke: bool) -> dict:
    templates = make_templates(shapes)
    fragments = sorted({f for t in templates for f in t["fragments"]})
    warm_requests = build_requests(templates, shapes * 4, seed + 1, attack_every=0)
    timed_requests = build_requests(templates, requests, seed)
    expected_attacks = sum(1 for *__, is_attack in timed_requests if is_attack)

    ladder: dict[str, dict] = {}
    reference_safe: list[bool] | None = None
    parity = True
    for batch_size in BATCH_SIZES:
        engine = make_engine(fragments)
        try:
            # Warm the child's structure cache so both modes measure a
            # steady-state pipe, not first-touch analysis.
            drive_batched(engine, warm_requests, batch_size)
            latencies, safeties, wall = drive_batched(
                engine, timed_requests, batch_size
            )
            snapshot = engine.daemon.resilience_snapshot()
        finally:
            engine.daemon.close()
        if reference_safe is None:
            reference_safe = safeties
        elif safeties != reference_safe:
            parity = False
        ladder[str(batch_size)] = {
            "qps": len(timed_requests) / wall,
            "latency_seconds": latency_summary(latencies),
            "p50_us": percentile(latencies, 0.50) * 1e6,
            "p99_us": percentile(latencies, 0.99) * 1e6,
            "blocked": sum(1 for safe in safeties if not safe),
            "daemon_batches": snapshot.get("batches", 0),
            "daemon_corrupt_replies": snapshot.get("corrupt_replies", 0),
        }

    cpus = os.cpu_count() or 1
    if smoke or cpus == 1:
        gate = SMOKE_GATE
    else:
        gate = FULL_GATE
    speedup = ladder[str(GATE_BATCH)]["qps"] / max(ladder["1"]["qps"], 1e-9)
    return {
        "config": {
            "mode": "smoke" if smoke else "full",
            "shapes": shapes,
            "requests": requests,
            "seed": seed,
            "batch_sizes": list(BATCH_SIZES),
            "gate_batch": GATE_BATCH,
            "gate_min_qps_speedup": gate,
            "cpu_count": cpus,
            "gate_note": (
                "single-CPU host: parent and daemon child serialise on one "
                "core, so the full gate relaxes to the smoke threshold"
                if not smoke and cpus == 1
                else None
            ),
        },
        "ladder": ladder,
        "speedup_qps_batch16_vs_1": speedup,
        "verdicts": {
            "expected_attacks": expected_attacks,
            "parity": parity,
        },
        "ablation_serialization": serialization_ablation(timed_requests),
    }


def check_gates(payload: dict) -> list[str]:
    failures = []
    gate = payload["config"]["gate_min_qps_speedup"]
    speedup = payload["speedup_qps_batch16_vs_1"]
    if speedup < gate:
        failures.append(f"batch=16 qps speedup {speedup:.2f}x below gate {gate}x")
    if not payload["verdicts"]["parity"]:
        failures.append("batch sizes disagreed on verdicts")
    expected = payload["verdicts"]["expected_attacks"]
    for size, row in payload["ladder"].items():
        if row["blocked"] < expected:
            failures.append(
                f"batch={size} blocked {row['blocked']} < {expected} injected attacks"
            )
        if row["daemon_corrupt_replies"]:
            failures.append(f"batch={size} saw corrupt daemon replies")
    return failures


def render(payload: dict) -> str:
    pairs = [
        ("mode", payload["config"]["mode"]),
        (
            "shapes / requests",
            f"{payload['config']['shapes']} / {payload['config']['requests']}",
        ),
    ]
    for size in payload["config"]["batch_sizes"]:
        row = payload["ladder"][str(size)]
        pairs.append(
            (
                f"batch={size} qps | p50/p99 (us)",
                f"{row['qps']:.0f} | {row['p50_us']:.1f} / {row['p99_us']:.1f}",
            )
        )
    ablation = payload["ablation_serialization"]
    pairs.extend(
        [
            (
                "qps speedup batch=16 vs 1",
                f"{payload['speedup_qps_batch16_vs_1']:.2f}x "
                f"(gate {payload['config']['gate_min_qps_speedup']}x)",
            ),
            (
                "codec: packed vs pickle (us/batch)",
                f"{ablation['packed_roundtrip_us']:.1f} vs "
                f"{ablation['pickle_roundtrip_us']:.1f} "
                f"({ablation['codec_speedup']:.2f}x)",
            ),
            (
                "codec bytes: packed vs pickle",
                f"{ablation['packed_bytes']} vs {ablation['pickle_bytes']}",
            ),
        ]
    )
    return render_kv("Batched daemon pipe: qps by batch size", pairs)


# ---------------------------------------------------------------------------
# pytest entry point (smoke-sized; the batch-smoke CI gate)
# ---------------------------------------------------------------------------


def test_batch_throughput_smoke(benchmark):
    payload = run_batch_bench(shapes=8, requests=256, seed=1337, smoke=True)
    try:
        from conftest import RESULTS_DIR, emit

        emit("batch_throughput", render(payload))
        save_json(SIDE_CAR, payload, results_dir=RESULTS_DIR)
    except ImportError:  # pragma: no cover - running outside benchmarks/
        pass
    failures = check_gates(payload)
    assert not failures, failures

    # Timed representative operation: one batched exchange of 16 queries.
    templates = make_templates(4)
    fragments = sorted({f for t in templates for f in t["fragments"]})
    engine = make_engine(fragments)
    requests = build_requests(templates, GATE_BATCH, 7, attack_every=0)
    queries = [q for q, __, __ in requests]
    context = ctx(["1"])
    engine.inspect_batch(queries, context)
    try:
        benchmark(lambda: engine.inspect_batch(queries, context))
    finally:
        engine.daemon.close()


# ---------------------------------------------------------------------------
# Script entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized workload with the looser 1.5x qps gate",
    )
    parser.add_argument("--shapes", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--seed", type=int, default=1337)
    args = parser.parse_args(argv)
    shapes = args.shapes or (8 if args.smoke else 24)
    requests = args.requests or (256 if args.smoke else 2048)

    payload = run_batch_bench(
        shapes=shapes, requests=requests, seed=args.seed, smoke=args.smoke
    )
    print(render(payload))
    path = save_json(SIDE_CAR, payload)
    print(f"[sidecar saved to {path}]")

    failures = check_gates(payload)
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"gates passed: batch=16 qps speedup "
            f"{payload['speedup_qps_batch16_vs_1']:.2f}x >= "
            f"{payload['config']['gate_min_qps_speedup']}x, verdict parity"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
