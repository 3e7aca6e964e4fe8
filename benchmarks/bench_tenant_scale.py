"""Multi-tenant fragment-state scaling bench (DESIGN.md section 13).

Two claims of the sharded tenancy design, each gated:

1. **Interning wins the memory game** -- provisioning N tenants over a
   WordPress-core-sized shared base through :class:`TenantRegistry`
   (interned base store + composite automatons) costs >= ``GATE_MEMORY``x
   less heap than N naive per-tenant copies (dedicated ``FragmentStore``
   + compiled automaton each), measured with tracemalloc.
2. **Reload storms don't tax the fleet** -- while tenant overlays are
   rolling-reloaded (warm handoff) in a background thread, inspect p99
   stays <= ``GATE_STORM_P99``x the quiescent p99, with zero fail-open
   verdicts and zero cross-tenant divergences (every tenant's post-storm
   verdicts byte-identical to a dedicated single-tenant engine over its
   final vocabulary).

The machine-readable sidecar lands in
``benchmarks/results/BENCH_tenant_scale.json``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_tenant_scale.py [--smoke]
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
import tracemalloc

from repro.bench.reporting import render_kv, save_json
from repro.core import JozaEngine
from repro.phpapp.context import CapturedInput, RequestContext
from repro.pti.fragments import FragmentStore
from repro.service.codec import encode_verdict, verdict_to_dict
from repro.tenancy import TenantRegistry

SIDE_CAR = "BENCH_tenant_scale"

GATE_MEMORY = 5.0  # full-run interning ratio floor (smoke: 3.0)
GATE_SMOKE_MEMORY = 3.0
GATE_STORM_P99 = 2.0  # storm p99 <= 2x quiescent p99

#: (query template over the base vocabulary, input values, is_attack).
MATRIX = [
    ("SELECT * FROM wp_posts WHERE ID=7 LIMIT 5", ["7"], False),
    ("SELECT user_login FROM wp_users WHERE ID=3 LIMIT 1", ["3"], False),
    (
        "SELECT user_login FROM wp_users WHERE ID=1 OR 1=1 LIMIT 1",
        ["1 OR 1=1"],
        True,
    ),
    (
        "SELECT * FROM wp_posts WHERE ID=7 UNION SELECT user_pass FROM"
        " wp_users LIMIT 5",
        ["7 UNION SELECT user_pass FROM wp_users"],
        True,
    ),
]


def wordpress_core_fragments(count: int) -> list[str]:
    """A synthetic WordPress-core-shaped base vocabulary of ``count``
    fragments (deterministic; realistic prefix/suffix mix)."""
    tables = [
        "wp_posts", "wp_users", "wp_options", "wp_comments", "wp_terms",
        "wp_postmeta", "wp_usermeta", "wp_links", "wp_term_taxonomy",
    ]
    columns = [
        "ID", "post_author", "post_date", "post_status", "user_login",
        "option_name", "comment_approved", "meta_key", "term_id", "slug",
    ]
    fragments = [
        "SELECT * FROM wp_posts WHERE ID=",
        "SELECT user_login FROM wp_users WHERE ID=",
        " LIMIT 5",
        " LIMIT 1",
        " ORDER BY post_date DESC",
    ]
    i = 0
    while len(fragments) < count:
        table = tables[i % len(tables)]
        column = columns[(i // len(tables)) % len(columns)]
        fragments.append(
            f"SELECT {column} FROM {table} WHERE {columns[i % len(columns)]}="
            f" /* core-{i} */ "
        )
        i += 1
    return fragments[:count]


def tenant_overlay(index: int, size: int) -> list[str]:
    """Per-tenant plugin delta: ``size`` fragments unique to the tenant."""
    return [
        f"SELECT v FROM plugin_t{index}_table{j} WHERE k{j}="
        for j in range(size)
    ]


def ctx(values):
    return RequestContext(
        inputs=[CapturedInput("get", f"p{i}", v) for i, v in enumerate(values)]
    )


def percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1)))
    return ordered[index]


# ---------------------------------------------------------------------------
# 1. Memory: naive per-tenant copies vs interned registry
# ---------------------------------------------------------------------------


def measure_memory(base: list[str], tenants: int, overlay_size: int) -> dict:
    overlays = [tenant_overlay(i, overlay_size) for i in range(tenants)]

    tracemalloc.start()
    naive = []
    before, _ = tracemalloc.get_traced_memory()
    for overlay in overlays:
        store = FragmentStore(list(base) + overlay)
        automaton, _ = store.compiled_automaton()
        naive.append((store, automaton))
    after, _ = tracemalloc.get_traced_memory()
    naive_bytes = after - before
    del naive
    tracemalloc.stop()

    tracemalloc.start()
    registry = TenantRegistry(base)
    before, _ = tracemalloc.get_traced_memory()
    for i, overlay in enumerate(overlays):
        store = registry.add_tenant(f"tenant-{i}", overlay)
        store.compiled_automaton()  # composite: shared base + tiny overlay
    after, _ = tracemalloc.get_traced_memory()
    interned_bytes = after - before
    tracemalloc.stop()

    report = registry.tenancy_report()
    return {
        "tenants": tenants,
        "base_fragments": len(base),
        "overlay_fragments_per_tenant": overlay_size,
        "naive_bytes_total": naive_bytes,
        "naive_bytes_per_tenant": naive_bytes / tenants,
        "interned_bytes_total": interned_bytes,
        "interned_bytes_per_tenant": interned_bytes / tenants,
        "memory_ratio": (
            naive_bytes / interned_bytes if interned_bytes > 0 else float("inf")
        ),
        "interned_fragments": report["interned_fragments"],
        "private_fragments": report["private_fragments"],
    }


# ---------------------------------------------------------------------------
# 2. Rolling reload storm: p99, fail-open, divergence
# ---------------------------------------------------------------------------


def run_storm(
    base: list[str],
    tenants: int,
    overlay_size: int,
    inspects_per_phase: int,
    reload_pace: float,
) -> dict:
    registry = TenantRegistry(base)
    engines = {}
    for i in range(tenants):
        store = registry.add_tenant(
            f"tenant-{i}", tenant_overlay(i, overlay_size)
        )
        engines[f"tenant-{i}"] = JozaEngine(store)
    tenant_ids = list(engines)

    fail_open = 0

    def drive(samples: list[float]) -> None:
        nonlocal fail_open
        for i in range(inspects_per_phase):
            tenant_id = tenant_ids[i % len(tenant_ids)]
            query, values, is_attack = MATRIX[i % len(MATRIX)]
            t0 = time.perf_counter()
            verdict = engines[tenant_id].inspect_batch([query], ctx(values))[0]
            samples.append(time.perf_counter() - t0)
            if is_attack and verdict.safe:
                fail_open += 1

    quiescent: list[float] = []
    drive(quiescent)

    # Rolling reload storm: a control-plane thread re-overlays tenants
    # round-robin (warm handoff each time) while the data plane keeps
    # inspecting.
    stop = threading.Event()
    reloads = {"count": 0}

    def storm() -> None:
        generation = 0
        while not stop.is_set():
            tenant_id = tenant_ids[reloads["count"] % len(tenant_ids)]
            generation += 1
            store = registry.reload_tenant(
                tenant_id,
                tenant_overlay(
                    tenant_ids.index(tenant_id), overlay_size
                )[:-1]
                + [f"SELECT v FROM plugin_reloaded_g{generation} WHERE k="],
            )
            engines[tenant_id].daemon.refresh_fragments(store)
            reloads["count"] += 1
            if reload_pace > 0:
                time.sleep(reload_pace)

    stormy: list[float] = []
    thread = threading.Thread(target=storm, daemon=True)
    thread.start()
    try:
        drive(stormy)
    finally:
        stop.set()
        thread.join(timeout=10.0)

    # Divergence: every tenant's post-storm verdicts must be
    # byte-identical to a dedicated engine over its *final* vocabulary.
    # The reference engine is warmed with the same matrix first so both
    # sides serve from equally-warm caches (cache-hit verdicts elide
    # markings by design; comparing a warm engine to a cold one would
    # flag that, not a tenancy bug).  Twice: shape plans are admitted on
    # a shape's second sighting.
    divergences = 0
    for tenant_id in tenant_ids:
        store = registry.get(tenant_id)
        dedicated = JozaEngine.from_fragments(list(store.fragments))
        for __ in range(2):
            for query, values, _ in MATRIX:  # warm the reference caches
                dedicated.inspect_batch([query], ctx(values))
            for query, values, _ in MATRIX:  # warm the tenant engine post-storm
                engines[tenant_id].inspect_batch([query], ctx(values))
        for query, values, is_attack in MATRIX:
            mine = engines[tenant_id].inspect_batch([query], ctx(values))[0]
            theirs = dedicated.inspect_batch([query], ctx(values))[0]
            if encode_verdict(verdict_to_dict(mine)) != encode_verdict(
                verdict_to_dict(theirs)
            ):
                divergences += 1
            if is_attack and mine.safe:
                fail_open += 1

    report = registry.tenancy_report()
    return {
        "tenants": tenants,
        "inspects_per_phase": inspects_per_phase,
        "reloads_during_storm": reloads["count"],
        "quiescent_p50": percentile(quiescent, 0.50),
        "quiescent_p99": percentile(quiescent, 0.99),
        "storm_p50": percentile(stormy, 0.50),
        "storm_p99": percentile(stormy, 0.99),
        "storm_p99_ratio": (
            percentile(stormy, 0.99) / percentile(quiescent, 0.99)
            if percentile(quiescent, 0.99) > 0
            else 0.0
        ),
        "fail_open": fail_open,
        "divergences": divergences,
        "handoff_swaps": report["handoff_swaps"],
    }


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def run_tenant_scale_bench(*, smoke: bool, seed: int) -> dict:
    if smoke:
        base = wordpress_core_fragments(80)
        memory = measure_memory(base, tenants=24, overlay_size=4)
        storm = run_storm(
            base,
            tenants=8,
            overlay_size=4,
            inspects_per_phase=120,
            reload_pace=0.002,
        )
        memory_gate = GATE_SMOKE_MEMORY
    else:
        base = wordpress_core_fragments(300)
        memory = measure_memory(base, tenants=120, overlay_size=6)
        storm = run_storm(
            base,
            tenants=24,
            overlay_size=6,
            inspects_per_phase=600,
            reload_pace=0.001,
        )
        memory_gate = GATE_MEMORY
    return {
        "benchmark": SIDE_CAR,
        "config": {
            "mode": "smoke" if smoke else "full",
            "seed": seed,
            "gate_memory_ratio": memory_gate,
            "gate_storm_p99_ratio": GATE_STORM_P99,
        },
        "memory": memory,
        "storm": storm,
    }


def check_gates(payload: dict) -> list[str]:
    failures = []
    memory = payload["memory"]
    gate = payload["config"]["gate_memory_ratio"]
    if memory["memory_ratio"] < gate:
        failures.append(
            f"interning memory ratio {memory['memory_ratio']:.2f}x "
            f"< {gate}x at {memory['tenants']} tenants"
        )
    storm = payload["storm"]
    if storm["fail_open"] != 0:
        failures.append(f"{storm['fail_open']} fail-open verdicts in storm")
    if storm["divergences"] != 0:
        failures.append(
            f"{storm['divergences']} cross-tenant verdict divergences"
        )
    if storm["storm_p99_ratio"] > GATE_STORM_P99:
        failures.append(
            f"storm p99 {storm['storm_p99_ratio']:.2f}x quiescent "
            f"> {GATE_STORM_P99}x"
        )
    return failures


def render(payload: dict) -> str:
    memory, storm = payload["memory"], payload["storm"]
    pairs = [
        (
            "memory / tenant (naive)",
            f"{memory['naive_bytes_per_tenant'] / 1024:.1f} KiB",
        ),
        (
            "memory / tenant (interned)",
            f"{memory['interned_bytes_per_tenant'] / 1024:.1f} KiB",
        ),
        (
            "interning ratio",
            f"{memory['memory_ratio']:.1f}x over {memory['tenants']} tenants "
            f"(gate {payload['config']['gate_memory_ratio']}x)",
        ),
        (
            "storm p99 vs quiescent",
            f"{storm['storm_p99']*1e3:.2f} ms vs "
            f"{storm['quiescent_p99']*1e3:.2f} ms "
            f"({storm['storm_p99_ratio']:.2f}x, gate {GATE_STORM_P99}x)",
        ),
        (
            "storm outcome",
            f"{storm['reloads_during_storm']} reloads / "
            f"{storm['fail_open']} fail-open / "
            f"{storm['divergences']} divergences",
        ),
    ]
    return render_kv(
        "Tenant scale: interned snapshot replication", pairs
    )


# ---------------------------------------------------------------------------
# pytest entry point (smoke-sized)
# ---------------------------------------------------------------------------


def test_tenant_scale_smoke(benchmark):
    payload = run_tenant_scale_bench(smoke=True, seed=1337)
    try:
        from conftest import RESULTS_DIR, emit

        emit("tenant_scale", render(payload))
        save_json(SIDE_CAR, payload, results_dir=RESULTS_DIR)
    except ImportError:  # pragma: no cover - running outside benchmarks/
        pass
    failures = check_gates(payload)
    assert not failures, failures

    # Timed representative operation: one tenant checkout + inspect over
    # interned state.
    registry = TenantRegistry(wordpress_core_fragments(80))
    engine = JozaEngine(registry.add_tenant("bench", tenant_overlay(0, 4)))
    query, values, _ = MATRIX[0]
    engine.inspect_batch([query], ctx(values))  # warm
    benchmark(lambda: engine.inspect_batch([query], ctx(values)))


# ---------------------------------------------------------------------------
# Script entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized workload (fewer tenants, smaller base)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=int(os.environ.get("CHAOS_SEED", "1337")),
    )
    args = parser.parse_args(argv)
    payload = run_tenant_scale_bench(smoke=args.smoke, seed=args.seed)
    print(render(payload))
    path = save_json(SIDE_CAR, payload)
    print(f"[sidecar saved to {path}]")
    failures = check_gates(payload)
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    if not failures:
        print("all gates passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
