"""Multi-tenant fragment-state scaling bench (DESIGN.md section 13).

One claim of the sharded tenancy design, gated: **interning wins the
memory game** -- provisioning N tenants over a WordPress-core-sized shared
base through :class:`TenantRegistry` (interned base store + composite
automatons) costs >= ``GATE_MEMORY``x less heap than N naive per-tenant
copies (dedicated ``FragmentStore`` + compiled automaton each), measured
with tracemalloc.

The reload-storm latency claim (storm p99 <= 2x quiescent) is withdrawn:
once driven to 8 reloads on warm caches it read 2.2-3.3x.  Its
correctness half (no attack answered safe mid-storm, post-storm verdicts
byte-identical to a dedicated engine) is
``tests/property/test_tenancy_properties.py``.

The machine-readable sidecar lands in
``benchmarks/results/BENCH_tenant_scale.json``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_tenant_scale.py [--smoke]
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc

from repro.bench.reporting import render_kv, save_json
from repro.core import JozaEngine
from repro.phpapp.context import CapturedInput, RequestContext
from repro.pti.fragments import FragmentStore
from repro.tenancy import TenantRegistry

SIDE_CAR = "BENCH_tenant_scale"

GATE_MEMORY = 5.0  # full-run interning ratio floor (smoke: 3.0)
GATE_SMOKE_MEMORY = 3.0


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


# ---------------------------------------------------------------------------
# Memory: naive per-tenant copies vs interned registry
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
# Harness
# ---------------------------------------------------------------------------


def run_tenant_scale_bench(*, smoke: bool) -> dict:
    if smoke:
        base = wordpress_core_fragments(80)
        memory = measure_memory(base, tenants=24, overlay_size=4)
        memory_gate = GATE_SMOKE_MEMORY
    else:
        base = wordpress_core_fragments(300)
        memory = measure_memory(base, tenants=120, overlay_size=6)
        memory_gate = GATE_MEMORY
    return {
        "benchmark": SIDE_CAR,
        "config": {
            "mode": "smoke" if smoke else "full",
            "gate_memory_ratio": memory_gate,
        },
        "memory": memory,
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
    return failures


def render(payload: dict) -> str:
    memory = payload["memory"]
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
    ]
    return render_kv(
        "Tenant scale: interned snapshot replication", pairs
    )


# ---------------------------------------------------------------------------
# pytest entry point (smoke-sized)
# ---------------------------------------------------------------------------


def test_tenant_scale_smoke(benchmark):
    payload = run_tenant_scale_bench(smoke=True)
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
    query, values = "SELECT * FROM wp_posts WHERE ID=7 LIMIT 5", ["7"]
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
    args = parser.parse_args(argv)
    payload = run_tenant_scale_bench(smoke=args.smoke)
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
