"""Durability recovery and checkpoint-storm benchmark (DESIGN.md section 15).

Two measurements, each gated:

1. **Recovery time at wp.com fragment scale** -- ``recover()`` of a
   crashed state dir whose checkpoint holds a wp.com-sized base
   vocabulary (~12k fragments) plus a journal of tenant overlay reloads
   and audit events.  Gate: recovery completes in seconds, not minutes
   (restart SLA).
2. **Checkpoint storm vs quiescent** -- p99 append latency when every
   few records force a full checkpoint (compaction in the write path)
   vs a quiescent journal.  Gate: a storming checkpoint cadence degrades
   bounded -- p99 stays under an absolute ceiling, so a misconfigured
   ``--checkpoint-every`` brows out latency, it does not stall the guard.

The journal's cost on the request path is observed by perfbench's traced
``gateway_tenants`` runs (``persist.appends``, ``persist.append_us``).

Usage::

    PYTHONPATH=src python benchmarks/bench_durability.py [--smoke]

Writes ``benchmarks/results/BENCH_durability.json`` (consumed by the CI
``durability-smoke`` job) plus the human-facing rendering.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time

from repro.bench.reporting import latency_summary, render_kv, save_json
from repro.persist import DurableState, FsyncPolicy, recover

SIDE_CAR = "BENCH_durability"

GATE_RECOVERY_SECONDS = 10.0  # wp.com-scale restart SLA
GATE_STORM_P99_SECONDS = 0.25  # bounded degradation under storming cadence


def measure_recovery(*, fragments: int, mutations: int, audits: int) -> dict:
    """Time recover() of a crashed wp.com-scale state directory.

    ``mutations`` tenant overlay reloads (one record per tenant) and
    ``audits`` audit events sit in the journal on top of the checkpointed
    base vocabulary, so every recovery replays all of them.
    """
    vocabulary = [
        f"SELECT col_{i} FROM wp_table_{i % 37} WHERE k_{i % 11} = "
        for i in range(fragments)
    ]
    tmpdir = tempfile.mkdtemp(prefix="joza-bench-rec-")
    try:
        state = DurableState(
            tmpdir, seed_fragments=vocabulary, fsync=FsyncPolicy.NEVER
        )
        for i in range(mutations):
            state.set_overlay(
                f"tenant-{i}", [f"SELECT late_{i} FROM t WHERE id = "]
            )
        for i in range(audits):
            state.append_audit(
                {"query": f"1 OR {i}={i}", "client": "bench", "n": i}
            )
        state.abandon()  # crash-shaped: recovery must replay the journal

        timings = []
        for _ in range(3):
            started = time.perf_counter()
            recovered = recover(tmpdir)
            timings.append(time.perf_counter() - started)
        assert len(recovered.fragments) == fragments
        assert len(recovered.overlays) == mutations
        assert len(recovered.audit) == audits
        checkpoint_bytes = os.path.getsize(
            os.path.join(tmpdir, "checkpoint.jz")
        )
        return {
            "fragments": fragments,
            "journal_mutations": mutations,
            "journal_audits": audits,
            "checkpoint_bytes": checkpoint_bytes,
            "recovery_seconds": min(timings),
            "replayed_records": recovered.replayed_records,
            "source": recovered.source,
        }
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def measure_checkpoint_storm(*, appends: int) -> dict:
    """p99 append latency under storming vs quiescent checkpoint cadence."""
    seed = [f"SELECT s{i} FROM t WHERE id = " for i in range(256)]
    legs = {}
    for leg, cadence in (("quiescent", 1_000_000_000), ("storm", 8)):
        tmpdir = tempfile.mkdtemp(prefix="joza-bench-storm-")
        state = DurableState(
            tmpdir,
            seed_fragments=seed,
            fsync=FsyncPolicy.BATCH,
            checkpoint_every=cadence,
        )
        latencies = []
        for i in range(appends):
            started = time.perf_counter()
            state.append_audit({"q": f"1 OR {i}={i}", "n": i})
            state.maybe_checkpoint()
            latencies.append(time.perf_counter() - started)
        summary = latency_summary(latencies)
        summary["checkpoints_written"] = state.durability_report()[
            "checkpoints_written"
        ]
        state.close()
        shutil.rmtree(tmpdir, ignore_errors=True)
        legs[leg] = summary
    quiescent_p99 = legs["quiescent"]["p99"]
    return {
        "appends": appends,
        "quiescent": legs["quiescent"],
        "storm": legs["storm"],
        "storm_vs_quiescent_p99": (
            legs["storm"]["p99"] / quiescent_p99 if quiescent_p99 else 0.0
        ),
    }


def run_durability_bench(*, smoke: bool) -> dict:
    scale = dict(
        fragments=2_000 if smoke else 12_000,
        mutations=100 if smoke else 400,
        audits=100 if smoke else 400,
        appends=400 if smoke else 4_000,
    )
    return {
        "benchmark": SIDE_CAR,
        "mode": "smoke" if smoke else "full",
        "fsync_policy": "batch",
        "recovery": measure_recovery(
            fragments=scale["fragments"],
            mutations=scale["mutations"],
            audits=scale["audits"],
        ),
        "checkpoint_storm": measure_checkpoint_storm(appends=scale["appends"]),
        "gates": {
            "recovery_seconds": GATE_RECOVERY_SECONDS,
            "storm_p99_seconds": GATE_STORM_P99_SECONDS,
        },
    }


def check_gates(payload: dict) -> list[str]:
    failures = []
    recovery = payload["recovery"]["recovery_seconds"]
    if recovery >= GATE_RECOVERY_SECONDS:
        failures.append(
            f"recovery took {recovery:.2f}s >= {GATE_RECOVERY_SECONDS}s at "
            f"{payload['recovery']['fragments']} fragments"
        )
    storm_p99 = payload["checkpoint_storm"]["storm"]["p99"]
    if storm_p99 >= GATE_STORM_P99_SECONDS:
        failures.append(
            f"checkpoint-storm p99 {storm_p99 * 1000:.1f}ms >= "
            f"{GATE_STORM_P99_SECONDS * 1000:.0f}ms ceiling"
        )
    return failures


def render(payload: dict) -> str:
    recovery = payload["recovery"]
    storm = payload["checkpoint_storm"]
    pairs = [
        ("mode", payload["mode"]),
        (
            "recovery at scale",
            f"{recovery['fragments']} fragments + "
            f"{recovery['replayed_records']} replayed records in "
            f"{recovery['recovery_seconds'] * 1000:.1f} ms "
            f"({recovery['checkpoint_bytes']} checkpoint bytes, gate <"
            f"{GATE_RECOVERY_SECONDS}s)",
        ),
        (
            "checkpoint storm p99",
            f"{storm['storm']['p99'] * 1000:.3f} ms vs quiescent "
            f"{storm['quiescent']['p99'] * 1000:.3f} ms "
            f"({storm['storm']['checkpoints_written']:.0f} checkpoints "
            f"in {storm['appends']} appends, gate <"
            f"{GATE_STORM_P99_SECONDS * 1000:.0f}ms)",
        ),
    ]
    return render_kv("Durability: recovery, checkpoint storm", pairs)


# ---------------------------------------------------------------------------
# pytest entry point (smoke-sized; the CI durability gate)
# ---------------------------------------------------------------------------


def test_durability_bench_smoke(benchmark):
    payload = run_durability_bench(smoke=True)
    try:
        from conftest import RESULTS_DIR, emit

        emit("durability", render(payload))
        save_json(SIDE_CAR, payload, results_dir=RESULTS_DIR)
    except ImportError:  # pragma: no cover - running outside benchmarks/
        pass
    failures = check_gates(payload)
    assert not failures, failures

    # Timed representative operation: one durable audit append riding the
    # group commit (journal-first, in-memory tail second).
    tmpdir = tempfile.mkdtemp(prefix="joza-bench-append-")
    state = DurableState(tmpdir, fsync=FsyncPolicy.BATCH)
    counter = iter(range(10_000_000))
    try:
        benchmark(
            lambda: state.append_audit({"q": "1 OR 1=1", "n": next(counter)})
        )
    finally:
        state.close()
        shutil.rmtree(tmpdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Script entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized workload (2k-fragment recovery, fewer appends)",
    )
    args = parser.parse_args(argv)

    payload = run_durability_bench(smoke=args.smoke)
    print(render(payload))
    path = save_json(SIDE_CAR, payload)
    print(f"[sidecar saved to {path}]")

    failures = check_gates(payload)
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"gates passed: recovery "
            f"{payload['recovery']['recovery_seconds']:.3f}s, storm p99 "
            f"{payload['checkpoint_storm']['storm']['p99'] * 1000:.2f}ms"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
