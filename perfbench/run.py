#!/usr/bin/env python3
"""The guard benchmark: one workload, one seed, one timed (or traced) run.

Usage, from the repository root::

    python3 perfbench/run.py --workload wp_mix --seed 1 --seconds 10 --trace 0

Workloads (see ``README.md`` and ``BENCHMARK.json`` for why each exists):

- ``wp_mix``: WordPress testbed traffic with ~2% crafted exploits, replayed
  in process through ``JozaEngine.inspect`` one query at a time.
- ``cold_wpcom``: a 12k-fragment wp.com-scale store; uniform traffic over
  far more query shapes than any cache holds; 16-64 inputs per request;
  plain, NTI-evasion and Taintless attacks.  In process.
- ``gateway_tenants``: the WordPress mix through an unpaced
  ``AsyncGateway`` in its own process (unix socket, 2 workers, 4 tenants,
  durable state at ``fsync=batch``) from 2 client connections, with a
  ``reload_tenant`` overlay write every 100 requests.  Not in
  ``BENCHMARK.json``: its figures did not repeat on the development host.

Each run generates its inputs from ``--seed``, sets up the guard several
times (``setup_s`` is the median), replays a verification pass that also
warms the caches, then measures a closed loop and a fixed-rate open loop
for ``--seconds`` in total.  Every verdict is checked against the
generator's labels; a fail-open aborts the run (exit code 3) with the
offending query.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``metrics`` holds
the end-to-end metrics (``--trace 0``) or the per-layer metrics of the
traced run (``--trace 1``).  The lines before it report the rest: seed,
``cpu_count``, commit and source digest, verdict digest, open-loop
latency, ``fail_frac`` and ``slo_miss_frac``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Every end-to-end metric, in ``BENCHMARK.json`` order: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("lat_p50_us", "us"),
    ("lat_p95_us", "us"),
    ("throughput_rps", "1/s"),
    ("cpu_us_per_req", "us"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Put the checkout's ``src/`` first on the path; exit 2 if it is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {src}/repro is missing", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [src, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def source_digest() -> str:
    """Short SHA-256 of every file under ``src/`` (a commit stand-in)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def clean_work_dir(work: str, keep=("traces",)) -> None:
    if not os.path.isdir(work):
        return
    for entry in os.listdir(work):
        if entry in keep:
            continue
        path = os.path.join(work, entry)
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path, ignore_errors=True)
        else:
            with contextlib.suppress(OSError):
                os.remove(path)


def us(seconds: float) -> float:
    return seconds * 1e6


def set_up(workload, reps: int, work: str, *, traced: bool):
    from perfbench import drive

    if workload.name == "gateway_tenants":
        template = drive.prepare_gateway_state(workload, work)
        return drive.setup_gateway(workload, reps, work, template, traced=traced)
    return drive.setup_in_process(workload, reps, split_build=traced)


def close_guard(guard) -> list[str]:
    """Stop the guard; returns problems (unclean drain, surviving processes).

    A process that survives the drain is reported and killed, so a run
    never leaves one behind.
    """
    pids = guard.pids()
    problems = []
    if guard.close() is False:
        problems.append("gateway drain was not clean")
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            continue
        problems.append(f"process {pid} survived the drain (killed)")
    return problems


def timed_run(workload, args, work: str, report: list[str]) -> tuple[dict, object]:
    from perfbench import config, drive
    from perfbench.oracle import Oracle

    oracle = Oracle()
    setup_refs = [drive.reference_seconds() for __ in range(3)]
    guard, setup_times, __ = set_up(workload, config.SETUP_REPS[workload.name], work, traced=False)
    setup_refs += [drive.reference_seconds() for __ in range(3)]
    try:
        sampler = drive.Sampler(guard)
        sampler.sample()
        digest = drive.verification_pass(guard, workload, oracle)
        gc.collect()
        sampler.sample()
        first = len(sampler.reference) - 1
        counter = itertools.count(len(workload.warm))
        closed_s = args.seconds * config.CLOSED_SHARE
        cpu0 = guard.cpu_seconds()
        latencies, ends, t_start = drive.closed_loop(
            guard, workload.timed, oracle, closed_s, counter, sampler
        )
        cpu_s = guard.cpu_seconds() - cpu0
        sampler.sample()
        closed_refs = sampler.reference[first:]
        gc.collect()
        open_cfg = config.OPEN_LOOP[workload.name]
        open_lat, lateness, open_failed = drive.open_loop(
            guard, workload.timed, oracle, args.seconds - closed_s,
            open_cfg["rate"], counter, sampler,
        )
        sampler.sample()
    finally:
        problems = close_guard(guard)
    raw = {
        "setup_s": statistics.median(setup_times),
        "lat_p50_us": us(drive.windowed_percentile(latencies, 0.50)),
        "lat_p95_us": us(drive.windowed_percentile(latencies, 0.95)),
        "throughput_rps": drive.windowed_rate(t_start, ends),
        "cpu_us_per_req": us(cpu_s / len(ends)),
    }
    # Host speed: >1 means this run's host was slower than the reference.
    setup_slow = us(statistics.median(setup_refs)) / config.REFERENCE_US
    slow = us(statistics.median(closed_refs)) / config.REFERENCE_US
    metrics = {
        "setup_s": raw["setup_s"] / setup_slow,
        "lat_p50_us": raw["lat_p50_us"] / slow,
        "lat_p95_us": raw["lat_p95_us"] / slow,
        "throughput_rps": raw["throughput_rps"] * slow,
        "cpu_us_per_req": raw["cpu_us_per_req"] / slow,
        "peak_rss_mb": sampler.peak_mb,
    }
    limit_s = open_cfg["limit_us"] / 1e6
    misses = sum(1 for lat, bad in zip(open_lat, open_failed) if bad or lat > limit_s)
    open_sorted = sorted(open_lat)

    def tail(values, *quantiles):
        return " ".join(f"p{q:g}={us(drive.percentile(values, q / 100)):.0f}" for q in quantiles)

    report += [
        f"verdict_digest {digest}",
        f"host speed: reference work took {slow:.3f}x its {config.REFERENCE_US:g} us "
        f"during the closed loop ({len(closed_refs)} samples), {setup_slow:.3f}x around "
        f"set-up; time metrics below are divided by that; raw: "
        + " ".join(f"{name}={value:.6g}" for name, value in raw.items()),
        f"setup reps {len(setup_times)}: " + ", ".join(f"{t:.4f}" for t in setup_times) + " s",
        f"closed loop: {len(ends)} requests in {ends[-1] - t_start:.2f} s over "
        f"{guard.connections} connection(s); figures are medians over "
        f"{len(ends) // config.WINDOW} windows of {config.WINDOW}; all samples: "
        + tail(sorted(latencies), 50, 95, 99) + " us",
        f"open loop: {len(open_lat)} requests at {open_cfg['rate']:g} req/s, timed from "
        f"their due times: {tail(open_sorted, 50, 95, 99)} us; generator late p99 "
        f"{us(drive.percentile(sorted(lateness), 0.99)):.0f} us",
        f"slo_miss_frac {misses / max(len(open_lat), 1):.6f} "
        f"({misses} of {len(open_lat)} failed or over {open_cfg['limit_us']:g} us)",
        f"fail_frac {oracle.failed / max(oracle.attempted, 1):.6f} "
        f"({oracle.failed} of {oracle.attempted}: {oracle.transport_errors} transport, "
        f"{oracle.refused} failsafe/degraded, {oracle.false_positives} benign blocked)",
        f"attacks blocked {oracle.attacks_blocked}",
    ]
    report += [f"PROBLEM: {p}" for p in problems]
    return metrics, oracle


def traced_run(workload, args, work: str, report: list[str]) -> tuple[dict, object]:
    from perfbench import config, drive, trace
    from perfbench.oracle import Oracle

    gateway = workload.name == "gateway_tenants"
    oracle = Oracle()
    metrics = {name: 0.0 for name, __ in trace.PER_LAYER + trace.GATEWAY_LAYER}
    guard, __, compiles = set_up(workload, 1, work, traced=True)
    try:
        sampler = drive.Sampler(guard)
        drive.verification_pass(guard, workload, oracle)
        counter = itertools.count(len(workload.warm))
        tracer = trace.Tracer()
        samples: list = []
        delta: dict = {}
        plain_lat: list[float] = []
        traced_lat: list[float] = []
        traced_requests = 0
        snapshot = (
            (lambda: trace.gateway_counters(guard))
            if gateway
            else (lambda: trace.engine_counters(guard.engine))
        )
        targets = trace.gateway_targets if gateway else trace.in_process_targets
        # Untraced and traced chunks alternate, so drift on the host
        # lands on both sides of the overhead comparison.
        chunk = args.seconds * 2 / 3 / 6
        for __ in range(3):
            lat, __, __ = drive.closed_loop(
                guard, workload.timed, oracle, chunk, counter, sampler
            )
            plain_lat += lat
            before = snapshot()
            with trace.patched(targets(tracer, guard, samples)), (
                trace.remote_spans(guard) if gateway else contextlib.nullcontext()
            ):
                lat, ends, __ = drive.closed_loop(
                    guard, workload.timed, oracle, chunk, counter, sampler
                )
            for key, value in trace.counter_delta(before, snapshot()).items():
                delta[key] = delta.get(key, 0.0) + value
            traced_lat += lat
            traced_requests += len(ends)
        open_cfg = config.OPEN_LOOP[workload.name]
        __, lateness, __ = drive.open_loop(
            guard, workload.timed, oracle, args.seconds / 3,
            open_cfg["rate"], counter, sampler,
        )
    finally:
        problems = close_guard(guard)
    metrics.update(trace.self_rows(tracer, traced_requests))
    if gateway:
        metrics.update(
            trace.gateway_layers(delta, traced_requests, samples, metrics["service.rtt_us"])
        )
    else:
        threshold = guard.engine.config.nti.threshold
        metrics.update(trace.in_process_layers(delta, traced_requests, samples, threshold))
    if compiles:
        metrics["pti.automaton.build_s"] = statistics.median(compiles)
    if guard.reload_seconds:
        metrics["tenancy.reload.us"] = us(statistics.mean(guard.reload_seconds))
    metrics["harness.gen_late_p99_us"] = us(drive.percentile(sorted(lateness), 0.99))
    plain_p50 = statistics.median(plain_lat)
    metrics["harness.trace_overhead_pct"] = (
        (statistics.median(traced_lat) - plain_p50) / plain_p50 * 100.0
    )
    os.makedirs(os.path.join(work, "traces"), exist_ok=True)
    trace_path = os.path.join(work, "traces", f"{workload.name}-seed{workload.seed}.jsonl")
    dropped = tracer.write(trace_path)

    total = metrics["harness.traced_request_us"]
    rows_sum = sum(metrics[row] for row in trace.SELF_ROWS)
    report.append(f"traced requests {traced_requests}; per-request self time (us):")
    for row in trace.SELF_ROWS:
        share = metrics[row] / total * 100 if total else 0.0
        report.append(f"  {row:<28} {metrics[row]:12.3f}  {share:6.2f}%")
    report += [
        f"  {'sum of rows':<28} {rows_sum:12.3f}",
        f"  {'traced request latency':<28} {total:12.3f}  (residual {rows_sum - total:+.6f})",
        f"trace overhead {metrics['harness.trace_overhead_pct']:+.2f}% "
        f"(p50 traced vs untraced, {len(traced_lat)} / {len(plain_lat)} samples)",
        f"spans written to {trace_path} ({dropped} not kept)",
    ]
    report += [f"PROBLEM: {p}" for p in problems]
    return metrics, oracle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="generated workload size (tiny: smoke tests only)",
    )
    args = parser.parse_args(argv)
    import_program()
    os.chdir(ROOT)

    from perfbench import config, gen, trace
    from perfbench.oracle import FailOpen

    if args.workload not in config.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {config.WORKLOADS}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    work = config.WORK_DIR
    clean_work_dir(work)
    os.makedirs(work, exist_ok=True)
    report = [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} size={args.size}",
        f"cpu_count {os.cpu_count()}  commit {commit()}  src {source_digest()}  "
        f"python {sys.version.split()[0]}",
    ]
    try:
        workload = gen.GENERATORS[args.workload](args.seed, args.size)
        # The generated inputs live as long as the run: keep the collector
        # from rescanning them, so its pauses reflect the guard's garbage.
        gc.collect()
        gc.freeze()
        run = traced_run if args.trace else timed_run
        metrics, oracle = run(workload, args, work, report)
    except FailOpen as exc:
        print("\n".join(report))
        print(f"perfbench: ABORTED: {exc}", file=sys.stderr)
        return 3
    finally:
        clean_work_dir(work)
    if not args.trace:
        units = dict(END_TO_END)
    elif args.workload == "gateway_tenants":
        units = dict(trace.PER_LAYER + trace.GATEWAY_LAYER)
    else:
        units = dict(trace.PER_LAYER)
    for name, unit in units.items():
        report.append(f"  {name:<36} {metrics[name]:16.6f} {unit}")
    print("\n".join(report))
    result = {
        "correct": oracle.correct,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
