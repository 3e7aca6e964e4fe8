"""Fixed settings of the benchmark.

Everything a later change could tune to flatter a number lives here, so a
change that claims a gain and edits this file is visibly editing the
benchmark.  ``BENCHMARK.json`` states the open-loop rate and latency limit
of every workload in its ``why`` line; ``tests/test_smoke.py`` checks that
the two agree.
"""

from __future__ import annotations

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Scratch directory (relative to the checkout root, which the runner makes
#: the working directory): unix socket, durable state, written traces.
#: Relative on purpose -- a unix socket path must stay under 108 bytes.
WORK_DIR = ".perfbench_work"

#: Every workload ``run.py`` accepts.  ``BENCHMARK.json`` lists the ones
#: whose figures repeat within their bounds on the development host.
WORKLOADS = ("wp_mix", "cold_wpcom", "gateway_tenants")

#: Open loop per workload: offered rate (requests/s) and the latency limit
#: (microseconds) of ``slo_miss_frac``.  The rate is about a third of the
#: closed-loop capacity measured on a 2-vCPU x86-64 virtual machine whose
#: speed drifts by +-15% from run to run: at half, a slow spell pushes the
#: queue to saturation and the open-loop figures stop repeating.  The limit
#: is a few times the closed-loop p99 there.
OPEN_LOOP = {
    "wp_mix": {"rate": 3000.0, "limit_us": 2000.0},
    "cold_wpcom": {"rate": 120.0, "limit_us": 25000.0},
    "gateway_tenants": {"rate": 300.0, "limit_us": 20000.0},
}

#: Share of ``--seconds`` spent in the closed loop; the open loop gets the
#: rest.
CLOSED_SHARE = 0.7

#: Closed-loop figures are medians over consecutive windows of this many
#: requests (a window's p95 has 50 samples beyond it).
WINDOW = 1000

#: Time metrics are reported at a fixed reference speed.  A run times a
#: fixed piece of interpreter work (``drive.reference_seconds``) around
#: set-up and every 1024 closed-loop requests, and scales its timings by
#: ``REFERENCE_US`` over the median of those times.  On a shared virtual
#: machine the same code runs up to 1.5x faster or slower from one minute
#: to the next; the scaling cancels that, while a change to the program
#: moves the program's timings and not the reference's.  Raw timings are
#: printed next to the scaled ones.
REFERENCE_US = 1750.0

#: Set-up repetitions per run (``setup_s`` is their median).
SETUP_REPS = {"wp_mix": 7, "cold_wpcom": 3, "gateway_tenants": 5}

#: Client connections (and client threads) of the gateway workload.
GATEWAY_CONNECTIONS = 2
GATEWAY_WORKERS = 2
GATEWAY_TENANTS = 4
#: A ``reload_tenant`` overlay write arrives every this many requests.
RELOAD_EVERY = 100
#: Journal records between compacting checkpoints (the default of 512
#: would not checkpoint at all inside one run).
CHECKPOINT_EVERY = 64

#: Generated sizes; ``tiny`` is for the smoke tests.
SIZES = {
    "full": {
        "wp_requests": 800,
        "wp_posts": 30,
        "wpcom_fragments": 12000,
        "wpcom_timed": 8000,
        "wpcom_warm": 300,
    },
    "tiny": {
        "wp_requests": 80,
        "wp_posts": 5,
        "wpcom_fragments": 400,
        "wpcom_timed": 120,
        "wpcom_warm": 40,
    },
}

#: Spans kept in memory by a traced run (the rest are still aggregated).
MAX_KEPT_SPANS = 200_000
