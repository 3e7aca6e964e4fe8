#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and compare spreads to bounds.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10 --seed0 1
    python3 perfbench/steady.py --workloads wp_mix --runs 5 --same-seed

Each run is ``perfbench/run.py`` in its own process, with seed ``seed0``,
``seed0 + 1``, ... (or ``seed0`` every time with ``--same-seed``).  For
every end-to-end metric the report gives the median and quartiles of the
runs (``statistics.quantiles(values, n=4)``), the spread -- the distance
between the quartiles as a share of the median -- and the metric's bound
from ``BENCHMARK.json``.  A spread above its bound fails the check
(``setup_s`` is reported but exempt); a spread above a tenth is flagged,
because such a metric needs a longer run or has to be dropped.  With
``--same-seed`` the verdict digests of all runs must also be identical.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", f"{seconds:g}",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("verdict_digest "):
            result["digest"] = line.split()[1]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) of the runs."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--out", help="also write the raw results as JSON here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to compute quartiles")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    failures = []
    raw: dict[str, list] = {}
    for workload in args.workloads.split(","):
        runs = []
        for k in range(args.runs):
            seed = args.seed0 if args.same_seed else args.seed0 + k
            result = run_once(workload, seed, args.seconds, 0)
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
            ), flush=True)
        raw[workload] = runs
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, width = spread(values)
            flag = ""
            if width > bound and name != "setup_s":
                flag = "OVER BOUND"
                failures.append(f"{workload} {name}: spread {width:.3f} > bound {bound}")
            elif width > 0.10:
                flag = "over a tenth"
            elif width > bound / 3:
                flag = "over bound/3"
            print(f"  {name:<16} {median:12.4f} {q1:12.4f} {q3:12.4f} {width:8.3f} {bound:6.2f} {flag}")
        digests = {r.get("digest") for r in runs}
        if args.same_seed:
            if len(digests) != 1:
                failures.append(f"{workload}: {len(digests)} distinct verdict digests for one seed")
            print(f"  verdict digests identical: {len(digests) == 1}")
        print()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(raw, handle, indent=1)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
