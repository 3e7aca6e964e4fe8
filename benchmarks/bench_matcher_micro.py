"""Micro-benchmark -- ms/comparison of the DP vs bit-parallel matchers.

Times one ``best_substring_match`` call (the NTI hot-path unit of work) for
both cores across a ladder of pattern sizes, including sizes straddling the
64-bit word boundary where the bit-parallel scan switches from single-limb
to multi-limb integers.  Distances and spans are asserted byte-identical at
every size -- the DP core is the oracle, the bit-parallel core the
production engine.

Two workloads:

- **echoed** -- the pattern is a corrupted slice of the text, i.e. the NTI
  regime the tentpole optimises: an input value echoed into a query with
  small escaping differences.  The minimal distance is small, few columns
  tie, start recovery is a cheap bounded-window pass and the bit-parallel
  win grows with pattern width.
- **unrelated** -- benign prose vs an unrelated SQL text.  The minimal
  distance is near the pattern length and many columns tie, so span
  recovery falls back to the start-tracking DP; times are honest about
  that worst case (the production path never pays it: ``match_with_ratio``
  passes a threshold budget that prunes such pairs almost immediately).
"""

from __future__ import annotations

import sys
import time

import pytest
from conftest import emit

from repro.bench.reporting import render_table
from repro.matching import best_substring_match

#: Pattern sizes: below / at / above the auto-dispatch threshold, around
#: the 64-bit block boundary, and the long-benign-input regime.
PATTERN_SIZES = (8, 16, 32, 64, 128, 256, 512)
TEXT = (
    "SELECT * FROM wp_posts WHERE post_status = 'publish' AND "
    "post_title LIKE '%term%' ORDER BY ID DESC LIMIT 10 "
) * 8
PROSE = (
    "a benign multi-sentence blog comment, repeated to simulate a "
    "sizable upload "
) * 8


def _echoed_pattern(size: int) -> str:
    base = TEXT[37 : 37 + size]
    return "".join("~" if i % 8 == 7 else c for i, c in enumerate(base))


def _unrelated_pattern(size: int) -> str:
    return (PROSE * (size // len(PROSE) + 1))[:size]


def _time_one(fn, repeat: int = 5) -> float:
    best = float("inf")
    for __ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_matcher_micro(benchmark):
    rows = []
    speedups = {}
    for workload, make in (
        ("echoed", _echoed_pattern),
        ("unrelated", _unrelated_pattern),
    ):
        for size in PATTERN_SIZES:
            pattern = make(size)
            dp = best_substring_match(pattern, TEXT, matcher="dp")
            bp = best_substring_match(pattern, TEXT, matcher="bitparallel")
            assert dp == bp  # byte-identical result at every size
            t_dp = _time_one(
                lambda: best_substring_match(pattern, TEXT, matcher="dp")
            )
            t_bp = _time_one(
                lambda: best_substring_match(
                    pattern, TEXT, matcher="bitparallel"
                )
            )
            speedups[(workload, size)] = t_dp / t_bp if t_bp else float("inf")
            rows.append(
                [
                    workload,
                    size,
                    f"{t_dp * 1000:.4f}",
                    f"{t_bp * 1000:.4f}",
                    f"{speedups[(workload, size)]:.1f}x",
                    dp.distance,
                ]
            )
    emit(
        "matcher_micro",
        render_table(
            "Matcher micro-benchmark: ms/comparison, DP vs bit-parallel "
            f"(text length {len(TEXT)}, fastest of 5)",
            [
                "Workload",
                "Pattern chars",
                "DP (ms)",
                "Bit-parallel (ms)",
                "Speedup",
                "Distance",
            ],
            rows,
        ),
        data={
            "text_length": len(TEXT),
            "speedups": {
                f"{workload}/{size}": value
                for (workload, size), value in speedups.items()
            },
        },
    )
    # The NTI regime must show the decisive win at long-input sizes, and
    # the advantage must grow with pattern width (wider bit-vectors do
    # more DP cells per big-int operation).
    assert speedups[("echoed", 512)] > 5.0
    assert speedups[("echoed", 512)] > speedups[("echoed", 64)]

    benchmark(best_substring_match, _echoed_pattern(64), TEXT, None)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, *sys.argv[1:]]))
