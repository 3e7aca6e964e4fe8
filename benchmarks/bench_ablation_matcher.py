"""Ablation -- Levenshtein/substring matcher variants (paper Section VI-B).

The paper contrasts PHP's native Levenshtein (short operands) with an
optimized linear-memory implementation for long operands, and relies on
heuristics to skip implausible comparisons.  This bench compares:

- full-matrix vs two-row vs banded vs Myers bit-parallel Levenshtein on
  short and long operands;
- the Sellers substring matcher with and without its pruning budget, on
  the NTI hot path (benign long input vs unrelated query);
- the DP vs bit-parallel substring cores on the same hot path (the
  tentpole matcher swap: identical matches, large constant-factor win).
"""

from __future__ import annotations

import sys

import pytest
from conftest import emit

from repro.bench.reporting import render_table
from repro.matching import (
    best_substring_match,
    levenshtein_banded,
    levenshtein_bitparallel,
    levenshtein_full,
    levenshtein_two_row,
)

SHORT_A = "posting a comment about unions"
SHORT_B = "UPDATE wp_posts SET comment_count = comment_count + 1"
LONG_A = ("a benign multi-sentence blog comment, repeated to simulate a "
          "sizable upload ") * 20
LONG_B = ("SELECT * FROM wp_posts WHERE post_status = 'publish' AND "
          "post_title LIKE '%term%' ORDER BY ID DESC LIMIT 10 ") * 10


def _time(fn, *args, repeat=5):
    import time

    best = float("inf")
    result = None
    for __ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_ablation_matcher_variants(benchmark):
    rows = []
    checks = {}
    for label, a, b in (("short", SHORT_A, SHORT_B), ("long", LONG_A, LONG_B)):
        t_full, d_full = _time(levenshtein_full, a, b)
        t_two, d_two = _time(levenshtein_two_row, a, b)
        budget = max(len(a) // 4, 8)
        t_band, d_band = _time(levenshtein_banded, a, b, budget)
        t_bits, d_bits = _time(levenshtein_bitparallel, a, b)
        rows.append(
            [f"levenshtein full ({label})", f"{t_full * 1000:.3f} ms", d_full]
        )
        rows.append(
            [f"levenshtein two-row ({label})", f"{t_two * 1000:.3f} ms", d_two]
        )
        rows.append(
            [
                f"levenshtein banded<= {budget} ({label})",
                f"{t_band * 1000:.3f} ms",
                d_band if d_band <= budget else f">{budget}",
            ]
        )
        rows.append(
            [
                f"levenshtein bit-parallel ({label})",
                f"{t_bits * 1000:.3f} ms",
                d_bits,
            ]
        )
        checks[label] = (t_full, t_two, t_band, d_full, d_two, d_bits)
    t_noprune, m1 = _time(
        lambda: best_substring_match(LONG_A, LONG_B, matcher="dp")
    )
    t_prune, m2 = _time(
        lambda: best_substring_match(
            LONG_A, LONG_B, len(LONG_A) // 4, matcher="dp"
        )
    )
    t_bp, m_bp = _time(
        lambda: best_substring_match(LONG_A, LONG_B, matcher="bitparallel")
    )
    rows.append(["substring DP, no budget (long)", f"{t_noprune * 1000:.3f} ms",
                 m1.distance])
    rows.append(["substring DP, pruned (long)", f"{t_prune * 1000:.3f} ms",
                 "pruned" if m2 is None else m2.distance])
    rows.append(
        [
            "substring bit-parallel, no budget (long)",
            f"{t_bp * 1000:.3f} ms",
            m_bp.distance,
        ]
    )
    emit(
        "ablation_matcher",
        render_table(
            "Ablation: matcher variants (fastest of 5 runs)",
            ["Variant", "Time", "Distance"],
            rows,
        ),
        data={
            "levenshtein_seconds": {
                label: {"full": t_full, "two_row": t_two, "banded": t_band}
                for label, (t_full, t_two, t_band, *__) in checks.items()
            },
            "substring_seconds": {
                "dp_no_budget": t_noprune,
                "dp_pruned": t_prune,
                "bitparallel": t_bp,
            },
        },
    )
    for label, (t_full, t_two, t_band, d_full, d_two, d_bits) in checks.items():
        assert d_full == d_two == d_bits  # implementations agree
    # Pruning must win decisively on the implausible long-input case.
    assert t_prune < t_noprune / 5
    # The bit-parallel core must agree with the DP oracle byte-for-byte...
    assert m_bp == m1
    # ...and beat it by >= 5x on the long-input substring case (ISSUE.md
    # acceptance criterion for the matcher swap).
    assert t_bp < t_noprune / 5

    benchmark(best_substring_match, SHORT_A, SHORT_B, len(SHORT_A) // 4)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, *sys.argv[1:]]))
