"""Figure 2 -- NTI taint markings on benign, malicious and evasive inputs.

Part A: benign input ``1`` matches only the data position -> safe.
Part B: ``-1 OR 1 = 1`` matches verbatim and covers the critical tokens
        OR and ``=`` -> attack detected.
Part C: the magic-quotes evasion -- quotes inside the payload gain
        backslashes in the query, the difference ratio (5 edits over a
        22-character match in the paper's worked example) exceeds the 20%
        threshold -> attack *undetected* by NTI.

The bench replays all three against the real analyzer and renders the
inferred markings; the timed operation is one NTI analysis.
"""

from __future__ import annotations

import sys

import pytest
from conftest import emit

from repro.bench.reporting import render_kv
from repro.matching import best_substring_match, difference_ratio
from repro.nti import NTIAnalyzer
from repro.phpapp.context import CapturedInput, RequestContext
from repro.phpapp.transforms import addslashes


def _context(value: str) -> RequestContext:
    return RequestContext(inputs=[CapturedInput("get", "id", value)])


def _marking_line(query: str, result) -> str:
    ruler = [" "] * len(query)
    for marking in result.markings:
        for i in range(marking.start, min(marking.end, len(query))):
            ruler[i] = "-"
    return f"  {query}\n  {''.join(ruler)}"


def test_fig2_nti_markings(benchmark):
    analyzer = NTIAnalyzer()

    # Part A: benign.
    benign_input = "1"
    query_a = "SELECT * FROM records WHERE ID=1 LIMIT 5"
    result_a = analyzer.analyze(query_a, _context(benign_input))

    # Part B: attack, detected.
    attack_input = "-1 OR 1 = 1"
    query_b = f"SELECT * FROM records WHERE ID={attack_input} LIMIT 5"
    result_b = analyzer.analyze(query_b, _context(attack_input))

    # Part C: evasive (magic quotes add backslashes inside the comment).
    # Paper's worked example: 5 added backslashes over a 22-character match
    # -> 22.7% difference ratio, above the 20% threshold.
    evasive_input = "1 OR 1=1/*'''''*/"
    query_c = (
        f"SELECT * FROM records WHERE ID={addslashes(evasive_input)} LIMIT 5"
    )
    result_c = analyzer.analyze(query_c, _context(evasive_input))
    match_c = best_substring_match(evasive_input, query_c)

    emit(
        "fig2_nti_markings",
        "Figure 2: NTI markings (A benign / B attack / C evasive)\n\n"
        "Part A (benign, safe):\n"
        + _marking_line(query_a, result_a)
        + f"\n  -> safe={result_a.safe}\n\n"
        "Part B (attack, detected):\n"
        + _marking_line(query_b, result_b)
        + f"\n  -> safe={result_b.safe}, covered critical tokens: "
        + ", ".join(sorted({d.token_text for d in result_b.detections}))
        + "\n\nPart C (evasive, undetected):\n"
        + f"  raw input : {evasive_input}\n  query      : {query_c}\n"
        + render_kv(
            "  best match",
            [
                ("edit distance", match_c.distance),
                ("matched length", match_c.length),
                ("difference ratio", f"{difference_ratio(match_c) * 100:.1f}%"),
                ("threshold", "20%"),
            ],
        )
        + f"\n  -> safe={result_c.safe} (attack missed by NTI)",
        data={
            "benign_safe": result_a.safe,
            "attack_safe": result_b.safe,
            "attack_covered_tokens": sorted(
                {d.token_text for d in result_b.detections}
            ),
            "evasive_safe": result_c.safe,
            "evasive_match": {
                "distance": match_c.distance,
                "length": match_c.length,
                "difference_ratio": difference_ratio(match_c),
                "threshold": 0.20,
            },
        },
    )
    assert result_a.safe
    assert not result_b.safe
    assert {d.token_text for d in result_b.detections} >= {"OR", "="}
    assert result_c.safe                      # NTI evaded
    assert difference_ratio(match_c) > 0.20   # ratio above the threshold
    assert match_c.distance == 5 and match_c.length == 22  # paper arithmetic

    benchmark(analyzer.analyze, query_b, _context(attack_input))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, *sys.argv[1:]]))
