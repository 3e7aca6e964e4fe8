"""Figure 3 -- PTI taint markings.

Uses the paper's running example program::

    $postid = $_GET['id'];
    $query  = "SELECT * FROM records WHERE ID=" . $postid . " LIMIT 5";

whose fragment extraction yields ``id``, ``SELECT * FROM records WHERE ID=``
and `` LIMIT 5``.

Part A: benign query -- every critical token positively tainted -> safe.
Part B: ``-1 UNION SELECT username()`` -- UNION, SELECT and username() are
        not covered by any fragment -> attack detected (exactly the three
        tokens the paper lists).
Part C: ``1 OR 1 = 1`` against a program whose fragments include `` OR ``
        and `` = `` -> erroneously deemed safe (the PTI weakness).
"""

from __future__ import annotations

import sys

import pytest
from conftest import emit

from repro.phpapp.source import extract_fragments
from repro.pti import FragmentStore, PTIAnalyzer

PAPER_EXAMPLE_SOURCE = r'''<?php
$postid = $_GET['id'];
$query = "SELECT * FROM records WHERE ID=$postid LIMIT 5";
$result = mysql_query($query);
?>'''


def test_fig3_pti_markings(benchmark):
    fragments = extract_fragments(PAPER_EXAMPLE_SOURCE)
    store = FragmentStore(fragments)
    analyzer = PTIAnalyzer(store)

    query_a = "SELECT * FROM records WHERE ID=1 LIMIT 5"
    result_a = analyzer.analyze(query_a)

    query_b = "SELECT * FROM records WHERE ID=-1 UNION SELECT username()"
    result_b = analyzer.analyze(query_b)
    uncovered_b = [d.token_text for d in result_b.detections]

    rich_store = FragmentStore(fragments + [" OR ", " = "])
    rich = PTIAnalyzer(rich_store)
    query_c = "SELECT * FROM records WHERE ID=1 OR 1 = 1 LIMIT 5"
    result_c = rich.analyze(query_c)

    emit(
        "fig3_pti_markings",
        "Figure 3: PTI markings\n\n"
        f"Extracted fragments: {fragments!r}\n\n"
        f"Part A (benign):  {query_a}\n  -> safe={result_a.safe}\n\n"
        f"Part B (attack):  {query_b}\n"
        f"  -> safe={result_b.safe}, uncovered critical tokens: {uncovered_b}\n\n"
        f"Part C (fragment-covered attack, program also contains ' OR '/' = '):\n"
        f"  {query_c}\n  -> safe={result_c.safe} (attack missed by PTI)",
        data={
            "fragments": list(fragments),
            "benign_safe": result_a.safe,
            "attack_safe": result_b.safe,
            "attack_uncovered_tokens": uncovered_b,
            "fragment_covered_attack_safe": result_c.safe,
        },
    )
    assert "id" in fragments
    assert "SELECT * FROM records WHERE ID=" in fragments
    assert " LIMIT 5" in fragments
    assert result_a.safe
    assert not result_b.safe
    # The paper's three uncovered tokens.
    assert set(uncovered_b) == {"UNION", "SELECT", "username"}
    assert result_c.safe

    benchmark(analyzer.analyze, query_b)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, *sys.argv[1:]]))
