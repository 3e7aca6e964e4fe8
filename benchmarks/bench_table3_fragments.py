"""Table III -- sample fragments extracted from WordPress and the plugins.

The paper lists short, dangerous fragments present in the extracted
vocabulary: UNION, AND, OR, SELECT, CHAR, #, double quote, backtick,
GROUP BY, ORDER BY, CAST, WHERE 1.  This bench runs the real extraction
pipeline over the testbed's sources, verifies each sample fragment is
present (modulo surrounding whitespace), and reports corpus statistics.
The timed operation is full fragment extraction for the whole testbed.
"""

from __future__ import annotations

import sys

import pytest
from conftest import emit

from repro.bench.reporting import render_kv, render_table
from repro.pti.fragments import FragmentStore
from repro.testbed import build_testbed

#: The sample fragments of Table III.
PAPER_SAMPLE_FRAGMENTS = [
    "UNION", "AND", "OR", "SELECT", "CHAR", "#", '"', "`",
    "GROUP BY", "ORDER BY", "CAST", "WHERE 1",
]


def _store(app) -> FragmentStore:
    return FragmentStore.from_sources(app.all_sources())


def test_table3_fragment_extraction(benchmark):
    app = build_testbed(5)
    store = benchmark(_store, app)
    fragments = store.fragments
    rows = []
    for sample in PAPER_SAMPLE_FRAGMENTS:
        holder = next(
            (f for f in fragments if f.strip() == sample or sample in f), None
        )
        rows.append([sample, "yes" if holder is not None else "NO", repr(holder)])
    stats = store.stats()
    emit(
        "table3_fragments",
        render_table(
            "Table III: Sample fragments in Wordpress (+ plugins)",
            ["Paper fragment", "Present", "Extracted fragment"],
            rows,
        )
        + "\n\n"
        + render_kv(
            "Fragment corpus statistics",
            [(k, v) for k, v in stats.items()],
        ),
        data={
            "samples": {row[0]: row[1] == "yes" for row in rows},
            "stats": dict(stats),
        },
    )
    assert all(row[1] == "yes" for row in rows)
    assert stats["fragments"] > 150  # a real corpus, not a toy list


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, *sys.argv[1:]]))
