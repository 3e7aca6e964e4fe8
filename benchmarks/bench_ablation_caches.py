"""Ablation -- each PTI cache and matcher optimization toggled independently.

Extends Table V / Figure 7: quantifies the contribution of the query cache,
the structure cache, the MRU fragment list and the critical-token index, at
two fragment-corpus scales.  Our synthetic plugin sources are far smaller
than a real WordPress source tree, so the matcher-side optimizations are
also measured with 5,000 filler fragments approximating WordPress scale --
there the token index and MRU list become load-bearing, exactly the
paper's Section VI-A rationale.
"""

from __future__ import annotations

import sys

import pytest
from conftest import PERF_NUM_POSTS, REFERENCE_RENDER_COST, emit

from repro.bench import write_stream
from repro.bench.reporting import render_table
from repro.bench.runner import attributed_overhead_pct, measure
from repro.core import JozaConfig
from repro.pti.daemon import DaemonConfig
from repro.pti.inference import PTIConfig

# Every row pins the scan matcher, as Table V and Fig. 7 do: under
# ``matcher="auto"`` a store of 16 or more fragments runs the automaton, for
# which the MRU list and the token index do not exist, and the rows that
# toggle them would all measure the same thing.
SCAN = PTIConfig(matcher="scan")

CONFIGS = [
    ("all optimizations", DaemonConfig(pti=SCAN)),
    ("no query cache", DaemonConfig(use_query_cache=False, pti=SCAN)),
    ("no structure cache", DaemonConfig(use_structure_cache=False, pti=SCAN)),
    (
        "index only (no caches, no MRU)",
        DaemonConfig(
            use_query_cache=False,
            use_structure_cache=False,
            pti=PTIConfig(use_mru=False, matcher="scan"),
        ),
    ),
    (
        "MRU only (no caches, no index)",
        DaemonConfig(
            use_query_cache=False,
            use_structure_cache=False,
            pti=PTIConfig(use_token_index=False, matcher="scan"),
        ),
    ),
    (
        "full scan (no caches)",
        DaemonConfig(
            use_query_cache=False,
            use_structure_cache=False,
            pti=PTIConfig(use_mru=False, use_token_index=False, matcher="scan"),
        ),
    ),
]


@pytest.fixture(
    scope="module", params=[0, 5_000], ids=["small-corpus", "wp-scale-corpus"]
)
def cache_sweep(request):
    extra = request.param
    writes = write_stream(PERF_NUM_POSTS, 150 if extra == 0 else 40)
    plain = measure(
        writes, "plain", protected=False,
        num_posts=PERF_NUM_POSTS, render_cost=REFERENCE_RENDER_COST,
    )
    rows = []
    overheads = {}
    for label, daemon_cfg in CONFIGS:
        cfg = JozaConfig(enable_nti=False, daemon=daemon_cfg)
        m = measure(
            writes, label, config=cfg,
            num_posts=PERF_NUM_POSTS, render_cost=REFERENCE_RENDER_COST,
            extra_fragments=extra,
        )
        overheads[label] = attributed_overhead_pct(plain, m)
        rows.append([label, f"{overheads[label]:.2f}%"])
    return extra, rows, overheads


def test_ablation_pti_caches(benchmark, cache_sweep):
    extra, rows, overheads = cache_sweep
    corpus = f"{extra} filler fragments" if extra else "testbed corpus only"
    emit(
        f"ablation_caches_{extra}",
        render_table(
            f"Ablation: PTI cache/optimization toggles, write stream ({corpus})",
            ["Configuration", "PTI overhead"],
            rows,
        ),
        data={"extra_fragments": extra, "overheads_pct": dict(overheads)},
    )
    # Disabling everything is never better than the fully-optimized daemon.
    assert (
        overheads["full scan (no caches)"] >= overheads["all optimizations"]
    )
    if extra:
        # At WordPress scale the matcher-side optimizations carry the load:
        # scanning the whole corpus per token dwarfs the optimized paths.
        assert overheads["full scan (no caches)"] > 2 * overheads["all optimizations"]
        assert (
            overheads["full scan (no caches)"]
            > 1.5 * overheads["index only (no caches, no MRU)"]
        )

    from repro.pti import FragmentStore, PTIAnalyzer

    analyzer = PTIAnalyzer(FragmentStore(["INSERT INTO t (a, b) VALUES (", ", '"]))
    benchmark(analyzer.analyze, "INSERT INTO t (a, b) VALUES (1, 'x')")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, *sys.argv[1:]]))
