"""Table I -- classification of WP-SQLI-LAB attack types.

Paper values: Union Based 15, Standard Blind 17, Double Blind 14,
Tautology 4 (50 plugins total).  The reproduction's corpus is constructed
to the same census; this bench derives the counts from the live corpus and
times testbed construction (the WP-SQLI-LAB build step).
"""

from __future__ import annotations

import sys

import pytest
from conftest import emit

from repro.bench.reporting import render_table
from repro.testbed import ALL_PLUGINS, AttackType, build_testbed

_PAPER = {
    AttackType.UNION: 15,
    AttackType.BLIND: 17,
    AttackType.DOUBLE_BLIND: 14,
    AttackType.TAUTOLOGY: 4,
}

_LABELS = {
    AttackType.UNION: "Union Based",
    AttackType.BLIND: "Standard Blind",
    AttackType.DOUBLE_BLIND: "Double Blind",
    AttackType.TAUTOLOGY: "Tautology",
}


def test_table1_attack_type_census(benchmark):
    benchmark(build_testbed, 10)
    counts: dict[str, int] = {}
    for plugin in ALL_PLUGINS:
        counts[plugin.attack_type] = counts.get(plugin.attack_type, 0) + 1
    rows = [
        [_LABELS[kind], counts.get(kind, 0), _PAPER[kind]]
        for kind in (
            AttackType.UNION,
            AttackType.BLIND,
            AttackType.DOUBLE_BLIND,
            AttackType.TAUTOLOGY,
        )
    ]
    rows.append(["Total", sum(counts.values()), sum(_PAPER.values())])
    emit(
        "table1_testbed",
        render_table(
            "Table I: Classification of WP-SQLI-LAB attack types",
            ["Attack Type", "No. of Plugins (repro)", "No. of Plugins (paper)"],
            rows,
        ),
        data={
            "counts": {
                _LABELS[kind]: {"repro": counts.get(kind, 0), "paper": paper}
                for kind, paper in _PAPER.items()
            },
            "total": {"repro": sum(counts.values()), "paper": sum(_PAPER.values())},
        },
    )
    assert counts == _PAPER


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, *sys.argv[1:]]))
