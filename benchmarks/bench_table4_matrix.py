"""Table IV -- the full per-plugin security matrix.

For each of the 50 plugins (plus Joomla, Drupal, osCommerce): detection of
the original exploit by NTI and PTI, detection of the NTI-evasive mutant,
availability/detection of the Taintless (PTI-evasive) mutant, and Joza's
combined verdict.

Paper headline aggregates this bench asserts:

- every original exploit works against the unprotected testbed;
- NTI detects 49/50 originals, PTI 50/50;
- every plugin's exploit can be mutated to evade NTI while remaining
  functional (the paper's 51-of-53 across plugins+apps);
- Taintless adapts exactly 13/50 plugin exploits (14/53 with osCommerce);
- Joza detects every original and every mutant ("Yes" down the last column).
"""

from __future__ import annotations

import sys

import pytest
from conftest import emit

from repro.bench.reporting import render_table
from repro.testbed import AttackType, craft_exploit, plugin_by_name
from repro.attacks import mutate_exploit_for_nti

_TYPE_LABEL = {
    AttackType.UNION: "Union Based",
    AttackType.BLIND: "Standard Blind",
    AttackType.DOUBLE_BLIND: "Double Blind",
    AttackType.TAUTOLOGY: "Tautology",
}


def _yn(flag: bool) -> str:
    return "Yes" if flag else "No"


def test_table4_security_matrix(benchmark, corpus_eval):
    # Timed operation: crafting + mutating one exploit end to end.
    defn = plugin_by_name("linklibrary")

    def craft_and_mutate():
        exploit = craft_exploit(defn)
        return mutate_exploit_for_nti(exploit)

    benchmark(craft_and_mutate)

    rows = []
    for report in corpus_eval.reports:
        plugin = report.plugin
        rows.append(
            [
                plugin.title,
                plugin.version,
                plugin.advisory or "-",
                _TYPE_LABEL[plugin.attack_type],
                _yn(report.nti_original),
                _yn(report.nti_mutated),
                _yn(report.pti_original),
                _yn(report.pti_mutated) if report.taintless_adapted else "n/a",
                _yn(report.joza),
            ]
        )
    for scenario in corpus_eval.scenario_reports:
        rows.append(
            [
                scenario.name,
                scenario.version,
                scenario.advisory,
                _TYPE_LABEL[scenario.attack_type],
                _yn(scenario.nti_original),
                _yn(scenario.nti_mutated),
                _yn(scenario.pti_original),
                _yn(scenario.pti_mutated),
                _yn(scenario.joza),
            ]
        )
    emit(
        "table4_matrix",
        render_table(
            "Table IV: Joza security effectiveness (original + mutated exploits)",
            [
                "Plugin / Application", "Version", "CVE/OSVDB", "SQL Vulnerability",
                "NTI Orig", "NTI Mutated", "PTI Orig", "PTI Mutated (Taintless)",
                "Joza",
            ],
            rows,
        ),
        data={
            "nti_baseline": list(corpus_eval.nti_baseline),
            "pti_baseline": list(corpus_eval.pti_baseline),
            "nti_evasions": corpus_eval.nti_evasions,
            "taintless_successes": corpus_eval.taintless_successes,
            "joza_detections": list(corpus_eval.joza_detections),
            "plugins": {
                r.plugin.name: {
                    "nti_original": r.nti_original,
                    "nti_mutated": r.nti_mutated,
                    "pti_original": r.pti_original,
                    "pti_mutated": r.pti_mutated,
                    "taintless_adapted": r.taintless_adapted,
                    "joza": r.joza,
                }
                for r in corpus_eval.reports
            },
            "scenarios": {
                s.name: {
                    "nti_original": s.nti_original,
                    "nti_mutated": s.nti_mutated,
                    "pti_original": s.pti_original,
                    "pti_mutated": s.pti_mutated,
                    "joza": s.joza,
                }
                for s in corpus_eval.scenario_reports
            },
        },
    )

    ev = corpus_eval
    assert all(r.original_works for r in ev.reports)
    assert ev.nti_baseline == (49, 50)
    assert ev.pti_baseline == (50, 50)
    assert ev.nti_evasions == 50          # every mutant works and evades NTI
    assert ev.taintless_successes == 13   # paper: 13 of 50
    assert ev.joza_detections == (50, 50)
    # Including osCommerce, 14 PTI evasions across the 53 targets (abstract).
    oscommerce = next(s for s in ev.scenario_reports if s.name == "osCommerce")
    assert not oscommerce.pti_mutated
    assert all(s.joza for s in ev.scenario_reports)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, *sys.argv[1:]]))
