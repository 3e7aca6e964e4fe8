"""Figure 4 -- the complementary nature of NTI and PTI.

Part A: an attack that evades PTI (short payload built only from fragments
        available in the program) is caught by NTI (it appears verbatim in
        the query and covers a critical token).
Part B: an attack that evades NTI (application transformation inflates the
        edit distance) is caught by PTI (its comment block / extra tokens
        are not covered by any fragment).

Joza (the hybrid) detects both.
"""

from __future__ import annotations

import sys

import pytest
from conftest import emit

from repro.core import JozaEngine
from repro.phpapp.context import CapturedInput, RequestContext
from repro.phpapp.transforms import addslashes


def _context(value: str) -> RequestContext:
    return RequestContext(inputs=[CapturedInput("get", "id", value)])


def test_fig4_complementary(benchmark):
    engine = JozaEngine.from_fragments(
        ["SELECT * FROM records WHERE ID=", " LIMIT 5", " OR ", " = ", "id"]
    )

    # Part A: PTI-evading tautology (only OR and = needed; both available).
    payload_a = "1 OR 1 = 1"
    query_a = f"SELECT * FROM records WHERE ID={payload_a} LIMIT 5"
    verdict_a = engine.inspect(query_a, _context(payload_a))

    # Part B: NTI-evading quote-stuffed payload (magic quotes applied).
    payload_b = "1 OR 1 = 1 /*''''''''''''''''''''*/"
    query_b = (
        "SELECT * FROM records WHERE ID="
        f"{addslashes(payload_b)} LIMIT 5"
    )
    verdict_b = engine.inspect(query_b, _context(payload_b))

    lines = [
        "Figure 4: complementary detection",
        "",
        f"Part A payload: {payload_a!r}",
        f"  PTI safe={verdict_a.pti.safe}  NTI safe={verdict_a.nti.safe}"
        f"  -> Joza safe={verdict_a.safe}",
        "",
        f"Part B payload: {payload_b!r}",
        f"  PTI safe={verdict_b.pti.safe}  NTI safe={verdict_b.nti.safe}"
        f"  -> Joza safe={verdict_b.safe}",
    ]
    emit(
        "fig4_complementary",
        "\n".join(lines),
        data={
            "pti_evading_attack": {
                "pti_safe": verdict_a.pti.safe,
                "nti_safe": verdict_a.nti.safe,
                "joza_safe": verdict_a.safe,
            },
            "nti_evading_attack": {
                "pti_safe": verdict_b.pti.safe,
                "nti_safe": verdict_b.nti.safe,
                "joza_safe": verdict_b.safe,
            },
        },
    )

    assert verdict_a.pti.safe and not verdict_a.nti.safe and not verdict_a.safe
    assert not verdict_b.pti.safe and verdict_b.nti.safe and not verdict_b.safe

    benchmark(engine.inspect, query_a, _context(payload_a))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, *sys.argv[1:]]))
