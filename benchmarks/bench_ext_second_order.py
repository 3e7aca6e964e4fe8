"""Extension experiment -- second-order & mixed-source attacks (§III-B).

The paper *claims* PTI's input-independence defeats second-order attacks
(payload cached, later fed to a query) and mixed input-source attacks
(payload concatenated from several sources), but never evaluates either.
This bench turns both claims into a measured detection matrix:

    attack            NTI-only    PTI-only    Joza
    second-order      miss        detect      detect
    mixed-source      miss        detect      detect

with the attacks first proven functional against the unprotected testbed.
"""

from __future__ import annotations

import sys

import pytest
from conftest import emit

from repro.bench.reporting import render_table
from repro.core import JozaConfig, JozaEngine
from repro.testbed import build_testbed
from repro.testbed.second_order import (
    MixedSourceAttack,
    SecondOrderAttack,
    install_extensions,
)


def _run_second_order(config):
    app = build_testbed(4)
    install_extensions(app)
    engine = JozaEngine.protect(app, config) if config is not None else None
    attack = SecondOrderAttack()
    attack.plant(app)
    if engine is not None:
        engine.attack_log.clear()
    response = attack.trigger(app)
    detected = bool(engine.attack_log) if engine is not None else False
    return attack.succeeded(response), detected


def _run_mixed_source(config):
    app = build_testbed(4)
    install_extensions(app)
    engine = JozaEngine.protect(app, config) if config is not None else None
    attack = MixedSourceAttack()
    response = attack.fire(app)
    detected = bool(engine.attack_log) if engine is not None else False
    return attack.succeeded(response), detected


@pytest.fixture(scope="module")
def matrix():
    configs = {
        "unprotected": None,
        "NTI only": JozaConfig(enable_pti=False),
        "PTI only": JozaConfig(enable_nti=False),
        "Joza": JozaConfig(),
    }
    out = {}
    for label, config in configs.items():
        out[("second-order", label)] = _run_second_order(config)
        out[("mixed-source", label)] = _run_mixed_source(config)
    return out


def test_ext_second_order_matrix(benchmark, matrix):
    rows = []
    for attack in ("second-order", "mixed-source"):
        for config in ("unprotected", "NTI only", "PTI only", "Joza"):
            success, detected = matrix[(attack, config)]
            rows.append([attack, config, success, detected])
    emit(
        "ext_second_order",
        render_table(
            "Extension: second-order & mixed-source attacks (paper §III-B claims)",
            ["Attack", "Configuration", "Attack succeeded", "Detected"],
            rows,
        ),
        data={
            "matrix": {
                f"{attack} / {config}": {"succeeded": success, "detected": detected}
                for (attack, config), (success, detected) in matrix.items()
            },
        },
    )
    for attack in ("second-order", "mixed-source"):
        assert matrix[(attack, "unprotected")] == (True, False)   # functional
        assert matrix[(attack, "NTI only")] == (True, False)      # NTI blind
        assert matrix[(attack, "PTI only")] == (False, True)      # PTI catches
        assert matrix[(attack, "Joza")] == (False, True)          # hybrid wins

    benchmark(_run_mixed_source, JozaConfig())


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, *sys.argv[1:]]))
