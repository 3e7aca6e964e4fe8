"""Hypothesis settings profiles shared by the suites under ``tests/``.

``spec-harness`` is the spec harness's CI job
(``pytest tests/property/test_spec_harness.py --hypothesis-profile=spec-harness``):
the same properties at a larger example count than tier-1 runs.
"""

from hypothesis import settings

settings.register_profile("spec-harness", max_examples=200)
