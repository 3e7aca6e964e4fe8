"""Approximate string matching substrate used by negative taint inference.

Public surface:

- :func:`repro.matching.levenshtein` and its explicit variants
  (:func:`levenshtein_full`, :func:`levenshtein_two_row`,
  :func:`levenshtein_banded`, :func:`levenshtein_bitparallel`).
- :func:`repro.matching.best_substring_match` /
  :func:`repro.matching.substring_distance` -- approximate substring
  search behind a ``matcher`` selector (``"auto"`` | ``"dp"`` |
  ``"bitparallel"``): Sellers' DP as the differential-testing oracle,
  Myers' bit-parallel scan as the production core.
- :class:`repro.matching.TextProfile` -- per-text pruning tables
  (character-frequency and bigram lower bounds) reusable across patterns.
- :func:`repro.matching.match_with_ratio` and
  :data:`repro.matching.DEFAULT_NTI_THRESHOLD` -- the paper's
  difference-ratio acceptance test.
- :mod:`repro.matching.filter` -- the multi-candidate filter kernel:
  the q-gram pigeonhole prefilter, whose pieces are probed with
  ``str.find`` and whose hits anchor the verifying scans
  (:func:`qgram_filtered_match`); :func:`edit_budget` is the shared
  threshold-to-distance-budget arithmetic.
"""

from .bitparallel import build_peq, levenshtein_bitparallel, substring_scan
from .filter import (
    edit_budget,
    pigeonhole_pieces,
    qgram_applicable,
    qgram_filtered_match,
)
from .levenshtein import (
    PHP_LEVENSHTEIN_LIMIT,
    levenshtein,
    levenshtein_banded,
    levenshtein_full,
    levenshtein_two_row,
)
from .ratio import (
    DEFAULT_NTI_THRESHOLD,
    RatioMatch,
    difference_ratio,
    match_with_ratio,
)
from .substring import (
    MATCHER_CHOICES,
    SubstringMatch,
    TextProfile,
    best_substring_match,
    resolve_matcher,
    substring_distance,
)

__all__ = [
    "PHP_LEVENSHTEIN_LIMIT",
    "levenshtein",
    "levenshtein_banded",
    "levenshtein_bitparallel",
    "levenshtein_full",
    "levenshtein_two_row",
    "build_peq",
    "substring_scan",
    "edit_budget",
    "pigeonhole_pieces",
    "qgram_applicable",
    "qgram_filtered_match",
    "DEFAULT_NTI_THRESHOLD",
    "RatioMatch",
    "difference_ratio",
    "match_with_ratio",
    "MATCHER_CHOICES",
    "SubstringMatch",
    "TextProfile",
    "best_substring_match",
    "resolve_matcher",
    "substring_distance",
]
