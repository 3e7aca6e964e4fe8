"""Negative taint inference component (paper Section III-A)."""

from .cache import NTIQueryCache, NTIQueryEntry
from .inference import NTIAnalyzer, NTIConfig
from .prefilter import PREFILTER_CHOICES, FilterStats
from .sources import candidate_inputs

__all__ = [
    "NTIAnalyzer",
    "NTIConfig",
    "NTIQueryCache",
    "NTIQueryEntry",
    "PREFILTER_CHOICES",
    "FilterStats",
    "candidate_inputs",
]
