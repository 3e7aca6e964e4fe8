"""Negative taint inference component (paper Section III-A)."""

from ..matching.filter import FilterStats
from .cache import NTIQueryCache, NTIQueryEntry
from .inference import PREFILTER_CHOICES, NTIAnalyzer, NTIConfig
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
