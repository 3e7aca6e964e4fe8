"""Negative taint inference component (paper Section III-A)."""

from ..matching.filter import FilterStats
from .cache import NTIQueryCache, NTIQueryEntry
from .inference import NTIAnalyzer, NTIConfig
from .sources import candidate_inputs

__all__ = [
    "NTIAnalyzer",
    "NTIConfig",
    "NTIQueryCache",
    "NTIQueryEntry",
    "FilterStats",
    "candidate_inputs",
]
