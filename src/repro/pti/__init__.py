"""Positive taint inference component (paper Sections III-B, IV-C, VI-A)."""

from .automaton import FragmentAutomaton, OccurrenceIndex
from .caches import CacheStats, MRUFragmentCache, QueryCache, StructureCache
from .daemon import (
    DaemonConfig,
    DaemonReply,
    PTIDaemon,
    StageTimings,
    SubprocessPTIDaemon,
)
from .fragments import FragmentStore
from .inference import (
    AUTO_AUTOMATON_MIN_FRAGMENTS,
    PTI_MATCHER_CHOICES,
    PTIAnalyzer,
    PTIConfig,
)

__all__ = [
    "FragmentAutomaton",
    "OccurrenceIndex",
    "CacheStats",
    "MRUFragmentCache",
    "QueryCache",
    "StructureCache",
    "DaemonConfig",
    "DaemonReply",
    "PTIDaemon",
    "StageTimings",
    "SubprocessPTIDaemon",
    "FragmentStore",
    "PTIAnalyzer",
    "PTIConfig",
    "PTI_MATCHER_CHOICES",
    "AUTO_AUTOMATON_MIN_FRAGMENTS",
]
