"""Joza's core: the hybrid engine, policies, verdicts and resilience."""

from .engine import AttackRecord, EngineStats, JozaEngine
from .policy import JozaConfig, RecoveryPolicy
from .shapecache import ShapeCache, ShapeCacheConfig, ShapePlan, build_plan
from .resilience import (
    BreakerState,
    CircuitBreaker,
    CorruptReply,
    DaemonCrash,
    DaemonTimeout,
    DaemonUnavailable,
    Deadline,
    DeadlineExceeded,
    FailurePolicy,
    PTIFailure,
    ResilienceConfig,
    RetryPolicy,
    RingLog,
)
from .verdict import (
    AnalysisResult,
    Detection,
    QueryVerdict,
    TaintMarking,
    Technique,
)

__all__ = [
    "AttackRecord",
    "EngineStats",
    "JozaEngine",
    "JozaConfig",
    "RecoveryPolicy",
    "ShapeCache",
    "ShapeCacheConfig",
    "ShapePlan",
    "build_plan",
    "BreakerState",
    "CircuitBreaker",
    "CorruptReply",
    "DaemonCrash",
    "DaemonTimeout",
    "DaemonUnavailable",
    "Deadline",
    "DeadlineExceeded",
    "FailurePolicy",
    "PTIFailure",
    "ResilienceConfig",
    "RetryPolicy",
    "RingLog",
    "AnalysisResult",
    "Detection",
    "QueryVerdict",
    "TaintMarking",
    "Technique",
]
