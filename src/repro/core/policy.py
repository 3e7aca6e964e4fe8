"""Joza configuration and attack-recovery policies (paper Section IV-E)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from ..nti.inference import NTIConfig
from ..pti.daemon import DaemonConfig
from .resilience import ResilienceConfig
from .shapecache import ShapeCacheConfig

__all__ = [
    "RecoveryPolicy",
    "JozaConfig",
    "ResilienceConfig",
    "ShapeCacheConfig",
]


class RecoveryPolicy(enum.Enum):
    """What happens to a request whose query was judged an attack.

    ``TERMINATE`` (the default; "Joza uses termination, which typically
    results in a blank HTML page") aborts the request.
    ``ERROR_VIRTUALIZATION`` "returns an error code as if the query had
    failed and relies on the application logic to handle this error
    gracefully".
    """

    TERMINATE = "terminate"
    ERROR_VIRTUALIZATION = "error_virtualization"


@dataclass
class JozaConfig:
    """Top-level configuration of the hybrid engine.

    ``enable_nti`` / ``enable_pti`` exist for the paper's component-wise
    security evaluation (Section V-A runs each technique in isolation);
    production deployments leave both on.
    """

    nti: NTIConfig = field(default_factory=NTIConfig)
    daemon: DaemonConfig = field(default_factory=DaemonConfig)
    #: Fault-tolerance knobs: per-query analysis deadline and audit-log
    #: capacity (DESIGN.md section 7).
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    #: Query-shape fast path: bounded skeleton-keyed plan cache (DESIGN.md
    #: "shape fast path").  Active only when both techniques are enabled
    #: (a plan encodes hybrid-pipeline results).
    shape: ShapeCacheConfig = field(default_factory=ShapeCacheConfig)
    policy: RecoveryPolicy = RecoveryPolicy.TERMINATE
    enable_nti: bool = True
    enable_pti: bool = True
    #: Ray/Ligatti-style strict policy: identifiers become critical tokens.
    #: Breaks applications that pass field/table names through input (the
    #: reason the paper defaults to the pragmatic stance, Section II).
    strict_tokens: bool = False

    def __post_init__(self) -> None:
        # A copy, so the engine and its daemon always lex the same way and
        # the caller's DaemonConfig (perhaps shared) is left as it was.
        self.daemon = replace(self.daemon, strict_tokens=self.strict_tokens)
