"""Verdict and taint-marking types shared by the analyses.

Terminology follows the paper's Figure 1: ``-`` (negative) markings denote
regions of the query inferred to originate from *untrusted input*, ``+``
(positive) markings denote regions matched by *trusted program fragments*,
and critical tokens are the ``c`` items obtained by parsing the command.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..sqlparser.tokens import Token

__all__ = [
    "Technique",
    "TaintMarking",
    "Detection",
    "AnalysisResult",
    "QueryVerdict",
]


class Technique(enum.Enum):
    """Which inference technique produced a marking or detection."""

    NTI = "nti"
    PTI = "pti"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class TaintMarking:
    """A contiguous character range of the query carrying a taint marking.

    For NTI, ``origin`` is the input value that matched and ``ratio`` its
    difference ratio; for PTI, ``origin`` is the program fragment whose
    occurrence produced the marking and ``ratio`` is 0.
    """

    start: int
    end: int
    technique: Technique
    origin: str
    ratio: float = 0.0

    def covers(self, token: Token) -> bool:
        """Whether the marking fully contains ``token`` (whole-token rule)."""
        return self.start <= token.start and token.end <= self.end

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Detection:
    """One reason a technique judged the query to be an attack."""

    technique: Technique
    reason: str
    token_text: str
    token_start: int
    token_end: int
    input_value: str | None = None


@dataclass
class AnalysisResult:
    """Outcome of running one technique over one query."""

    technique: Technique
    safe: bool
    markings: list[TaintMarking] = field(default_factory=list)
    detections: list[Detection] = field(default_factory=list)
    from_cache: str | None = None  # "query" | "structure" | None

    def __bool__(self) -> bool:  # truthiness == safety, convenient in tests
        return self.safe


@dataclass
class QueryVerdict:
    """Joza's combined decision for one query.

    ``safe`` is True iff *both* components deemed the query safe (paper
    Section IV-E: "A query is safe if and only if both PTI and NTI
    components deem the query safe").  A component skipped due to caching
    still contributes its cached verdict.

    Resilience annotations (DESIGN.md section 7): ``failsafe`` marks a
    query blocked because analysis was unavailable rather than because an
    attack was detected, and ``failure_reasons`` records what went wrong.
    Both surface in the audit export so operators can distinguish real
    detections from the runtime absorbing faults.  ``degraded`` is always
    ``False``: an unavailable technique blocks the query, no verdict rests
    on one technique alone.  The field stays because the verdict wire and
    audit schemas carry it.
    """

    query: str
    safe: bool
    pti: AnalysisResult | None = None
    nti: AnalysisResult | None = None
    degraded: bool = False
    failsafe: bool = False
    failure_reasons: list[str] = field(default_factory=list)

    @property
    def detections(self) -> list[Detection]:
        out: list[Detection] = []
        if self.pti is not None:
            out.extend(self.pti.detections)
        if self.nti is not None:
            out.extend(self.nti.detections)
        return out

    def detected_by(self) -> set[Technique]:
        """Which techniques flagged the query."""
        flagged: set[Technique] = set()
        if self.pti is not None and not self.pti.safe:
            flagged.add(Technique.PTI)
        if self.nti is not None and not self.nti.safe:
            flagged.add(Technique.NTI)
        return flagged
