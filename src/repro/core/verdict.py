"""Verdict and taint-marking types shared by the analyses, and their dict form.

Terminology follows the paper's Figure 1: ``-`` (negative) markings denote
regions of the query inferred to originate from *untrusted input*, ``+``
(positive) markings denote regions matched by *trusted program fragments*,
and critical tokens are the ``c`` items obtained by parsing the command.

A verdict has one JSON-serialisable dict form (:func:`verdict_to_dict`,
lossless, so gateway parity is checkable on encoded bytes), and a blocked
query has one audit record (:func:`audit_event`) that wraps it, wherever
it was blocked (DESIGN.md sections 7 and 15).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..sqlparser.tokens import Token

__all__ = [
    "Technique",
    "TaintMarking",
    "Detection",
    "AnalysisResult",
    "QueryVerdict",
    "CodecError",
    "audit_event",
    "dict_to_verdict",
    "failsafe_dict",
    "verdict_to_dict",
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
    on one technique alone.  The field stays because the verdict's dict
    form (the wire payload and the audit event) carries it.
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


# ----------------------------------------------------------------------
# The dict form and the audit event
# ----------------------------------------------------------------------


class CodecError(ValueError):
    """A verdict dict or payload could not be decoded (treat as fail-closed)."""


def _marking_to_dict(marking: TaintMarking) -> dict:
    return {
        "start": marking.start,
        "end": marking.end,
        "technique": marking.technique.value,
        "origin": marking.origin,
        "ratio": marking.ratio,
    }


def _detection_to_dict(detection: Detection) -> dict:
    return {
        "technique": detection.technique.value,
        "reason": detection.reason,
        "token_text": detection.token_text,
        "token_start": detection.token_start,
        "token_end": detection.token_end,
        "input_value": detection.input_value,
    }


def _result_to_dict(result: AnalysisResult | None) -> dict | None:
    if result is None:
        return None
    return {
        "technique": result.technique.value,
        "safe": result.safe,
        "markings": [_marking_to_dict(m) for m in result.markings],
        "detections": [_detection_to_dict(d) for d in result.detections],
        "from_cache": result.from_cache,
    }


def verdict_to_dict(verdict: QueryVerdict) -> dict:
    """Full JSON-serialisable form of one verdict (lossless for parity)."""
    return {
        "query": verdict.query,
        "safe": verdict.safe,
        "degraded": verdict.degraded,
        "failsafe": verdict.failsafe,
        "failure_reasons": list(verdict.failure_reasons),
        "pti": _result_to_dict(verdict.pti),
        "nti": _result_to_dict(verdict.nti),
    }


def failsafe_dict(query: str, reason: str, *, tenant: str | None = None) -> dict:
    """The verdict dict for a query the gateway or a worker refused.

    Sheds, expired-on-arrival deadlines, worker crashes and
    unknown-tenant routing refusals never produce analysis results --
    they produce this: an unsafe, failsafe-flagged verdict with the
    refusal reason recorded.  Shape-identical to :func:`verdict_to_dict`
    of an engine failsafe block so clients handle both uniformly.  When
    ``tenant`` is given (multi-tenant refusals), the tenant id rides as a
    second ``failure_reasons`` entry so audit greps can attribute the
    refusal without parsing the reason text.
    """
    reasons = [reason]
    if tenant is not None:
        reasons.append(f"tenant: {tenant}")
    return {
        "query": query,
        "safe": False,
        "degraded": False,
        "failsafe": True,
        "failure_reasons": reasons,
        "pti": None,
        "nti": None,
    }


def _technique(value: Any) -> Technique:
    try:
        return Technique(value)
    except (ValueError, TypeError) as exc:
        raise CodecError(f"bad technique tag: {value!r}") from exc


def _result_from_dict(data: Any) -> AnalysisResult | None:
    if data is None:
        return None
    if not isinstance(data, Mapping):
        raise CodecError(f"analysis result must be an object, got {type(data)}")
    try:
        markings = [
            TaintMarking(
                start=int(m["start"]),
                end=int(m["end"]),
                technique=_technique(m["technique"]),
                origin=str(m["origin"]),
                ratio=float(m["ratio"]),
            )
            for m in data["markings"]
        ]
        detections = [
            Detection(
                technique=_technique(d["technique"]),
                reason=str(d["reason"]),
                token_text=str(d["token_text"]),
                token_start=int(d["token_start"]),
                token_end=int(d["token_end"]),
                input_value=(
                    None if d["input_value"] is None else str(d["input_value"])
                ),
            )
            for d in data["detections"]
        ]
        return AnalysisResult(
            technique=_technique(data["technique"]),
            safe=bool(data["safe"]),
            markings=markings,
            detections=detections,
            from_cache=(
                None if data["from_cache"] is None else str(data["from_cache"])
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed analysis result: {exc}") from exc


def dict_to_verdict(data: Mapping[str, Any]) -> QueryVerdict:
    """Rebuild a :class:`QueryVerdict` from its dict form (fail-closed)."""
    if not isinstance(data, Mapping):
        raise CodecError(f"verdict must be an object, got {type(data)}")
    try:
        return QueryVerdict(
            query=str(data["query"]),
            safe=bool(data["safe"]),
            pti=_result_from_dict(data["pti"]),
            nti=_result_from_dict(data["nti"]),
            degraded=bool(data["degraded"]),
            failsafe=bool(data["failsafe"]),
            failure_reasons=[str(r) for r in data["failure_reasons"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed verdict: {exc}") from exc


def audit_event(
    verdict: dict,
    request_path: str,
    client_id: str | None = None,
    conn_id: str | None = None,
) -> dict:
    """The audit trail's one record of a blocked query.

    ``verdict`` is the verdict's dict form (:func:`verdict_to_dict` or
    :func:`failsafe_dict`): it says why the query was blocked -- which
    technique flagged which token, or which failure refused it.
    ``client_id`` and ``conn_id`` attribute a block behind the gateway to
    its client (tenant) and connection; both are ``None`` in process.
    """
    return {
        "request_path": request_path,
        "client_id": client_id,
        "conn_id": conn_id,
        "verdict": verdict,
    }
