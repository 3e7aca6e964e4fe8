"""Verdict payload codec for the gateway wire protocol.

The wire layer (:mod:`repro.pti.wire`) treats per-query verdicts as opaque
byte strings; this module owns their schema: a canonical JSON rendering of
:class:`~repro.core.verdict.QueryVerdict` that is deterministic (sorted
keys, compact separators) so the parity acceptance criterion -- gateway
verdicts byte-identical to in-process ``inspect_batch`` -- is checkable by
comparing encoded bytes directly.

Decoding is fail-closed: any payload that is not a well-formed verdict
document raises :class:`CodecError`, which clients must treat as a block.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from ..core.verdict import (
    AnalysisResult,
    Detection,
    QueryVerdict,
    TaintMarking,
    Technique,
)

__all__ = [
    "CodecError",
    "verdict_to_dict",
    "dict_to_verdict",
    "encode_verdict",
    "decode_verdict",
    "failsafe_dict",
    "payload_is_safe",
]


class CodecError(ValueError):
    """A verdict payload could not be decoded (treat as fail-closed)."""


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
    """The verdict dict for a query the gateway itself refused.

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


def encode_verdict(data: Mapping[str, Any]) -> bytes:
    """Canonical JSON bytes of a verdict dict (deterministic: sorted keys)."""
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def payload_is_safe(payload: bytes) -> bool:
    """Whether an :func:`encode_verdict` payload says ``"safe": true``.

    The encoding sorts keys and ``"safe"`` sorts last of the seven verdict
    keys, so every payload ends with its ``"safe"`` member: ``"safe":true}``
    exactly when the verdict is safe, whatever its query or reasons hold.
    The gateway uses this to journal a reply's unsafe verdicts without
    decoding the safe ones.
    """
    return payload.endswith(b'"safe":true}')


def decode_verdict(payload: bytes) -> dict:
    """Parse verdict payload bytes; :class:`CodecError` on any damage.

    Returns the raw dict (use :func:`dict_to_verdict` to hydrate).  The
    returned dict is validated to at least carry the mandatory keys with
    sane types, so a mangled-but-parseable payload cannot smuggle a PASS:
    ``safe`` must be literally ``True`` to be treated as safe downstream,
    and anything that fails validation here raises.
    """
    try:
        data = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"undecodable verdict payload: {exc}") from exc
    if not isinstance(data, dict):
        raise CodecError(f"verdict payload must be an object, got {type(data)}")
    for key in ("query", "safe", "degraded", "failsafe", "failure_reasons"):
        if key not in data:
            raise CodecError(f"verdict payload missing {key!r}")
    if not isinstance(data["safe"], bool):
        raise CodecError(f"verdict 'safe' must be a bool, got {data['safe']!r}")
    return data
