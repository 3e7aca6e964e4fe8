"""Verdict payload bytes for the gateway wire protocol.

The wire layer (:mod:`repro.pti.wire`) treats per-query verdicts as opaque
byte strings; this module turns a verdict's dict form
(:func:`~repro.core.verdict.verdict_to_dict`, which owns the schema) into
canonical JSON bytes and back.  The encoding is deterministic (sorted
keys, compact separators) so the parity acceptance criterion -- gateway
verdicts byte-identical to in-process ``inspect_batch`` -- is checkable by
comparing encoded bytes directly.

Decoding is fail-closed: any payload that is not a well-formed verdict
document raises :class:`~repro.core.verdict.CodecError`, which clients
must treat as a block.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from ..core.verdict import CodecError

__all__ = ["encode_verdict", "decode_verdict", "payload_is_safe"]


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
    The gateway uses this to audit a reply's unsafe verdicts without
    decoding the safe ones.
    """
    return payload.endswith(b'"safe":true}')


def decode_verdict(payload: bytes) -> dict:
    """Parse verdict payload bytes; :class:`CodecError` on any damage.

    Returns the raw dict (use
    :func:`~repro.core.verdict.dict_to_verdict` to hydrate).  The
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
