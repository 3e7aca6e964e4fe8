"""Zero-copy batch wire format for the PTI daemon and gateway pipes (DESIGN.md §11-12).

The PTI daemon pipe and the gateway worker pipe carry nothing but the
frames defined here; on both, an empty message is the shutdown and any
other bytes that are not one of the frames the child accepts (a pickle
included) end the child's loop.  The daemon pipe carries request and
reply frames only.  Pickle would cost a full
object-graph walk per query -- per-token dataclass reduction dominated the
wire time in profiles -- so a whole *batch* travels as one struct-packed
frame each way:

``request``::

    "JZ" | version:B | kind:B=1 | count:H          (6-byte header)
    repeat count:  byte_len:I | utf-8 query bytes

``reply``::

    "JZ" | version:B | kind:B=2 | count:H          (6-byte header)
    stage deltas: 5 doubles (spawn, ipc, parse, match, cache)
    repeat count:
        flags:B    bit0 = safe, bits1-2 = from_cache code
                   (0 none / 1 "query" / 2 "structure"), bit3 = has_tokens
        if has_tokens:  n:H  then n * (type_code:B | start:I | end:I)
                        type_code bit7 = PTI found the token uncovered

Key properties:

- **Pre-sized buffers.**  Frames are assembled with ``struct.pack_into``
  into one exactly-sized ``bytearray`` -- no length-prefix + payload
  concatenation, no intermediate ``bytes`` per field.  The bytearray goes
  straight to ``Connection.send_bytes`` (buffer protocol, no pickle).
- **Tokens travel as spans.**  A reply token is ``(type_code, start,
  end)``: 9 bytes instead of a pickled Token.  The receiver reslices
  ``query[start:end]`` -- sharing the query string it already holds -- and
  recomputes the semantic value.  This is *exact*, not approximate: the
  critical-token types that cross the wire (KEYWORD, IDENTIFIER, OPERATOR,
  PUNCTUATION, COMMENT) all derive ``value`` from ``text`` by the lexer's
  own rule, :func:`~repro.sqlparser.lexer.token_value`, which both ends
  call.  :func:`spans_from_tokens` *verifies* that derivation per
  token at pack time and refuses (``WireFormatError``) on any token it
  could not reconstruct byte-exactly -- the daemon loop then ships that
  reply's verdicts without tokens (the parent re-lexes) rather than ship
  a lossy one.  A span whose type byte carries :data:`SPAN_UNCOVERED`
  is a token PTI found uncovered: the parent rebuilds its detection from
  the span, so a verdict without tokens carries no detections.
- **Fail-closed decoding.**  Every unpack validates magic, version, kind,
  counts, bounds and exact frame length; anything off raises
  :class:`WireFormatError`, which the parent converts to
  :class:`~repro.core.resilience.CorruptReply` (a typed PTI failure --
  never a verdict).

Bounds: :data:`MAX_BATCH` queries per frame and :data:`MAX_FRAME` bytes
per frame.  The daemon splits a larger batch into several frames under
one deadline; the packers refuse anything beyond the bounds, so a runaway
batcher cannot wedge the pipe.

Gateway frames (DESIGN.md section 12).  The async guard gateway
(``repro/service/``) speaks the same magic/version/kind header over unix
and TCP sockets, each frame preceded by a little-endian u32 length prefix
(:data:`PREFIX`), so a listener can refuse an oversized frame *before*
reading its payload:

``gateway request`` (kind 3)::

    "JZ" | version:B | kind:B=3 | count:H        (count = queries)
    budget:d            per-request deadline budget in seconds; NaN means
                        "unbounded" (the server clamps either way)
    client_id: len:H | utf-8    tenant/connection attribution id
    path:      len:H | utf-8    request path for the audit trail
    inputs:    n:H  then n * (source len:H|bytes, name len:H|bytes,
                              value len:I|bytes)   -- the NTI input snapshot
    repeat count:  byte_len:I | utf-8 query bytes

``gateway reply`` (kind 4)::

    header (count = verdicts)
    repeat count:  byte_len:I | verdict payload (UTF-8 JSON, see
                   ``repro.service.codec``)

``gateway error`` (kind 5)::

    header (count = 1)
    code:B | message len:H | utf-8

``report`` (kind 8)::

    header (count = 1)
    byte_len:I | UTF-8 JSON object

The framing layer treats verdict payloads as opaque bytes -- the gateway
codec owns their JSON schema -- so every byte-level failure mode (torn
frame, corrupt header, bad length, trailing junk) is caught here as
:class:`WireFormatError` and both ends resolve it fail-closed.

The gateway worker pipe (DESIGN.md section 12) reuses these frames
without the socket length prefix: the gateway sends a ``gateway request``
carrying the remaining budget and the worker answers with the ``gateway
reply`` the client receives (each verdict encoded once, in the worker) or
a ``gateway error`` for its own failures; tenant overlay pushes are a
``store snapshot`` answered by a ``snapshot ack``; a ``report`` with an
empty object asks for the worker's engine report, which comes back as a
``report``.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Container, Iterable, NamedTuple, Sequence

from ..sqlparser.lexer import token_value
from ..sqlparser.tokens import Token, TokenType

__all__ = [
    "MAGIC",
    "VERSION",
    "KIND_REQUEST",
    "KIND_REPLY",
    "KIND_GW_REQUEST",
    "KIND_GW_REPLY",
    "KIND_GW_ERROR",
    "KIND_SNAPSHOT",
    "KIND_SNAPSHOT_ACK",
    "KIND_REPORT",
    "MAX_BATCH",
    "MAX_FRAME",
    "MAX_INPUTS",
    "PREFIX",
    "SPAN_UNCOVERED",
    "STAGES",
    "WireFormatError",
    "GatewayRequest",
    "GW_ERR_BAD_FRAME",
    "GW_ERR_OVERSIZED",
    "GW_ERR_DRAINING",
    "GW_ERR_INTERNAL",
    "peek_kind",
    "pack_batch_request",
    "unpack_batch_request",
    "pack_batch_reply",
    "unpack_batch_reply",
    "pack_gateway_request",
    "unpack_gateway_request",
    "pack_gateway_reply",
    "unpack_gateway_reply",
    "pack_gateway_error",
    "unpack_gateway_error",
    "pack_store_snapshot",
    "unpack_store_snapshot",
    "pack_snapshot_ack",
    "unpack_snapshot_ack",
    "pack_report",
    "unpack_report",
    "spans_from_tokens",
    "tokens_from_spans",
]

MAGIC = b"JZ"
VERSION = 1
KIND_REQUEST = 1
KIND_REPLY = 2
KIND_GW_REQUEST = 3
KIND_GW_REPLY = 4
KIND_GW_ERROR = 5
KIND_SNAPSHOT = 6
KIND_SNAPSHOT_ACK = 7
KIND_REPORT = 8

#: Hard per-frame bounds.  A frame never carries more than MAX_BATCH
#: queries (larger daemon batches are split); a frame larger than
#: MAX_FRAME bytes is rejected by both packer and unpacker (a
#: length-prefix bomb cannot allocate unbounded memory in either process).
MAX_BATCH = 256
MAX_FRAME = 16 * 1024 * 1024

#: Captured inputs per gateway request (the NTI snapshot of one HTTP
#: request; real requests carry a handful, so a frame declaring thousands
#: is hostile and refused outright).
MAX_INPUTS = 256

#: Socket-level length prefix: every gateway frame travels as
#: ``PREFIX.pack(len(frame)) + frame``.  A listener reads these 4 bytes,
#: bound-checks against :data:`MAX_FRAME`, and only then reads the payload
#: -- a length-prefix bomb never allocates.
PREFIX = struct.Struct("<I")

#: Stage order of the packed deltas block, and the stage names of every
#: PTI backend's ``timings`` counters (built from this tuple).
STAGES = ("spawn", "ipc", "parse", "match", "cache")

_HEADER = struct.Struct("<2sBBH")
_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")
_DELTAS = struct.Struct("<5d")
_TOKEN = struct.Struct("<BII")

#: from_cache wire codes (2 bits of the verdict flags byte).
_CACHE_CODES = {None: 0, "query": 1, "structure": 2}
_CACHE_NAMES = {code: name for name, code in _CACHE_CODES.items()}

#: Token types allowed on the wire -- exactly the types
#: ``critical_tokens`` can emit.  Literals (STRING/NUMBER) never cross:
#: their values are decoded objects that spans cannot reconstruct, and
#: they are never critical tokens in the first place.
_TYPE_CODES = {
    TokenType.KEYWORD: 0,
    TokenType.IDENTIFIER: 1,
    TokenType.OPERATOR: 2,
    TokenType.PUNCTUATION: 3,
    TokenType.COMMENT: 4,
}
_CODE_TYPES = {code: ttype for ttype, code in _TYPE_CODES.items()}

#: Set in a reply span's type byte when PTI found that token uncovered.
SPAN_UNCOVERED = 0x80


class WireFormatError(ValueError):
    """A frame (or a batch about to become one) violates the wire format."""


def peek_kind(frame: bytes) -> int:
    """Validate magic/version and return the frame kind byte.

    Lets a receiver branch on reply-vs-error before committing to a full
    unpack; any header damage raises :class:`WireFormatError` so the
    caller's only options are a typed refusal or a clean disconnect.
    """
    if len(frame) < _HEADER.size:
        raise WireFormatError(f"truncated header: {len(frame)} bytes")
    magic, version, kind, _count = _HEADER.unpack_from(frame, 0)
    if magic != MAGIC:
        raise WireFormatError(f"bad magic: {magic!r}")
    if version != VERSION:
        raise WireFormatError(f"unsupported wire version: {version}")
    return kind


def spans_from_tokens(
    tokens: Iterable[Token], uncovered: Container[tuple[int, int]] = ()
) -> list[tuple[int, int, int]]:
    """Compress tokens to ``(type_code, start, end)`` wire spans.

    A token whose ``(start, end)`` is in ``uncovered`` gets
    :data:`SPAN_UNCOVERED` in its type code.  Raises
    :class:`WireFormatError` for any token whose exact ``(type,
    text, value)`` could not be rebuilt from its span alone -- unknown
    type, span/text disagreement, or a value differing from the lexer
    derivation.  Callers treat that as "this reply cannot use the packed
    format", not as a failure of the analysis.
    """
    spans: list[tuple[int, int, int]] = []
    for token in tokens:
        code = _TYPE_CODES.get(token.type)
        if code is None:
            raise WireFormatError(f"token type not wire-packable: {token.type}")
        if token.value != token_value(token.type, token.text):
            raise WireFormatError(f"token value not derivable from span: {token!r}")
        if uncovered and (token.start, token.end) in uncovered:
            code |= SPAN_UNCOVERED
        spans.append((code, token.start, token.end))
    return spans


def tokens_from_spans(
    query: str, spans: Iterable[tuple[int, int, int]]
) -> list[Token]:
    """Rebuild exact :class:`Token` objects from wire spans.

    ``text`` is resliced from ``query`` (sharing the string the caller
    already holds) and ``value`` recomputed by
    :func:`~repro.sqlparser.lexer.token_value`; the result is equal, field
    for field, to the tokens the remote lexer produced.  The
    :data:`SPAN_UNCOVERED` flag is ignored here; any other unknown bit
    is an unknown code.
    """
    n = len(query)
    out: list[Token] = []
    for code, start, end in spans:
        ttype = _CODE_TYPES.get(code & ~SPAN_UNCOVERED)
        if ttype is None:
            raise WireFormatError(f"unknown token type code: {code}")
        if not (0 <= start <= end <= n):
            raise WireFormatError(
                f"token span [{start}:{end}) outside query of length {n}"
            )
        text = query[start:end]
        out.append(Token(ttype, text, start, end, value=token_value(ttype, text)))
    return out


# ----------------------------------------------------------------------
# Request frames
# ----------------------------------------------------------------------


def pack_batch_request(queries: Sequence[str]) -> bytearray:
    """Pack a query batch into one pre-sized request frame.

    Returns a :class:`bytearray` sized exactly to the frame; hand it to
    ``Connection.send_bytes`` directly (it satisfies the buffer protocol,
    so no further copy or pickling happens on send).
    """
    count = len(queries)
    if count == 0:
        raise WireFormatError("empty batch")
    if count > MAX_BATCH:
        raise WireFormatError(f"batch of {count} exceeds MAX_BATCH={MAX_BATCH}")
    # surrogatepass: round-trips every Python str, including lone
    # surrogates smuggled in by hostile byte sequences.
    encoded = [q.encode("utf-8", "surrogatepass") for q in queries]
    total = _HEADER.size + sum(_U32.size + len(qb) for qb in encoded)
    if total > MAX_FRAME:
        raise WireFormatError(f"frame of {total} bytes exceeds MAX_FRAME={MAX_FRAME}")
    frame = bytearray(total)
    _HEADER.pack_into(frame, 0, MAGIC, VERSION, KIND_REQUEST, count)
    offset = _HEADER.size
    for qb in encoded:
        _U32.pack_into(frame, offset, len(qb))
        offset += _U32.size
        frame[offset : offset + len(qb)] = qb
        offset += len(qb)
    return frame


def _check_header(frame: bytes, expected_kind: int) -> int:
    if len(frame) > MAX_FRAME:
        raise WireFormatError(f"frame of {len(frame)} bytes exceeds MAX_FRAME")
    if len(frame) < _HEADER.size:
        raise WireFormatError(f"truncated header: {len(frame)} bytes")
    magic, version, kind, count = _HEADER.unpack_from(frame, 0)
    if magic != MAGIC:
        raise WireFormatError(f"bad magic: {magic!r}")
    if version != VERSION:
        raise WireFormatError(f"unsupported wire version: {version}")
    if kind != expected_kind:
        raise WireFormatError(f"unexpected frame kind: {kind} != {expected_kind}")
    if not 0 < count <= MAX_BATCH:
        raise WireFormatError(f"frame count out of range: {count}")
    return count


def unpack_batch_request(frame: bytes) -> list[str]:
    """Decode a request frame back into its query list (fail-closed)."""
    count = _check_header(frame, KIND_REQUEST)
    queries: list[str] = []
    offset = _HEADER.size
    n = len(frame)
    for _ in range(count):
        if offset + _U32.size > n:
            raise WireFormatError("truncated query length prefix")
        (blen,) = _U32.unpack_from(frame, offset)
        offset += _U32.size
        if offset + blen > n:
            raise WireFormatError("truncated query payload")
        queries.append(
            _decode_text(bytes(frame[offset : offset + blen]), "query")
        )
        offset += blen
    if offset != n:
        raise WireFormatError(f"{n - offset} trailing bytes after request frame")
    return queries


# ----------------------------------------------------------------------
# Reply frames
# ----------------------------------------------------------------------

_F_SAFE = 0x01
_F_CACHE_SHIFT = 1
_F_CACHE_MASK = 0x06
_F_HAS_TOKENS = 0x08


def pack_batch_reply(
    verdicts: Sequence[tuple[bool, str | None, Sequence[tuple[int, int, int]] | None]],
    deltas: dict[str, float],
) -> bytearray:
    """Pack per-query verdicts plus one batch-level stage-delta block.

    Each verdict is ``(safe, from_cache, spans)`` with ``spans`` from
    :func:`spans_from_tokens` (or ``None`` for a cache hit that carried no
    tokens).  ``deltas`` holds the child's stage-timing deltas for the
    whole batch -- one block per frame, since the parent attributes
    timings per round-trip, not per query.
    """
    count = len(verdicts)
    if count == 0:
        raise WireFormatError("empty reply batch")
    if count > MAX_BATCH:
        raise WireFormatError(f"reply batch of {count} exceeds MAX_BATCH={MAX_BATCH}")
    total = _HEADER.size + _DELTAS.size
    for _safe, from_cache, spans in verdicts:
        if from_cache not in _CACHE_CODES:
            raise WireFormatError(f"unknown from_cache: {from_cache!r}")
        total += 1
        if spans is not None:
            if len(spans) > 0xFFFF:
                raise WireFormatError(f"too many tokens in reply: {len(spans)}")
            total += _U16.size + _TOKEN.size * len(spans)
    if total > MAX_FRAME:
        raise WireFormatError(f"frame of {total} bytes exceeds MAX_FRAME={MAX_FRAME}")
    frame = bytearray(total)
    _HEADER.pack_into(frame, 0, MAGIC, VERSION, KIND_REPLY, count)
    offset = _HEADER.size
    _DELTAS.pack_into(frame, offset, *(deltas.get(stage, 0.0) for stage in STAGES))
    offset += _DELTAS.size
    for safe, from_cache, spans in verdicts:
        flags = (_F_SAFE if safe else 0) | (
            _CACHE_CODES[from_cache] << _F_CACHE_SHIFT
        )
        if spans is not None:
            flags |= _F_HAS_TOKENS
        frame[offset] = flags
        offset += 1
        if spans is not None:
            _U16.pack_into(frame, offset, len(spans))
            offset += _U16.size
            for code, start, end in spans:
                _TOKEN.pack_into(frame, offset, code, start, end)
                offset += _TOKEN.size
    return frame


def unpack_batch_reply(
    frame: bytes,
) -> tuple[
    list[tuple[bool, str | None, list[tuple[int, int, int]] | None]],
    dict[str, float],
]:
    """Decode a reply frame: ``(verdicts, stage_deltas)`` (fail-closed)."""
    count = _check_header(frame, KIND_REPLY)
    n = len(frame)
    offset = _HEADER.size
    if offset + _DELTAS.size > n:
        raise WireFormatError("truncated stage-delta block")
    values = _DELTAS.unpack_from(frame, offset)
    offset += _DELTAS.size
    deltas = dict(zip(STAGES, values))
    verdicts: list[tuple[bool, str | None, list[tuple[int, int, int]] | None]] = []
    for _ in range(count):
        if offset >= n:
            raise WireFormatError("truncated verdict flags")
        flags = frame[offset]
        offset += 1
        if flags & ~(_F_SAFE | _F_CACHE_MASK | _F_HAS_TOKENS):
            raise WireFormatError(f"unknown verdict flag bits: 0x{flags:02x}")
        cache_code = (flags & _F_CACHE_MASK) >> _F_CACHE_SHIFT
        if cache_code not in _CACHE_NAMES:
            raise WireFormatError(f"unknown from_cache code: {cache_code}")
        spans: list[tuple[int, int, int]] | None = None
        if flags & _F_HAS_TOKENS:
            if offset + _U16.size > n:
                raise WireFormatError("truncated token count")
            (ntok,) = _U16.unpack_from(frame, offset)
            offset += _U16.size
            if offset + _TOKEN.size * ntok > n:
                raise WireFormatError("truncated token spans")
            spans = []
            for _ in range(ntok):
                spans.append(_TOKEN.unpack_from(frame, offset))
                offset += _TOKEN.size
        verdicts.append((bool(flags & _F_SAFE), _CACHE_NAMES[cache_code], spans))
    if offset != n:
        raise WireFormatError(f"{n - offset} trailing bytes after reply frame")
    return verdicts, deltas


# ----------------------------------------------------------------------
# Gateway frames (network sidecar protocol, DESIGN.md section 12)
# ----------------------------------------------------------------------

_BUDGET = struct.Struct("<d")


class GatewayRequest(NamedTuple):
    """One decoded gateway request: what a client asked the sidecar to vet."""

    queries: list[str]
    client_id: str
    path: str
    #: ``(source, name, value)`` triples -- the raw NTI input snapshot.
    inputs: list[tuple[str, str, str]]
    #: Remaining client deadline budget in seconds; ``None`` = unbounded
    #: (the server clamps either way).  Zero/negative values are shipped
    #: verbatim so the server can shed expired-on-arrival requests.
    budget: float | None


def _pack_str16(parts: list[bytes], text: str) -> int:
    raw = text.encode("utf-8", "surrogatepass")
    if len(raw) > 0xFFFF:
        raise WireFormatError(f"string field of {len(raw)} bytes exceeds u16")
    parts.append(_U16.pack(len(raw)))
    parts.append(raw)
    return _U16.size + len(raw)


def _decode_text(raw: bytes, what: str) -> str:
    """UTF-8 (surrogatepass) decode; damage -> :class:`WireFormatError`.

    ``surrogatepass`` round-trips lone surrogates but still rejects
    arbitrary invalid byte sequences, so a byte-mangled frame fails closed
    here instead of leaking :class:`UnicodeDecodeError` past the wire
    layer.
    """
    try:
        return raw.decode("utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"undecodable {what}: {exc}") from exc


def _unpack_str16(frame: bytes, offset: int, what: str) -> tuple[str, int]:
    if offset + _U16.size > len(frame):
        raise WireFormatError(f"truncated {what} length")
    (blen,) = _U16.unpack_from(frame, offset)
    offset += _U16.size
    if offset + blen > len(frame):
        raise WireFormatError(f"truncated {what} payload")
    text = _decode_text(bytes(frame[offset : offset + blen]), what)
    return text, offset + blen


def pack_gateway_request(
    queries: Sequence[str],
    *,
    client_id: str = "",
    path: str = "/",
    inputs: Sequence[tuple[str, str, str]] = (),
    budget: float | None = None,
) -> bytes:
    """Pack one client request frame (queries + context + deadline budget)."""
    count = len(queries)
    if count == 0:
        raise WireFormatError("empty gateway batch")
    if count > MAX_BATCH:
        raise WireFormatError(f"batch of {count} exceeds MAX_BATCH={MAX_BATCH}")
    if len(inputs) > MAX_INPUTS:
        raise WireFormatError(
            f"{len(inputs)} inputs exceed MAX_INPUTS={MAX_INPUTS}"
        )
    parts: list[bytes] = [
        _HEADER.pack(MAGIC, VERSION, KIND_GW_REQUEST, count),
        _BUDGET.pack(math.nan if budget is None else float(budget)),
    ]
    _pack_str16(parts, client_id)
    _pack_str16(parts, path)
    parts.append(_U16.pack(len(inputs)))
    for source, name, value in inputs:
        _pack_str16(parts, source)
        _pack_str16(parts, name)
        raw = value.encode("utf-8", "surrogatepass")
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    for query in queries:
        raw = query.encode("utf-8", "surrogatepass")
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    frame = b"".join(parts)
    if len(frame) > MAX_FRAME:
        raise WireFormatError(
            f"frame of {len(frame)} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    return frame


def unpack_gateway_request(frame: bytes) -> GatewayRequest:
    """Decode a client request frame (fail-closed on any damage)."""
    count = _check_header(frame, KIND_GW_REQUEST)
    n = len(frame)
    offset = _HEADER.size
    if offset + _BUDGET.size > n:
        raise WireFormatError("truncated deadline budget")
    (raw_budget,) = _BUDGET.unpack_from(frame, offset)
    offset += _BUDGET.size
    budget = None if math.isnan(raw_budget) else raw_budget
    if budget is not None and math.isinf(budget):
        raise WireFormatError(f"non-finite deadline budget: {raw_budget!r}")
    client_id, offset = _unpack_str16(frame, offset, "client id")
    path, offset = _unpack_str16(frame, offset, "path")
    if offset + _U16.size > n:
        raise WireFormatError("truncated input count")
    (ninputs,) = _U16.unpack_from(frame, offset)
    offset += _U16.size
    if ninputs > MAX_INPUTS:
        raise WireFormatError(f"{ninputs} inputs exceed MAX_INPUTS={MAX_INPUTS}")
    inputs: list[tuple[str, str, str]] = []
    for _ in range(ninputs):
        source, offset = _unpack_str16(frame, offset, "input source")
        name, offset = _unpack_str16(frame, offset, "input name")
        if offset + _U32.size > n:
            raise WireFormatError("truncated input value length")
        (blen,) = _U32.unpack_from(frame, offset)
        offset += _U32.size
        if offset + blen > n:
            raise WireFormatError("truncated input value payload")
        value = _decode_text(bytes(frame[offset : offset + blen]), "input value")
        offset += blen
        inputs.append((source, name, value))
    queries: list[str] = []
    for _ in range(count):
        if offset + _U32.size > n:
            raise WireFormatError("truncated query length prefix")
        (blen,) = _U32.unpack_from(frame, offset)
        offset += _U32.size
        if offset + blen > n:
            raise WireFormatError("truncated query payload")
        queries.append(
            _decode_text(bytes(frame[offset : offset + blen]), "query")
        )
        offset += blen
    if offset != n:
        raise WireFormatError(f"{n - offset} trailing bytes after request frame")
    return GatewayRequest(queries, client_id, path, inputs, budget)


def pack_gateway_reply(payloads: Sequence[bytes]) -> bytes:
    """Pack per-query verdict payloads (opaque bytes, one per query).

    The payload schema (UTF-8 verdict JSON) belongs to
    ``repro.service.codec``; this layer only guarantees the count and the
    byte boundaries survive the wire intact.
    """
    count = len(payloads)
    if count == 0:
        raise WireFormatError("empty gateway reply")
    if count > MAX_BATCH:
        raise WireFormatError(f"reply of {count} exceeds MAX_BATCH={MAX_BATCH}")
    parts: list[bytes] = [_HEADER.pack(MAGIC, VERSION, KIND_GW_REPLY, count)]
    for payload in payloads:
        parts.append(_U32.pack(len(payload)))
        parts.append(bytes(payload))
    frame = b"".join(parts)
    if len(frame) > MAX_FRAME:
        raise WireFormatError(
            f"frame of {len(frame)} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    return frame


def unpack_gateway_reply(frame: bytes) -> list[bytes]:
    """Decode a reply frame into its verdict payloads (fail-closed)."""
    count = _check_header(frame, KIND_GW_REPLY)
    n = len(frame)
    offset = _HEADER.size
    payloads: list[bytes] = []
    for _ in range(count):
        if offset + _U32.size > n:
            raise WireFormatError("truncated verdict length prefix")
        (blen,) = _U32.unpack_from(frame, offset)
        offset += _U32.size
        if offset + blen > n:
            raise WireFormatError("truncated verdict payload")
        payloads.append(bytes(frame[offset : offset + blen]))
        offset += blen
    if offset != n:
        raise WireFormatError(f"{n - offset} trailing bytes after reply frame")
    return payloads


#: Gateway error codes.  Every one resolves fail-closed at the client; the
#: code only attributes *why* (admission shed vs protocol damage vs drain).
GW_ERR_BAD_FRAME = 1
GW_ERR_OVERSIZED = 2
GW_ERR_DRAINING = 3
GW_ERR_INTERNAL = 4

_GW_ERROR_CODES = frozenset(
    {GW_ERR_BAD_FRAME, GW_ERR_OVERSIZED, GW_ERR_DRAINING, GW_ERR_INTERNAL}
)


def pack_gateway_error(code: int, message: str) -> bytes:
    """Pack a protocol-level refusal (always fail-closed client-side)."""
    if code not in _GW_ERROR_CODES:
        raise WireFormatError(f"unknown gateway error code: {code}")
    parts: list[bytes] = [
        _HEADER.pack(MAGIC, VERSION, KIND_GW_ERROR, 1),
        struct.pack("<B", code),
    ]
    _pack_str16(parts, message)
    return b"".join(parts)


def unpack_gateway_error(frame: bytes) -> tuple[int, str]:
    """Decode an error frame: ``(code, message)`` (fail-closed)."""
    count = _check_header(frame, KIND_GW_ERROR)
    if count != 1:
        raise WireFormatError(f"gateway error frame count must be 1, got {count}")
    n = len(frame)
    offset = _HEADER.size
    if offset + 1 > n:
        raise WireFormatError("truncated gateway error code")
    code = frame[offset]
    offset += 1
    if code not in _GW_ERROR_CODES:
        raise WireFormatError(f"unknown gateway error code: {code}")
    message, offset = _unpack_str16(frame, offset, "error message")
    if offset != n:
        raise WireFormatError(f"{n - offset} trailing bytes after error frame")
    return code, message


# ----------------------------------------------------------------------
# Fragment-store snapshot frames (tenancy replication push)
# ----------------------------------------------------------------------
#
# One frame carries one fragment list plus its epoch and owning tenant
# (DESIGN.md section 13): a tenant overlay the gateway pushes to its
# workers, or a checkpoint's store.  The gateway packs it once per reload
# for the whole fleet, so N workers pay one serialisation, not N.  The
# header ``count`` field is fixed at 1 (one store per frame); the real
# fragment count is a u32 in the body because paper-scale vocabularies
# exceed the u16 header field.  A worker acknowledges with a
# KIND_SNAPSHOT_ACK, sent only after the new overlay is applied *and
# warmed*, echoing the epoch its own tenant registry assigned (the
# gateway keeps no store epochs).

_I64 = struct.Struct("<q")


def pack_store_snapshot(
    fragments: Sequence[str], epoch: int, tenant: str = ""
) -> bytearray:
    """Pack one store snapshot into a pre-sized replication frame."""
    encoded = [f.encode("utf-8", "surrogatepass") for f in fragments]
    if len(encoded) > 0xFFFFFFFF:
        raise WireFormatError(f"snapshot of {len(encoded)} fragments exceeds u32")
    tenant_raw = tenant.encode("utf-8", "surrogatepass")
    if len(tenant_raw) > 0xFFFF:
        raise WireFormatError(f"tenant id of {len(tenant_raw)} bytes exceeds u16")
    total = (
        _HEADER.size
        + _I64.size
        + _U16.size
        + len(tenant_raw)
        + _U32.size
        + sum(_U32.size + len(fb) for fb in encoded)
    )
    if total > MAX_FRAME:
        raise WireFormatError(
            f"snapshot frame of {total} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    frame = bytearray(total)
    _HEADER.pack_into(frame, 0, MAGIC, VERSION, KIND_SNAPSHOT, 1)
    offset = _HEADER.size
    _I64.pack_into(frame, offset, epoch)
    offset += _I64.size
    _U16.pack_into(frame, offset, len(tenant_raw))
    offset += _U16.size
    frame[offset : offset + len(tenant_raw)] = tenant_raw
    offset += len(tenant_raw)
    _U32.pack_into(frame, offset, len(encoded))
    offset += _U32.size
    for fb in encoded:
        _U32.pack_into(frame, offset, len(fb))
        offset += _U32.size
        frame[offset : offset + len(fb)] = fb
        offset += len(fb)
    return frame


def unpack_store_snapshot(frame: bytes) -> tuple[str, int, list[str]]:
    """Decode a snapshot frame: ``(tenant, epoch, fragments)`` (fail-closed)."""
    count = _check_header(frame, KIND_SNAPSHOT)
    if count != 1:
        raise WireFormatError(f"snapshot frame count must be 1, got {count}")
    n = len(frame)
    offset = _HEADER.size
    if offset + _I64.size > n:
        raise WireFormatError("truncated snapshot epoch")
    (epoch,) = _I64.unpack_from(frame, offset)
    offset += _I64.size
    tenant, offset = _unpack_str16(frame, offset, "tenant id")
    if offset + _U32.size > n:
        raise WireFormatError("truncated snapshot fragment count")
    (nfrags,) = _U32.unpack_from(frame, offset)
    offset += _U32.size
    # Each fragment costs at least its u32 length prefix; a count the
    # remaining bytes cannot possibly hold is a hostile header.
    if nfrags * _U32.size > n - offset:
        raise WireFormatError(f"snapshot fragment count out of range: {nfrags}")
    fragments: list[str] = []
    for _ in range(nfrags):
        if offset + _U32.size > n:
            raise WireFormatError("truncated fragment length prefix")
        (blen,) = _U32.unpack_from(frame, offset)
        offset += _U32.size
        if offset + blen > n:
            raise WireFormatError("truncated fragment payload")
        fragments.append(
            _decode_text(bytes(frame[offset : offset + blen]), "fragment")
        )
        offset += blen
    if offset != n:
        raise WireFormatError(f"{n - offset} trailing bytes after snapshot frame")
    return tenant, epoch, fragments


def pack_snapshot_ack(epoch: int) -> bytes:
    """Pack the child's applied-and-warm acknowledgement for ``epoch``."""
    return _HEADER.pack(MAGIC, VERSION, KIND_SNAPSHOT_ACK, 1) + _I64.pack(epoch)


def unpack_snapshot_ack(frame: bytes) -> int:
    """Decode an ack frame back to the applied epoch (fail-closed)."""
    count = _check_header(frame, KIND_SNAPSHOT_ACK)
    if count != 1:
        raise WireFormatError(f"snapshot ack count must be 1, got {count}")
    if len(frame) != _HEADER.size + _I64.size:
        raise WireFormatError(f"snapshot ack of {len(frame)} bytes is malformed")
    (epoch,) = _I64.unpack_from(frame, _HEADER.size)
    return epoch


# ----------------------------------------------------------------------
# Report frames (gateway worker operator surface)
# ----------------------------------------------------------------------


def pack_report(report: dict) -> bytes:
    """Pack one JSON object (a worker's engine report, or ``{}`` to ask)."""
    raw = json.dumps(report, separators=(",", ":")).encode("utf-8")
    frame = _HEADER.pack(MAGIC, VERSION, KIND_REPORT, 1) + _U32.pack(len(raw)) + raw
    if len(frame) > MAX_FRAME:
        raise WireFormatError(
            f"frame of {len(frame)} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    return frame


def unpack_report(frame: bytes) -> dict:
    """Decode a report frame back to its JSON object (fail-closed)."""
    count = _check_header(frame, KIND_REPORT)
    if count != 1:
        raise WireFormatError(f"report frame count must be 1, got {count}")
    offset = _HEADER.size
    if offset + _U32.size > len(frame):
        raise WireFormatError("truncated report length")
    (blen,) = _U32.unpack_from(frame, offset)
    offset += _U32.size
    if offset + blen != len(frame):
        raise WireFormatError(
            f"report payload of {len(frame) - offset} bytes, header says {blen}"
        )
    try:
        report = json.loads(bytes(frame[offset:]).decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireFormatError(f"undecodable report: {exc}") from exc
    if not isinstance(report, dict):
        raise WireFormatError(f"report must be a JSON object, got {type(report)}")
    return report
