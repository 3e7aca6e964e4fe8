"""CRC32-framed append-only write-ahead journal (DESIGN.md section 15).

One journal file records what changed in a gateway's durable state since
its last checkpoint: tenant overlays and attack-audit events.  The
framing reuses the length-prefixed discipline of :mod:`repro.pti.wire`
-- every structural field is bound-checked before any allocation, and
every decode failure is a typed refusal, never a partial result:

``file``::

    magic: 8 bytes = b"JZJL\\x01\\x00\\x00\\x00"
    repeat:  record

``record``::

    payload_len:I | crc32(seq || payload):I | seq:Q | payload bytes

``payload``::

    kind:B | body       (see the REC_* constants)

``seq`` is a strictly increasing per-record sequence number.  It exists
for exactly one reason: a checkpoint records the highest sequence it
compacted (in its seal), so if a crash lands between "checkpoint
durable" and "journal truncated", replay skips the records the
checkpoint already absorbed instead of double-applying them -- the
audit trail stays exact, not merely contents-idempotent.

Append discipline (the WAL contract): a mutation is written to the
journal *before* it is applied in memory, each record in a single
``write`` call, so a crash at any byte leaves the file a clean prefix of
whole records plus at most one torn tail.  Replay classifies damage into
exactly two cases:

- **torn tail** -- the file ends before the last record's declared bytes
  arrive (crash mid-append).  The tail is truncated and the durable
  prefix restored; this is the expected crash shape and is counted, not
  refused.
- **corruption** -- a *complete* record whose CRC32 does not match, an
  out-of-bounds declared length, or a damaged file magic.  This is not a
  crash shape (single-``write`` appends tear, they do not scramble), so
  replay raises :class:`JournalCorrupt` and the caller must refuse to
  serve -- fail closed, never a silently wrong state.

One ambiguity is fundamental and documented: a bit flip that *increases*
the final record's length field is indistinguishable from a torn tail,
so it truncates to the prior record instead of refusing.  The failure
direction is still conservative -- state is lost, never invented -- and
the journal fuzz suite pins exactly this contract.

Durability knobs: :class:`FsyncPolicy` selects fsync-per-append
(``ALWAYS``), group commit (``BATCH``: fsync once per
``batch_size`` appends or explicit :meth:`JournalWriter.commit`) or
OS-buffered (``NEVER``, benches and tests).
"""

from __future__ import annotations

import enum
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..pti.wire import MAX_FRAME

__all__ = [
    "FILE_MAGIC",
    "MAX_RECORD",
    "REC_AUDIT",
    "REC_SNAPSHOT",
    "REC_TENANT_OVERLAY",
    "REC_SEAL",
    "FsyncPolicy",
    "JournalCorrupt",
    "JournalScan",
    "JournalWriter",
    "scan_journal",
    "encode_audit",
    "encode_snapshot",
    "encode_tenant_overlay",
    "encode_seal",
    "decode_record",
]

#: Journal file magic (8 bytes, written first in its own ``write``): name,
#: format version, reserved.  A torn magic means the crash happened during
#: file creation -- nothing was durable yet -- so it truncates to empty;
#: a *wrong* complete magic is corruption.
FILE_MAGIC = b"JZJL\x01\x00\x00\x00"

#: Hard per-record bound, shared with the wire layer: a declared length
#: beyond this is hostile or corrupt, refused before any allocation.
MAX_RECORD = MAX_FRAME

_REC_HEADER = struct.Struct("<II")  # payload_len, crc32(seq || payload)
_SEQ = struct.Struct("<Q")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: Record kinds (the payload's leading byte).  Kinds 1-3 are retired: a
#: journal holding one fails closed as an unknown kind, so they must not
#: be reused.
REC_AUDIT = 4  # one attack-audit event (UTF-8 JSON object)
REC_SNAPSHOT = 5  # embedded pack_store_snapshot frame (checkpoints)
REC_TENANT_OVERLAY = 6  # tenant-id -> overlay fragment list
REC_SEAL = 7  # checkpoint seal: record count precedes it

_KNOWN_KINDS = frozenset({REC_AUDIT, REC_SNAPSHOT, REC_TENANT_OVERLAY, REC_SEAL})


class JournalCorrupt(Exception):
    """Durable state failed verification; the owner must refuse to serve.

    Raised for mid-stream CRC mismatches, impossible lengths, bad magic,
    undecodable payloads and unsealed checkpoints.  Never raised for a
    torn tail -- that is the expected crash shape and truncates instead.
    The guard's posture on this error is strictly fail-closed: better no
    gateway than one vetting queries against a silently wrong vocabulary.
    """

    def __init__(self, reason: str, *, path: str | None = None) -> None:
        super().__init__(f"{path}: {reason}" if path else reason)
        self.reason = reason
        self.path = path


class FsyncPolicy(enum.Enum):
    """When appended records are forced to stable storage.

    ``ALWAYS``: fsync after every append -- strongest durability, one
    disk flush per mutation.  ``BATCH`` (default): group commit -- fsync
    once per ``batch_size`` appends and on every explicit
    :meth:`JournalWriter.commit`; a crash can lose at most the last
    un-committed group, never tear what was committed.  ``NEVER``: leave
    flushing to the OS (benches, tests, throwaway state).
    """

    ALWAYS = "always"
    BATCH = "batch"
    NEVER = "never"

    @classmethod
    def from_name(cls, name: str) -> "FsyncPolicy":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(
                f"unknown fsync policy {name!r} (want always/batch/never)"
            ) from None


# ----------------------------------------------------------------------
# Payload codecs
# ----------------------------------------------------------------------


def _encode_str_list(kind: int, fragments: Sequence[str]) -> bytes:
    encoded = [f.encode("utf-8", "surrogatepass") for f in fragments]
    parts = [bytes([kind]), _U32.pack(len(encoded))]
    for raw in encoded:
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    payload = b"".join(parts)
    if len(payload) > MAX_RECORD:
        raise JournalCorrupt(
            f"record of {len(payload)} bytes exceeds MAX_RECORD={MAX_RECORD}"
        )
    return payload


def _decode_text(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        raise JournalCorrupt(f"undecodable {what}: {exc}") from exc


def _decode_str_list(payload: bytes, offset: int, what: str) -> list[str]:
    n = len(payload)
    if offset + _U32.size > n:
        raise JournalCorrupt(f"truncated {what} count")
    (count,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    # Each entry costs at least its length prefix; a count the remaining
    # bytes cannot hold is corrupt, refused before any allocation.
    if count * _U32.size > n - offset:
        raise JournalCorrupt(f"{what} count out of range: {count}")
    out: list[str] = []
    for _ in range(count):
        if offset + _U32.size > n:
            raise JournalCorrupt(f"truncated {what} length prefix")
        (blen,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        if offset + blen > n:
            raise JournalCorrupt(f"truncated {what} payload")
        out.append(_decode_text(payload[offset : offset + blen], what))
        offset += blen
    if offset != n:
        raise JournalCorrupt(f"{n - offset} trailing bytes after {what} record")
    return out


def encode_audit(record: dict) -> bytes:
    """One attack-audit event as canonical UTF-8 JSON."""
    raw = json.dumps(record, sort_keys=True, separators=(",", ":")).encode(
        "utf-8", "surrogatepass"
    )
    payload = bytes([REC_AUDIT]) + _U32.pack(len(raw)) + raw
    if len(payload) > MAX_RECORD:
        raise JournalCorrupt(f"audit record of {len(payload)} bytes exceeds MAX_RECORD")
    return payload


def encode_snapshot(frame: bytes) -> bytes:
    """Embed one ``pack_store_snapshot`` frame (checkpoint files)."""
    payload = bytes([REC_SNAPSHOT]) + _U32.pack(len(frame)) + bytes(frame)
    if len(payload) > MAX_RECORD:
        raise JournalCorrupt(f"snapshot record of {len(payload)} bytes exceeds MAX_RECORD")
    return payload


def encode_tenant_overlay(tenant_id: str, fragments: Sequence[str]) -> bytes:
    """One tenant's full overlay vocabulary (control-plane replication)."""
    tid = tenant_id.encode("utf-8", "surrogatepass")
    if len(tid) > 0xFFFF:
        raise JournalCorrupt(f"tenant id of {len(tid)} bytes exceeds u16")
    body = _encode_str_list(REC_TENANT_OVERLAY, fragments)
    payload = body[:1] + struct.pack("<H", len(tid)) + tid + body[1:]
    if len(payload) > MAX_RECORD:
        raise JournalCorrupt(f"overlay record of {len(payload)} bytes exceeds MAX_RECORD")
    return payload


def encode_seal(record_count: int, journal_seq: int) -> bytes:
    """Checkpoint seal: record count preceding it + the highest journal
    sequence number this checkpoint compacted (replay skips <= it)."""
    return bytes([REC_SEAL]) + _U64.pack(record_count) + _U64.pack(journal_seq)


def decode_record(payload: bytes) -> tuple[int, object]:
    """Decode one CRC-verified payload into ``(kind, body)`` (fail-closed).

    Bodies by kind: a dict for AUDIT, raw frame bytes for SNAPSHOT,
    ``(tenant_id, fragments)`` for TENANT_OVERLAY, ``(record_count,
    journal_seq)`` for SEAL.
    """
    if not payload:
        raise JournalCorrupt("empty record payload")
    kind = payload[0]
    if kind not in _KNOWN_KINDS:
        raise JournalCorrupt(f"unknown record kind: {kind}")
    if kind == REC_AUDIT:
        if len(payload) < 1 + _U32.size:
            raise JournalCorrupt("truncated audit record")
        (blen,) = _U32.unpack_from(payload, 1)
        if 1 + _U32.size + blen != len(payload):
            raise JournalCorrupt("audit record length mismatch")
        text = _decode_text(payload[1 + _U32.size :], "audit event")
        try:
            document = json.loads(text)
        except ValueError as exc:
            raise JournalCorrupt(f"malformed audit JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise JournalCorrupt(f"audit event is not an object: {type(document).__name__}")
        return kind, document
    if kind == REC_SNAPSHOT:
        if len(payload) < 1 + _U32.size:
            raise JournalCorrupt("truncated snapshot record")
        (blen,) = _U32.unpack_from(payload, 1)
        if 1 + _U32.size + blen != len(payload):
            raise JournalCorrupt("snapshot record length mismatch")
        return kind, payload[1 + _U32.size :]
    if kind == REC_TENANT_OVERLAY:
        if len(payload) < 3:
            raise JournalCorrupt("truncated overlay tenant id length")
        (tlen,) = struct.unpack_from("<H", payload, 1)
        if len(payload) < 3 + tlen:
            raise JournalCorrupt("truncated overlay tenant id")
        tenant_id = _decode_text(payload[3 : 3 + tlen], "tenant id")
        fragments = _decode_str_list(
            payload[:1] + payload[3 + tlen :], 1, "overlay fragment"
        )
        return kind, (tenant_id, fragments)
    # REC_SEAL
    if len(payload) != 1 + 2 * _U64.size:
        raise JournalCorrupt(f"seal record of {len(payload)} bytes is malformed")
    (count,) = _U64.unpack_from(payload, 1)
    (journal_seq,) = _U64.unpack_from(payload, 1 + _U64.size)
    return kind, (count, journal_seq)


# ----------------------------------------------------------------------
# Record framing
# ----------------------------------------------------------------------


def frame_record(payload: bytes, seq: int) -> bytes:
    """``payload`` -> one on-disk record (length + CRC32 + seq + bytes)."""
    if not payload:
        raise JournalCorrupt("refusing to frame an empty payload")
    if len(payload) > MAX_RECORD:
        raise JournalCorrupt(f"record of {len(payload)} bytes exceeds MAX_RECORD")
    seq_bytes = _SEQ.pack(seq)
    crc = zlib.crc32(payload, zlib.crc32(seq_bytes))
    return _REC_HEADER.pack(len(payload), crc) + seq_bytes + payload


@dataclass
class JournalScan:
    """Result of one verified journal read.

    ``valid_bytes`` is the byte offset of the durable prefix --
    :func:`repro.persist.state.recover` truncates the file here when
    ``torn_tail`` is set, making replay idempotent across repeated
    crashes during recovery itself.  ``records`` holds ``(seq, payload)``
    pairs in file order; sequences are verified strictly increasing.
    """

    records: list[tuple[int, bytes]] = field(default_factory=list)
    valid_bytes: int = 0
    torn_tail: bool = False
    #: Bytes discarded with the torn tail (observability only).
    torn_bytes: int = 0


def scan_buffer(buf: bytes, *, path: str | None = None) -> JournalScan:
    """Classify a journal image into durable prefix / torn tail / corrupt."""
    n = len(buf)
    if n == 0:
        return JournalScan(valid_bytes=0)
    if n < len(FILE_MAGIC):
        # Crash during file creation: nothing was ever durable.
        if FILE_MAGIC.startswith(buf):
            return JournalScan(valid_bytes=0, torn_tail=True, torn_bytes=n)
        raise JournalCorrupt(f"bad journal magic: {buf!r}", path=path)
    if buf[: len(FILE_MAGIC)] != FILE_MAGIC:
        raise JournalCorrupt(
            f"bad journal magic: {buf[: len(FILE_MAGIC)]!r}", path=path
        )
    scan = JournalScan(valid_bytes=len(FILE_MAGIC))
    offset = len(FILE_MAGIC)
    previous_seq = -1
    while offset < n:
        remaining = n - offset
        if remaining < _REC_HEADER.size + _SEQ.size:
            scan.torn_tail = True
            scan.torn_bytes = remaining
            return scan
        length, crc = _REC_HEADER.unpack_from(buf, offset)
        if length == 0 or length > MAX_RECORD:
            # Appends are single writes: a partial write tears, it never
            # rewrites the length field.  An impossible length is damage.
            raise JournalCorrupt(
                f"record at byte {offset} declares impossible length {length}",
                path=path,
            )
        if remaining - _REC_HEADER.size - _SEQ.size < length:
            scan.torn_tail = True
            scan.torn_bytes = remaining
            return scan
        body_start = offset + _REC_HEADER.size
        (seq,) = _SEQ.unpack_from(buf, body_start)
        payload = buf[body_start + _SEQ.size : body_start + _SEQ.size + length]
        if zlib.crc32(payload, zlib.crc32(buf[body_start : body_start + _SEQ.size])) != crc:
            raise JournalCorrupt(
                f"CRC mismatch in record at byte {offset}", path=path
            )
        if seq <= previous_seq:
            raise JournalCorrupt(
                f"sequence regression at byte {offset}: {seq} after {previous_seq}",
                path=path,
            )
        previous_seq = seq
        scan.records.append((seq, payload))
        offset = body_start + _SEQ.size + length
        scan.valid_bytes = offset
    return scan


def scan_journal(path: str) -> JournalScan:
    """Read and verify one journal file (missing file = empty journal)."""
    try:
        with open(path, "rb") as handle:
            buf = handle.read()
    except FileNotFoundError:
        return JournalScan(valid_bytes=0)
    return scan_buffer(buf, path=path)


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------


class JournalWriter:
    """Append-only journal handle with group-commit fsync.

    ``opener`` is the crash-injection hook: it replaces ``open(path,
    "ab")`` with a fault-wrapped file object
    (``FaultFile`` in ``tests/support/crashfaults.py``) so the harness can
    tear appends at exact byte offsets.  The object must support
    ``write``/``flush``/``fileno``/``close``/``tell``.

    Thread safety: callers serialise appends themselves --
    :class:`~repro.persist.DurableState` appends under its own lock.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: FsyncPolicy = FsyncPolicy.BATCH,
        batch_size: int = 64,
        start_seq: int = 1,
        opener: Callable[[str], object] | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if start_seq < 1:
            raise ValueError("start_seq must be >= 1")
        self.path = path
        self.fsync_policy = fsync
        self.batch_size = batch_size
        self.next_seq = start_seq
        self._file = opener(path) if opener is not None else open(path, "ab")
        self._pending = 0
        # Observability (surfaced via the gateway's durability report).
        self.appends = 0
        self.fsyncs = 0
        self.bytes_written = 0
        if self._file.tell() == 0:
            self._file.write(FILE_MAGIC)
            self.bytes_written += len(FILE_MAGIC)
            self._sync(force=self.fsync_policy is not FsyncPolicy.NEVER)

    def _sync(self, *, force: bool) -> None:
        self._file.flush()
        if force:
            os.fsync(self._file.fileno())
            self.fsyncs += 1
            self._pending = 0

    @property
    def last_seq(self) -> int:
        """Sequence of the last appended record (``start_seq - 1`` if none)."""
        return self.next_seq - 1

    def append(self, payload: bytes) -> None:
        """Frame + write one record; fsync per policy (group commit)."""
        record = frame_record(payload, self.next_seq)
        self._file.write(record)
        self.next_seq += 1
        self.appends += 1
        self.bytes_written += len(record)
        self._pending += 1
        if self.fsync_policy is FsyncPolicy.ALWAYS:
            self._sync(force=True)
        elif (
            self.fsync_policy is FsyncPolicy.BATCH
            and self._pending >= self.batch_size
        ):
            self._sync(force=True)
        else:
            self._file.flush()

    def commit(self) -> None:
        """Force everything appended so far to stable storage."""
        if self.fsync_policy is FsyncPolicy.NEVER:
            self._file.flush()
            return
        self._sync(force=True)

    def truncate_to_empty(self) -> None:
        """Reset the journal to a bare magic (after a durable checkpoint)."""
        self._file.truncate(len(FILE_MAGIC))
        self._file.seek(len(FILE_MAGIC))
        self._sync(force=self.fsync_policy is not FsyncPolicy.NEVER)

    def close(self, *, flush: bool = True) -> None:
        """Close the handle; ``flush=False`` abandons un-committed appends
        (the crash-shaped shutdown used by ``stop(drain=False)``)."""
        try:
            if flush:
                self.commit()
        finally:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - teardown
                pass

    def counters(self) -> dict[str, int]:
        return {
            "appends": self.appends,
            "fsyncs": self.fsyncs,
            "bytes_written": self.bytes_written,
            "pending_group": self._pending,
            "last_seq": self.last_seq,
        }
