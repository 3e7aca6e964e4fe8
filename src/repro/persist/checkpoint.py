"""Compacted checkpoint snapshots (DESIGN.md section 15).

A checkpoint compacts the journal: one file holding the full durable
state -- base vocabulary, tenant overlays, and the attack-audit tail --
so recovery is O(state), not O(history), and the journal can be reset.

File format: the journal's record framing (:mod:`repro.persist.journal`)
with a distinct magic, holding exactly

1. one ``REC_SNAPSHOT`` record embedding a store snapshot frame
   (:func:`repro.pti.wire.pack_store_snapshot`, tenant field empty),
2. zero or more ``REC_TENANT_OVERLAY`` records,
3. zero or more ``REC_AUDIT`` records (the retained attack evidence),
4. one ``REC_SEAL`` record asserting the count of records before it.

Write protocol (the only path to a visible checkpoint):

    write tmp file -> flush -> fsync(tmp) -> os.replace(tmp, path)
    -> fsync(directory)

``os.replace`` is atomic on POSIX, so at ``path`` a reader ever sees the
old checkpoint or the complete new one -- never a tear.  A crash before
the rename leaves only a stale ``*.tmp`` (swept at recovery); a crash
after leaves the new file durable.  The seal therefore doubles as a
tamper/short-write detector: a checkpoint without its seal, or with any
framing damage, is refused with :class:`JournalCorrupt` -- recovery
never silently falls back past a damaged checkpoint.

``opener`` and ``replace`` are injectable so the crash harness
(``tests/support/crashfaults.py``) can kill the process mid-write and
mid-rename.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..pti.wire import pack_store_snapshot, unpack_store_snapshot
from .journal import (
    FILE_MAGIC as _JOURNAL_MAGIC,
    REC_AUDIT,
    REC_SEAL,
    REC_SNAPSHOT,
    REC_TENANT_OVERLAY,
    JournalCorrupt,
    decode_record,
    encode_audit,
    encode_seal,
    encode_snapshot,
    encode_tenant_overlay,
    frame_record,
    scan_buffer,
)

__all__ = ["CHECKPOINT_MAGIC", "Checkpoint", "read_checkpoint", "write_checkpoint"]

#: Checkpoint file magic: name, format version, reserved.
CHECKPOINT_MAGIC = b"JZCK\x01\x00\x00\x00"


@dataclass
class Checkpoint:
    """One decoded, seal-verified checkpoint.

    ``journal_seq`` is the highest journal sequence number this
    checkpoint compacted: recovery skips journal records with ``seq <=
    journal_seq``, so a crash between checkpoint publication and journal
    truncation can never double-apply them.
    """

    fragments: list[str]
    epoch: int
    overlays: dict[str, list[str]] = field(default_factory=dict)
    audit: list[dict] = field(default_factory=list)
    journal_seq: int = 0


def write_checkpoint(
    path: str,
    *,
    fragments: Sequence[str],
    epoch: int,
    overlays: Mapping[str, Sequence[str]] | None = None,
    audit: Sequence[dict] | None = None,
    journal_seq: int = 0,
    opener: Callable[[str], object] | None = None,
    replace: Callable[[str, str], None] | None = None,
) -> int:
    """Atomically publish one checkpoint at ``path``; returns bytes written.

    The journal may be truncated only after this returns -- by then the
    checkpoint and its directory entry are both fsynced.
    """
    records = [encode_snapshot(pack_store_snapshot(fragments, epoch))]
    for tenant_id in sorted(overlays or {}):
        records.append(encode_tenant_overlay(tenant_id, (overlays or {})[tenant_id]))
    for event in audit or ():
        records.append(encode_audit(event))
    records.append(encode_seal(len(records), journal_seq))

    blob = bytearray(CHECKPOINT_MAGIC)
    # Checkpoint records carry ordinal sequences (the scanner insists on
    # strict increase); the journal high-water mark lives in the seal.
    for ordinal, payload in enumerate(records, start=1):
        blob += frame_record(payload, ordinal)

    tmp_path = path + ".tmp"
    handle = opener(tmp_path) if opener is not None else open(tmp_path, "wb")
    try:
        handle.write(bytes(blob))
        handle.flush()
        os.fsync(handle.fileno())
    finally:
        handle.close()
    (replace if replace is not None else os.replace)(tmp_path, path)
    _fsync_dir(os.path.dirname(os.path.abspath(path)))
    return len(blob)


def read_checkpoint(path: str) -> Checkpoint | None:
    """Decode and verify the checkpoint at ``path`` (fail-closed).

    Returns ``None`` only when no checkpoint file exists (a fresh state
    directory).  Any existing-but-damaged checkpoint -- bad magic, torn
    bytes, CRC mismatch, missing or lying seal -- raises
    :class:`JournalCorrupt`: atomic publication means damage here is
    disk-level corruption, never an expected crash shape.
    """
    try:
        with open(path, "rb") as handle:
            buf = handle.read()
    except FileNotFoundError:
        return None
    if len(buf) < len(CHECKPOINT_MAGIC) or buf[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise JournalCorrupt(f"bad checkpoint magic: {buf[:8]!r}", path=path)
    # Reuse the journal scanner for framing, but a checkpoint is published
    # atomically: a torn tail is corruption here, not a crash shape.
    scan = scan_buffer(_JOURNAL_MAGIC + buf[len(CHECKPOINT_MAGIC) :], path=path)
    if scan.torn_tail:
        raise JournalCorrupt("checkpoint is truncated", path=path)
    if not scan.records:
        raise JournalCorrupt("checkpoint holds no records", path=path)

    seal_kind, seal_body = decode_record(scan.records[-1][1])
    if seal_kind != REC_SEAL:
        raise JournalCorrupt("checkpoint is unsealed", path=path)
    seal_count, journal_seq = seal_body
    if seal_count != len(scan.records) - 1:
        raise JournalCorrupt(
            f"checkpoint seal asserts {seal_count} records, found {len(scan.records) - 1}",
            path=path,
        )

    checkpoint: Checkpoint | None = None
    for _seq, payload in scan.records[:-1]:
        kind, body = decode_record(payload)
        if kind == REC_SNAPSHOT:
            if checkpoint is not None:
                raise JournalCorrupt("checkpoint holds multiple snapshots", path=path)
            _tenant, epoch, fragments = unpack_store_snapshot(bytes(body))
            checkpoint = Checkpoint(fragments=list(fragments), epoch=epoch)
        elif kind == REC_TENANT_OVERLAY:
            if checkpoint is None:
                raise JournalCorrupt("overlay record precedes snapshot", path=path)
            tenant_id, fragments = body
            checkpoint.overlays[tenant_id] = list(fragments)
        elif kind == REC_AUDIT:
            if checkpoint is None:
                raise JournalCorrupt("audit record precedes snapshot", path=path)
            checkpoint.audit.append(body)
        else:
            raise JournalCorrupt(f"unexpected record kind {kind} in checkpoint", path=path)
    if checkpoint is None:
        raise JournalCorrupt("checkpoint holds no snapshot record", path=path)
    checkpoint.journal_seq = journal_seq
    return checkpoint


def sweep_stale_tmp(state_dir: str) -> int:
    """Remove ``*.tmp`` left by crashes mid-checkpoint; returns count."""
    removed = 0
    try:
        names = os.listdir(state_dir)
    except FileNotFoundError:
        return 0
    for name in names:
        if name.endswith(".tmp"):
            try:
                os.unlink(os.path.join(state_dir, name))
                removed += 1
            except OSError:  # pragma: no cover - concurrent sweep
                pass
    return removed


def _fsync_dir(directory: str) -> None:
    """Make the rename itself durable (POSIX requires the dir fsync)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
