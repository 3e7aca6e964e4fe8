"""Durable state directories: recovery and the gateway's durable state.

This module ties the journal and checkpoint primitives into the one
object a gateway started with a state directory owns (DESIGN.md section
15):

- :func:`recover` -- newest valid checkpoint + verified journal replay,
  returning a :class:`RecoveredState`; fail-closed on any mid-stream
  damage, torn tails truncated and counted.
- :class:`DurableState` -- one state directory (``checkpoint.jz`` +
  ``journal.jz``) holding the base vocabulary checkpointed at first boot,
  the tenant overlays and the attack-audit tail, with journal-before-
  publish writes, periodic compaction and a crash-shaped ``abandon()``
  for the harness and non-drain shutdowns.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .checkpoint import read_checkpoint, sweep_stale_tmp, write_checkpoint
from .journal import (
    REC_AUDIT,
    REC_TENANT_OVERLAY,
    FsyncPolicy,
    JournalCorrupt,
    JournalWriter,
    decode_record,
    encode_audit,
    encode_tenant_overlay,
    scan_journal,
)

__all__ = [
    "AUDIT_KEEP",
    "CHECKPOINT_NAME",
    "JOURNAL_NAME",
    "DurableState",
    "RecoveredState",
    "recover",
]

CHECKPOINT_NAME = "checkpoint.jz"
JOURNAL_NAME = "journal.jz"
#: Audit events kept in memory and written into each checkpoint; the
#: journal holds every event appended since the last checkpoint.
AUDIT_KEEP = 256


@dataclass
class RecoveredState:
    """What :func:`recover` reconstructed, plus how it got there."""

    fragments: list[str]
    epoch: int
    overlays: dict[str, list[str]] = field(default_factory=dict)
    audit: list[dict] = field(default_factory=list)
    #: "fresh" (no checkpoint, empty journal), "checkpoint" (no journal
    #: records) or "checkpoint+journal" (records replayed on top).
    source: str = "fresh"
    replayed_records: int = 0
    #: Journal records skipped because the checkpoint already absorbed
    #: them (crash landed between checkpoint publication and truncation).
    skipped_records: int = 0
    #: High-water journal sequence (checkpoint seal or last replayed
    #: record); a fresh writer continues from ``journal_seq + 1``.
    journal_seq: int = 0
    torn_tail_truncated: bool = False
    torn_bytes: int = 0
    stale_tmp_swept: int = 0

    def report(self) -> dict:
        return {
            "source": self.source,
            "fragments": len(self.fragments),
            "epoch": self.epoch,
            "tenants": len(self.overlays),
            "audit_events": len(self.audit),
            "replayed_records": self.replayed_records,
            "skipped_records": self.skipped_records,
            "torn_tail_truncated": self.torn_tail_truncated,
            "torn_bytes": self.torn_bytes,
            "stale_tmp_swept": self.stale_tmp_swept,
        }


def recover(state_dir: str) -> RecoveredState:
    """Rebuild the durable state under ``state_dir`` (fail-closed).

    Recovery = newest valid checkpoint + journal replay: verify + load the
    checkpoint, verify the journal and replay its overlay and audit
    records on top, and only then write: sweep stale ``*.tmp`` (crashes
    mid-checkpoint) and truncate a torn journal tail so repeated recovery
    is idempotent.  Any mid-stream damage in either file raises
    :class:`JournalCorrupt` before anything is written -- the caller must
    refuse to serve, never run on a silently partial state.  So does a
    journal with records but no checkpoint: the first boot publishes its
    checkpoint before it journals anything, so that shape is damage (a
    lost checkpoint), and recovering it would lose the base vocabulary.
    """
    recovered = RecoveredState(fragments=[], epoch=0)

    checkpoint_path = os.path.join(state_dir, CHECKPOINT_NAME)
    checkpoint = read_checkpoint(checkpoint_path)
    if checkpoint is not None:
        # A writer's epoch is at least its number of base fragments, so
        # fragments at epoch 0 are history no writer produces: damage.
        if checkpoint.fragments and checkpoint.epoch < 1:
            raise JournalCorrupt(
                f"checkpoint epoch {checkpoint.epoch} is below 1 with "
                f"{len(checkpoint.fragments)} fragments present",
                path=checkpoint_path,
            )
        recovered.fragments = list(checkpoint.fragments)
        recovered.epoch = checkpoint.epoch
        recovered.overlays = {t: list(f) for t, f in checkpoint.overlays.items()}
        recovered.audit = list(checkpoint.audit)
        recovered.journal_seq = checkpoint.journal_seq
        recovered.source = "checkpoint"

    journal_path = os.path.join(state_dir, JOURNAL_NAME)
    scan = scan_journal(journal_path)

    # Records the checkpoint seal already covers are skipped, not
    # re-applied -- a crash between checkpoint publication and journal
    # truncation must not duplicate audit events.
    for seq, payload in scan.records:
        if seq <= recovered.journal_seq:
            recovered.skipped_records += 1
            continue
        kind, body = decode_record(payload)
        if kind == REC_AUDIT:
            recovered.audit.append(body)
        elif kind == REC_TENANT_OVERLAY:
            tenant_id, fragments = body
            recovered.overlays[tenant_id] = list(fragments)
        else:
            raise JournalCorrupt(
                f"checkpoint-only record kind {kind} in journal",
                path=journal_path,
            )
        recovered.replayed_records += 1
        recovered.journal_seq = seq
    if recovered.replayed_records:
        if checkpoint is None:
            raise JournalCorrupt(
                f"journal holds {recovered.replayed_records} records but "
                "there is no checkpoint",
                path=checkpoint_path,
            )
        recovered.source = "checkpoint+journal"

    recovered.stale_tmp_swept = sweep_stale_tmp(state_dir)
    if scan.torn_tail:
        recovered.torn_tail_truncated = True
        recovered.torn_bytes = scan.torn_bytes
        with open(journal_path, "r+b") as handle:
            handle.truncate(scan.valid_bytes)
    return recovered


class DurableState:
    """One durable state directory: base vocabulary, overlays, audit.

    Opening an existing directory recovers it (fail-closed); opening a
    fresh one takes ``seed_fragments`` as the base vocabulary and
    immediately writes the initial checkpoint, so a crash one instant
    later already restores the seed.  Persisted state always wins over
    the seed, and nothing changes the base after the first boot:
    ``fragments`` and ``epoch`` are plain values.  Tenant overlays and
    audit events are journaled before they are published -- a failed
    append raises and leaves ``overlays`` and the audit tail untouched.

    ``opener`` / ``replace`` are the crash-injection hooks, threaded down
    to :class:`JournalWriter` and :func:`write_checkpoint`.
    """

    def __init__(
        self,
        state_dir: str,
        *,
        seed_fragments: Iterable[str] = (),
        fsync: FsyncPolicy | str = FsyncPolicy.BATCH,
        checkpoint_every: int = 512,
        opener: Callable[[str], object] | None = None,
        replace: Callable[[str, str], None] | None = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if isinstance(fsync, str):
            fsync = FsyncPolicy.from_name(fsync)
        os.makedirs(state_dir, exist_ok=True)
        self.state_dir = state_dir
        self.fsync_policy = fsync
        self.checkpoint_every = checkpoint_every
        self._opener = opener
        self._replace = replace
        self._lock = threading.RLock()
        self._closed = False

        self.recovered = recover(state_dir)
        if self.recovered.source == "fresh":
            # The seed as a FragmentStore would hold it: empty strings
            # dropped, first occurrence kept.  The checkpoint's epoch
            # field is the number of base fragments (not a store epoch).
            self.fragments: tuple[str, ...] = tuple(
                dict.fromkeys(f for f in seed_fragments if f)
            )
            self.epoch = len(self.fragments)
        else:
            self.fragments = tuple(self.recovered.fragments)
            self.epoch = self.recovered.epoch
        self.overlays: dict[str, list[str]] = dict(self.recovered.overlays)
        self._audit: deque[dict] = deque(self.recovered.audit, maxlen=AUDIT_KEEP)

        # Observability.
        self.checkpoints_written = 0
        self.last_checkpoint_at = 0.0
        self.audit_persisted = 0
        self._since_checkpoint = 0

        self._journal = JournalWriter(
            os.path.join(state_dir, JOURNAL_NAME),
            fsync=fsync,
            start_seq=self.recovered.journal_seq + 1,
            opener=opener,
        )

        # Fresh directories (seed vocabulary) and recoveries that replayed
        # a journal compact immediately: a crash one instant later already
        # restores this exact state from the checkpoint alone.
        if self.recovered.source != "checkpoint":
            self.checkpoint()

    # ------------------------------------------------------------------
    # Writers: journal first, then publish
    # ------------------------------------------------------------------

    def append_audit(self, event: dict) -> None:
        """Durably record one attack-audit event (journal-first)."""
        with self._lock:
            self._journal.append(encode_audit(event))
            self._since_checkpoint += 1
            self._audit.append(event)
            self.audit_persisted += 1

    def set_overlay(self, tenant_id: str, fragments: Sequence[str]) -> None:
        """Durably record one tenant's full overlay vocabulary."""
        with self._lock:
            kept = list(dict.fromkeys(f for f in fragments if f))
            self._journal.append(encode_tenant_overlay(tenant_id, kept))
            self._since_checkpoint += 1
            self.overlays[tenant_id] = kept

    def audit_tail(self) -> list[dict]:
        with self._lock:
            return list(self._audit)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def _write_checkpoint_locked(self) -> None:
        write_checkpoint(
            os.path.join(self.state_dir, CHECKPOINT_NAME),
            fragments=self.fragments,
            epoch=self.epoch,
            overlays=self.overlays,
            audit=list(self._audit),
            journal_seq=self._journal.last_seq,
            opener=self._opener,
            replace=self._replace,
        )
        self.checkpoints_written += 1
        self.last_checkpoint_at = time.time()
        self._since_checkpoint = 0

    def checkpoint(self) -> None:
        """Compact now: durable checkpoint, then reset the journal.

        Ordering is the whole contract -- the journal may only shrink
        *after* the checkpoint file and its directory entry are fsynced.
        A crash between the two leaves checkpoint + stale journal, which
        recovery reconciles by sequence number: the seal records the
        highest seq compacted, and replay skips everything at or below
        it, so nothing is double-applied.
        """
        with self._lock:
            self._journal.commit()
            self._write_checkpoint_locked()
            self._journal.truncate_to_empty()

    def maybe_checkpoint(self) -> bool:
        """Checkpoint when the journal has accumulated enough records."""
        with self._lock:
            if self._since_checkpoint < self.checkpoint_every:
                return False
            self.checkpoint()
            return True

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Graceful shutdown: flush, final checkpoint, release handles."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self.checkpoint()
            finally:
                self._journal.close(flush=True)

    def abandon(self) -> None:
        """Crash-shaped shutdown: drop handles, flush nothing.

        Used by non-drain gateway stops and the crash harness so the
        subsequent :func:`recover` genuinely exercises journal replay
        instead of reading a tidy final checkpoint.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._journal.close(flush=False)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def durability_report(self) -> dict:
        with self._lock:
            report = {
                "state_dir": self.state_dir,
                "fsync_policy": self.fsync_policy.value,
                "checkpoint_every": self.checkpoint_every,
                "checkpoints_written": self.checkpoints_written,
                "checkpoint_age_s": (
                    round(time.time() - self.last_checkpoint_at, 3)
                    if self.last_checkpoint_at
                    else None
                ),
                "records_since_checkpoint": self._since_checkpoint,
                "audit_persisted": self.audit_persisted,
                "recovery": self.recovered.report(),
            }
            report.update(self._journal.counters())
            return report
