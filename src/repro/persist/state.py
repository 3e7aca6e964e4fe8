"""Durable state directories: journaling store and recovery.

This module ties the journal and checkpoint primitives into the objects
the rest of the guard uses (DESIGN.md section 15):

- :class:`DurableFragmentStore` -- a :class:`~repro.pti.fragments.
  FragmentStore` that journals every mutation *before* applying it (the
  WAL discipline: if the journal append fails, the mutation is refused
  and memory is untouched, so disk never lags memory).
- :func:`recover` -- newest valid checkpoint + verified journal replay,
  returning a :class:`RecoveredState`; fail-closed on any mid-stream
  damage, torn tails truncated and counted.
- :class:`DurableState` -- one state directory (``checkpoint.jz`` +
  ``journal.jz``) wrapping store, tenant overlays and the attack-audit
  tail, with group commit, periodic compaction and a crash-shaped
  ``abandon()`` for the harness and non-drain shutdowns.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..pti.fragments import FragmentStore
from .checkpoint import read_checkpoint, sweep_stale_tmp, write_checkpoint
from .journal import (
    REC_AUDIT,
    REC_FRAG_ADD,
    REC_FRAG_RELOAD,
    REC_FRAG_REMOVE,
    REC_TENANT_OVERLAY,
    FsyncPolicy,
    JournalCorrupt,
    JournalWriter,
    decode_record,
    encode_audit,
    encode_frag_add,
    encode_frag_reload,
    encode_frag_remove,
    encode_tenant_overlay,
    scan_journal,
)

__all__ = [
    "CHECKPOINT_NAME",
    "JOURNAL_NAME",
    "DurableFragmentStore",
    "DurableState",
    "RecoveredState",
    "recover",
]

CHECKPOINT_NAME = "checkpoint.jz"
JOURNAL_NAME = "journal.jz"


class DurableFragmentStore(FragmentStore):
    """Fragment store whose mutations hit the journal before memory.

    Construction-time fragments are *not* journaled (they are either the
    recovered state itself or a seed that the owner immediately
    checkpoints); journaling starts when :meth:`bind_journal` attaches a
    writer.  Each mutation appends exactly one logical record -- the
    deduplicated batch for ``add_many``, the kept-order vocabulary for
    ``reload`` -- so replay reproduces both contents *and* epoch
    arithmetic (``+len(added)`` / ``+1`` / ``+1``) deterministically.
    """

    def __init__(self, fragments: Iterable[str] = ()) -> None:
        self._journal: JournalWriter | None = None
        super().__init__(fragments)

    def bind_journal(self, journal: JournalWriter | None) -> None:
        with self._mutation_lock:
            self._journal = journal

    def add_many(self, fragments: Iterable[str]) -> None:
        with self._mutation_lock:
            if self._journal is None:
                return super().add_many(fragments)
            seen = self._state.seen
            batch: list[str] = []
            batch_seen: set[str] = set()
            for fragment in fragments:
                if not fragment or fragment in seen or fragment in batch_seen:
                    continue
                batch_seen.add(fragment)
                batch.append(fragment)
            if not batch:
                return
            # WAL: a failed append raises here and the mutation is refused.
            self._journal.append(encode_frag_add(batch))
            super().add_many(batch)

    def remove(self, fragment: str) -> bool:
        with self._mutation_lock:
            if self._journal is None:
                return super().remove(fragment)
            if fragment not in self._state.seen:
                return False
            self._journal.append(encode_frag_remove(fragment))
            return super().remove(fragment)

    def reload(self, fragments: Iterable[str], *, warm: bool = False) -> None:
        with self._mutation_lock:
            if self._journal is None:
                return super().reload(fragments, warm=warm)
            seen: set[str] = set()
            kept: list[str] = []
            for fragment in fragments:
                if not fragment or fragment in seen:
                    continue
                seen.add(fragment)
                kept.append(fragment)
            self._journal.append(encode_frag_reload(kept))
            super().reload(kept, warm=warm)


@dataclass
class RecoveredState:
    """What :func:`recover` reconstructed, plus how it got there."""

    fragments: list[str]
    epoch: int
    overlays: dict[str, list[str]] = field(default_factory=dict)
    audit: list[dict] = field(default_factory=list)
    #: "fresh" (empty dir), "checkpoint" (no journal records) or
    #: "checkpoint+journal" (records replayed on top).
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

    def build_store(self) -> DurableFragmentStore:
        return DurableFragmentStore.restore(self.fragments, self.epoch)

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

    Recovery = newest valid checkpoint + journal replay, in four steps:
    sweep stale ``*.tmp`` (crashes mid-checkpoint), verify + load the
    checkpoint, verify the journal (truncating a torn tail so repeated
    recovery is idempotent), then replay records over an in-memory
    replica of the checkpoint.  Any mid-stream damage in either file
    raises :class:`JournalCorrupt` -- the caller must refuse to serve,
    never run on a silently partial vocabulary.
    """
    recovered = RecoveredState(fragments=[], epoch=0)
    recovered.stale_tmp_swept = sweep_stale_tmp(state_dir)

    checkpoint = read_checkpoint(os.path.join(state_dir, CHECKPOINT_NAME))
    if checkpoint is not None:
        recovered.fragments = list(checkpoint.fragments)
        recovered.epoch = checkpoint.epoch
        recovered.overlays = {t: list(f) for t, f in checkpoint.overlays.items()}
        recovered.audit = list(checkpoint.audit)
        recovered.journal_seq = checkpoint.journal_seq
        recovered.source = "checkpoint"

    journal_path = os.path.join(state_dir, JOURNAL_NAME)
    scan = scan_journal(journal_path)
    if scan.torn_tail:
        recovered.torn_tail_truncated = True
        recovered.torn_bytes = scan.torn_bytes
        with open(journal_path, "r+b") as handle:
            handle.truncate(scan.valid_bytes)

    if scan.records:
        # Replay over a plain store: epoch arithmetic is reproduced by the
        # same mutation paths that produced the records.  Records the
        # checkpoint seal already covers are skipped, not re-applied -- a
        # crash between checkpoint publication and journal truncation
        # must not double-count epochs or duplicate audit events.
        replica = FragmentStore.restore(recovered.fragments, recovered.epoch)
        replayed = 0
        for seq, payload in scan.records:
            if seq <= recovered.journal_seq:
                recovered.skipped_records += 1
                continue
            kind, body = decode_record(payload)
            if kind == REC_FRAG_ADD:
                replica.add_many(body)
            elif kind == REC_FRAG_REMOVE:
                replica.remove(body)
            elif kind == REC_FRAG_RELOAD:
                replica.reload(body)
            elif kind == REC_AUDIT:
                recovered.audit.append(body)
            elif kind == REC_TENANT_OVERLAY:
                tenant_id, fragments = body
                recovered.overlays[tenant_id] = list(fragments)
            else:
                raise JournalCorrupt(
                    f"checkpoint-only record kind {kind} in journal",
                    path=journal_path,
                )
            replayed += 1
            recovered.journal_seq = seq
        recovered.replayed_records = replayed
        recovered.fragments = list(replica.fragments)
        recovered.epoch = replica.epoch
        if replayed:
            recovered.source = (
                "checkpoint+journal" if checkpoint is not None else "journal"
            )
    return recovered


class DurableState:
    """One durable state directory: store + overlays + audit + recovery.

    Opening an existing directory recovers it (fail-closed); opening a
    fresh one seeds the store from ``seed_fragments`` and immediately
    writes the initial checkpoint, so a crash one instant later already
    restores the seed.  Persisted state always wins over the seed -- the
    seed is only the cold-start vocabulary.

    ``opener`` / ``replace`` are the crash-injection hooks, threaded down
    to :class:`JournalWriter` and :func:`write_checkpoint`.
    """

    def __init__(
        self,
        state_dir: str,
        *,
        seed_fragments: Iterable[str] = (),
        fsync: FsyncPolicy | str = FsyncPolicy.BATCH,
        batch_size: int = 64,
        checkpoint_every: int = 512,
        audit_keep: int = 256,
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
            self.store = DurableFragmentStore(seed_fragments)
            self.overlays: dict[str, list[str]] = {}
            self._audit: deque[dict] = deque(maxlen=audit_keep)
        else:
            self.store = DurableFragmentStore.restore(
                self.recovered.fragments, self.recovered.epoch
            )
            self.overlays = dict(self.recovered.overlays)
            self._audit = deque(self.recovered.audit, maxlen=audit_keep)

        # Observability.
        self.checkpoints_written = 0
        self.last_checkpoint_at = 0.0
        self.audit_persisted = 0
        self._since_checkpoint = 0

        self._journal = JournalWriter(
            os.path.join(state_dir, JOURNAL_NAME),
            fsync=fsync,
            batch_size=batch_size,
            start_seq=self.recovered.journal_seq + 1,
            opener=opener,
        )
        self.store.bind_journal(self._journal)
        self._store_lock_hook()

        # Fresh directories (seed vocabulary) and recoveries that replayed
        # a journal compact immediately: a crash one instant later already
        # restores this exact state from the checkpoint alone.
        if self.recovered.source != "checkpoint":
            self.checkpoint()

    def _store_lock_hook(self) -> None:
        """Count journaled store mutations toward the checkpoint cadence.

        The store appends its own records; wrap the journal's ``append``
        so every record (fragment or audit) advances ``_since_checkpoint``
        without double-counting anywhere.
        """
        raw_append = self._journal.append

        def counting_append(payload: bytes) -> None:
            raw_append(payload)
            self._since_checkpoint += 1

        self._journal.append = counting_append  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # Mutations beyond the store itself
    # ------------------------------------------------------------------

    def append_audit(self, event: dict) -> None:
        """Durably record one attack-audit event (journal-first)."""
        with self._lock:
            self._journal.append(encode_audit(event))
            self._audit.append(event)
            self.audit_persisted += 1

    def set_overlay(self, tenant_id: str, fragments: Sequence[str]) -> None:
        """Durably record one tenant's full overlay vocabulary."""
        with self._lock:
            kept = list(dict.fromkeys(f for f in fragments if f))
            self._journal.append(encode_tenant_overlay(tenant_id, kept))
            self.overlays[tenant_id] = kept

    def audit_tail(self) -> list[dict]:
        with self._lock:
            return list(self._audit)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def _write_checkpoint_locked(self) -> None:
        snapshot = self.store.snapshot()
        write_checkpoint(
            os.path.join(self.state_dir, CHECKPOINT_NAME),
            fragments=snapshot.fragments,
            epoch=snapshot.epoch,
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

    def commit(self) -> None:
        """Force the journal's pending group to stable storage."""
        with self._lock:
            self._journal.commit()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Graceful shutdown: flush, final checkpoint, release handles."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self.store.bind_journal(None)
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
            self.store.bind_journal(None)
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
