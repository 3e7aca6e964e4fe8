"""Crash-safe durable state for the guard fleet (DESIGN.md section 15).

The paper deploys Joza as a *long-lived* DB interposition layer (Section
V) whose protection quality is exactly its accumulated trusted-fragment
state -- and whose audit value is the attack evidence it has recorded.
Everything upstream of this package keeps that state purely in memory, so
a crash or redeploy silently discards the learned vocabulary (forcing a
cold re-learn during which legitimate traffic is mis-flagged) and every
attack record (forensics gone).  This package makes both survive the
operational lifecycle of the application they protect:

- :mod:`repro.persist.journal` -- a CRC32-framed append-only write-ahead
  journal for fragment-store mutations and attack-audit events, with a
  configurable group-commit fsync policy, torn-tail truncation on replay
  and a typed :class:`JournalCorrupt` refusal for mid-stream damage.
- :mod:`repro.persist.checkpoint` -- periodic compacted snapshots reusing
  the store snapshot frame (``pack_store_snapshot``), written via
  temp-file + atomic rename; the journal is truncated only after the
  checkpoint is durably on disk.
- :mod:`repro.persist.state` -- :class:`DurableFragmentStore` (a
  journaling :class:`~repro.pti.fragments.FragmentStore`) and
  :class:`DurableState` (one state directory: store + tenant overlays +
  audit trail + recovery).  A gateway started with a state directory
  owns one :class:`DurableState`; it is the only writer of tenant
  overlays, journaling each reload before pushing it to its workers.

The recovery contract is **fail-closed**: ``recover(state_dir)`` either
restores a verified durable prefix of the pre-crash state or raises
:class:`JournalCorrupt` -- never a silent partial restore, never invented
state.  The crash-injection harness
(:mod:`repro.testbed.crashfaults`) proves restart-equivalence and
never-fail-open under seeded SIGKILL / partial-write / bit-flip
schedules.
"""

from .journal import (
    FsyncPolicy,
    JournalCorrupt,
    JournalScan,
    JournalWriter,
    scan_journal,
)
from .checkpoint import read_checkpoint, write_checkpoint
from .state import (
    DurableFragmentStore,
    DurableState,
    RecoveredState,
    recover,
)

__all__ = [
    "FsyncPolicy",
    "JournalCorrupt",
    "JournalScan",
    "JournalWriter",
    "scan_journal",
    "read_checkpoint",
    "write_checkpoint",
    "DurableFragmentStore",
    "DurableState",
    "RecoveredState",
    "recover",
]
