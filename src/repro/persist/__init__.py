"""Crash-safe durable state for the guard fleet (DESIGN.md section 15).

The paper deploys Joza as a *long-lived* DB interposition layer (Section
V).  Its base vocabulary is extracted from the application's sources, so
the only state a running gateway creates is what it writes itself: the
tenant overlays it reloads and the attack evidence it records.  Kept
purely in memory, a crash or redeploy would discard both.  This package
makes them survive the operational lifecycle of the application they
protect:

- :mod:`repro.persist.journal` -- a CRC32-framed append-only write-ahead
  journal for tenant overlays and attack-audit events, with a
  configurable group-commit fsync policy, torn-tail truncation on replay
  and a typed :class:`JournalCorrupt` refusal for mid-stream damage.
- :mod:`repro.persist.checkpoint` -- periodic compacted snapshots reusing
  the store snapshot frame (``pack_store_snapshot``), written via
  temp-file + atomic rename; the journal is truncated only after the
  checkpoint is durably on disk.
- :mod:`repro.persist.state` -- :class:`DurableState` (one state
  directory: the base vocabulary checkpointed at first boot, tenant
  overlays, audit trail, recovery).  A gateway started with a state
  directory owns one :class:`DurableState`; it is the only writer of
  tenant overlays, journaling each reload before pushing it to its
  workers.

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
from .state import DurableState, RecoveredState, recover

__all__ = [
    "FsyncPolicy",
    "JournalCorrupt",
    "JournalScan",
    "JournalWriter",
    "scan_journal",
    "read_checkpoint",
    "write_checkpoint",
    "DurableState",
    "RecoveredState",
    "recover",
]
