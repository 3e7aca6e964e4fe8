"""Crash-injection harness for the durability subsystem (DESIGN.md §15).

Proves the two recovery guarantees the persist layer makes -- restart
equivalence (recovery restores exactly the durable prefix of the
pre-crash state) and never-fail-open (damage is either truncated torn
tail or a typed :class:`~repro.persist.JournalCorrupt` refusal, never a
silently wrong vocabulary) -- under three fault families:

- **Simulated crashes**: :class:`FaultPlan` wraps every file the persist
  layer opens in a :class:`FaultFile`; the N-th write lands only a
  prefix of its bytes and then the process "dies" (a
  :class:`SimulatedCrash` unwinds the stack; handles are simply dropped,
  exactly what SIGKILL leaves behind).  Rename crashes kill between the
  tmp-file fsync and the atomic publish.
- **Real SIGKILL**: :func:`run_to_sigkill` forks a child that applies an
  op sequence against a real :class:`~repro.persist.DurableState` and is
  killed by an *actual* ``SIGKILL`` mid-append / mid-checkpoint /
  mid-rename -- no Python cleanup, no atexit, no flush.
- **Disk rot**: :func:`flip_byte` mangles durable files in place for the
  corruption-refusal properties.

:class:`StoreOracle` is the in-memory model: it holds the seeded base
vocabulary, the tenant overlays and the audit trail, so a test can
compute the expected state after any *prefix* of an op sequence and
compare it against what ``recover()`` restores.

Determinism: like :mod:`tests.support.faults`, nothing here sleeps or
consults wall clocks; crash points are indices into the deterministic
stream of write calls, so a failing schedule replays exactly.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "SimulatedCrash",
    "FaultFile",
    "FaultPlan",
    "StoreOracle",
    "apply_op",
    "flip_byte",
    "generate_ops",
    "run_to_sigkill",
]


class SimulatedCrash(BaseException):
    """The process "died" at a scheduled fault point.

    A ``BaseException`` on purpose: process death must not be absorbed
    by ``except Exception`` guards (the audit ring's sink isolation, the
    gateway's best-effort paths) -- a real SIGKILL would not be.
    """


@dataclass
class FaultPlan:
    """One deterministic crash schedule shared by every wrapped file.

    ``crash_at_write`` counts *write calls* globally across journal and
    checkpoint files (1-based); at that call only ``partial_fraction``
    of the bytes land before the crash.  ``crash_at_rename`` counts
    checkpoint publishes: the tmp file is fully written and fsynced, but
    the process dies before ``os.replace`` -- the stale-tmp-sweep /
    old-checkpoint-wins path.  ``hard_kill`` swaps the in-process
    :class:`SimulatedCrash` for a genuine ``SIGKILL`` (use only inside a
    sacrificial child; see :func:`run_to_sigkill`).
    """

    crash_at_write: int | None = None
    partial_fraction: float = 0.5
    crash_at_rename: int | None = None
    hard_kill: bool = False
    writes_seen: int = 0
    renames_seen: int = 0
    crashed: bool = False

    def _die(self, what: str) -> None:
        self.crashed = True
        if self.hard_kill:
            os.kill(os.getpid(), signal.SIGKILL)
        raise SimulatedCrash(what)

    def on_write(self, raw, data: bytes) -> None:
        self.writes_seen += 1
        if (
            self.crash_at_write is not None
            and self.writes_seen == self.crash_at_write
        ):
            keep = data[: max(0, int(len(data) * self.partial_fraction))]
            if keep:
                raw.write(keep)
            # The partial bytes reach the OS before "death": handles are
            # dropped unflushed by a real SIGKILL, but the bytes already
            # accepted by write(2) survive -- model that by flushing the
            # prefix only.
            raw.flush()
            self._die(f"crash at write #{self.writes_seen} ({len(keep)}/{len(data)}B)")

    def on_rename(self, src: str, dst: str) -> None:
        self.renames_seen += 1
        if (
            self.crash_at_rename is not None
            and self.renames_seen == self.crash_at_rename
        ):
            self._die(f"crash before rename {src!r} -> {dst!r}")
        os.replace(src, dst)

    # -- injection points for the persist layer ------------------------

    def opener(self):
        """An ``opener`` for :class:`~repro.persist.DurableState`.

        Journals open append-mode; checkpoint temp files (``*.tmp``)
        open write-mode -- the same discrimination the real ``open``
        calls make.
        """

        def _open(path: str):
            mode = "wb" if path.endswith(".tmp") else "ab"
            return FaultFile(open(path, mode), self)

        return _open

    def replace(self):
        return self.on_rename


class FaultFile:
    """File wrapper routing writes through a :class:`FaultPlan`."""

    def __init__(self, raw, plan: FaultPlan) -> None:
        self._raw = raw
        self._plan = plan

    def write(self, data: bytes) -> int:
        self._plan.on_write(self._raw, data)
        return self._raw.write(data)

    def flush(self) -> None:
        self._raw.flush()

    def fileno(self) -> int:
        return self._raw.fileno()

    def tell(self) -> int:
        return self._raw.tell()

    def seek(self, offset: int, whence: int = 0) -> int:
        return self._raw.seek(offset, whence)

    def truncate(self, size: int | None = None) -> int:
        return self._raw.truncate(size)

    def close(self) -> None:
        self._raw.close()


def flip_byte(path: str, offset: int, mask: int = 0xFF) -> None:
    """XOR one byte of a durable file in place (disk-rot injection)."""
    with open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(1)
        if not original:
            raise ValueError(f"offset {offset} beyond end of {path}")
        handle.seek(offset)
        handle.write(bytes([original[0] ^ mask]))


# ----------------------------------------------------------------------
# Op sequences and the in-memory oracle
# ----------------------------------------------------------------------

#: Ops are plain picklable tuples so the SIGKILL child can receive them:
#: ("audit", {...}) / ("overlay", tenant_id, [frags]) -- the two writes a
#: gateway journals.


def apply_op(state, op) -> None:
    """Apply one op tuple to a :class:`~repro.persist.DurableState`."""
    kind = op[0]
    if kind == "audit":
        state.append_audit(op[1])
    elif kind == "overlay":
        state.set_overlay(op[1], op[2])
    else:  # pragma: no cover - schedule construction bug
        raise ValueError(f"unknown op kind {kind!r}")


def _dedup(fragments: Iterable[str]) -> list[str]:
    return list(dict.fromkeys(f for f in fragments if f))


class StoreOracle:
    """Pure in-memory model of the durable state's semantics.

    The base vocabulary is the seed as the durable state keeps it (empty
    strings dropped, first occurrence kept, epoch = its size) and never
    changes; audit events accumulate and an overlay op replaces its
    tenant's deduplicated overlay.  ``apply`` returns ``self`` so tests
    can fold an op prefix.
    """

    def __init__(self, fragments: Sequence[str] = ()) -> None:
        self.fragments = _dedup(fragments)
        self.epoch = len(self.fragments)
        self.audit: list[dict] = []
        self.overlays: dict[str, list[str]] = {}

    def apply(self, op) -> "StoreOracle":
        kind = op[0]
        if kind == "audit":
            self.audit.append(op[1])
        elif kind == "overlay":
            self.overlays[op[1]] = _dedup(op[2])
        else:  # pragma: no cover
            raise ValueError(f"unknown op kind {op[0]!r}")
        return self

    def apply_all(self, ops: Iterable) -> "StoreOracle":
        for op in ops:
            self.apply(op)
        return self

    def matches(self, recovered) -> bool:
        """Exact equivalence against a :class:`RecoveredState`."""
        return (
            list(recovered.fragments) == self.fragments
            and recovered.epoch == self.epoch
            and list(recovered.audit) == self.audit
            and {t: list(f) for t, f in recovered.overlays.items()}
            == self.overlays
        )


def generate_ops(rng, count: int) -> list:
    """A seeded op sequence (the CHAOS_SEED schedule for CI smoke runs)."""
    ops = []
    vocabulary = [f"SELECT f{i} FROM t WHERE c = " for i in range(24)]
    for i in range(count):
        if rng.random() < 0.6:
            ops.append(
                ("audit", {"attack": i, "query": f"1 OR {i}={i}", "seed": True})
            )
        else:
            ops.append(
                ("overlay", f"tenant-{rng.randint(0, 3)}",
                 rng.sample(vocabulary, rng.randint(1, 3)))
            )
    return ops


# ----------------------------------------------------------------------
# Real-SIGKILL child harness
# ----------------------------------------------------------------------


def _sigkill_child(state_dir: str, ops: list, plan_kwargs: dict) -> None:
    """Child body: apply ops against real durable state until SIGKILL.

    Runs with ``hard_kill=True`` so the scheduled fault point delivers a
    genuine ``os.kill(getpid(), SIGKILL)`` -- no exception handling, no
    interpreter shutdown, no buffered-file flushing happens after it.
    If the schedule never fires the child exits 0 (the parent treats
    that as "ran to completion").
    """
    from repro.persist import DurableState, FsyncPolicy

    checkpoint_every = plan_kwargs.pop("_checkpoint_every", 4)
    plan = FaultPlan(hard_kill=True, **plan_kwargs)
    state = DurableState(
        state_dir,
        fsync=FsyncPolicy.NEVER,
        checkpoint_every=checkpoint_every,
        opener=plan.opener(),
        replace=plan.replace(),
    )
    # The gateway drives the checkpoint cadence in production; the child
    # does the same so rename/checkpoint crash points actually occur.
    for op in ops:
        apply_op(state, op)
        state.maybe_checkpoint()
    state.close()


def run_to_sigkill(
    state_dir: str,
    ops: list,
    *,
    crash_at_write: int | None = None,
    crash_at_rename: int | None = None,
    partial_fraction: float = 0.5,
    timeout: float = 60.0,
) -> bool:
    """Fork a child, let it mutate ``state_dir``, SIGKILL it mid-fault.

    Returns ``True`` when the child died by SIGKILL (exitcode ``-9``),
    ``False`` when the schedule never fired and it exited cleanly.  Any
    other exit code raises -- the child must die at the fault point or
    finish, never error.
    """
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(
        target=_sigkill_child,
        args=(
            state_dir,
            ops,
            {
                "crash_at_write": crash_at_write,
                "crash_at_rename": crash_at_rename,
                "partial_fraction": partial_fraction,
            },
        ),
    )
    child.start()
    child.join(timeout)
    if child.is_alive():  # pragma: no cover - hung child
        child.kill()
        child.join()
        raise RuntimeError("sigkill child hung past its timeout")
    if child.exitcode == -signal.SIGKILL:
        return True
    if child.exitcode == 0:
        return False
    raise RuntimeError(f"sigkill child exited {child.exitcode}")