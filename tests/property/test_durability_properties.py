"""Property-based proof of the durability subsystem's recovery contract.

Three generated properties (DESIGN.md section 15):

1. **Crash-prefix equivalence** -- for any generated op sequence (the
   gateway's two writes: overlay reloads and audit events over a seeded
   base vocabulary) and any crash point (torn append, torn checkpoint
   write, killed rename), ``recover(state_dir)`` restores *exactly* the
   in-memory state after some prefix of the ops, and at least every op
   that completed before the crash.  Replay is idempotent: a second
   recovery is identical.
2. **Every-prefix truncation** -- cutting the journal file at any byte
   offset recovers a clean prefix of the appended records; nothing past
   the cut survives, nothing before it is lost, and recovery never
   raises (a cut is always a torn tail, never corruption).
3. **Byte-mangle fail-closed** -- flipping any byte of a journal either
   raises :class:`JournalCorrupt` (refusal) or recovers a state equal to
   some oracle prefix (tail damage truncates).  It never produces a
   state that matches *no* prefix -- the "silently wrong vocabulary"
   failure the guard's posture forbids.

The oracle is :class:`tests.support.crashfaults.StoreOracle`; crash
schedules come from the same :class:`FaultPlan` hooks the integration
harness drives, so a shrunk Hypothesis failure is directly replayable.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persist import (
    DurableState,
    FsyncPolicy,
    JournalCorrupt,
    JournalWriter,
    recover,
    scan_journal,
)
from repro.persist.journal import decode_record, encode_audit
from tests.support.crashfaults import (
    FaultPlan,
    SimulatedCrash,
    StoreOracle,
    apply_op,
    flip_byte,
)

VOCAB = [f"SELECT c{i} FROM t WHERE k = " for i in range(8)]
#: The first boot's base vocabulary (duplicates and an empty string are
#: dropped the way a FragmentStore drops them).
SEED = VOCAB[:3] + [VOCAB[0], ""]

_fragment = st.sampled_from(VOCAB + [""])
_frag_list = st.lists(_fragment, min_size=1, max_size=4)

_op = st.one_of(
    st.tuples(
        st.just("audit"),
        st.fixed_dictionaries(
            {"q": st.sampled_from(["1 OR 1=1", "x' UNION SELECT--"]),
             "n": st.integers(0, 99)}
        ),
    ),
    st.tuples(
        st.just("overlay"),
        st.sampled_from(["t1", "t2", "shop/../../etc"]),
        _frag_list,
    ),
)

_ops = st.lists(_op, min_size=1, max_size=12)


def _matching_prefix(ops, recovered):
    """Longest-first search for an oracle prefix equal to the recovery.

    A crash before the first boot's checkpoint is published leaves
    nothing durable, not even the seed: that state is prefix -1.
    """
    for k in range(len(ops), -1, -1):
        if StoreOracle(SEED).apply_all(ops[:k]).matches(recovered):
            return k
    if StoreOracle().matches(recovered):
        return -1
    return None


def _run_with_crash(state_dir, ops, plan, checkpoint_every):
    """Apply ops under a fault plan; return how many fully completed
    (-1 when the crash came before the first boot finished)."""
    completed = -1
    try:
        state = DurableState(
            state_dir,
            seed_fragments=SEED,
            fsync=FsyncPolicy.NEVER,
            checkpoint_every=checkpoint_every,
            opener=plan.opener(),
            replace=plan.replace(),
        )
        completed = 0
        for op in ops:
            apply_op(state, op)
            completed += 1
            state.maybe_checkpoint()
        state.abandon()
    except SimulatedCrash:
        pass
    return completed


@settings(max_examples=40, deadline=None)
@given(
    ops=_ops,
    crash_at_write=st.integers(min_value=1, max_value=40),
    partial_fraction=st.sampled_from([0.0, 0.3, 0.9]),
    checkpoint_every=st.sampled_from([2, 5, 512]),
)
def test_crash_prefix_equivalence(
    tmp_path_factory, ops, crash_at_write, partial_fraction, checkpoint_every
):
    state_dir = str(tmp_path_factory.mktemp("crash"))
    plan = FaultPlan(
        crash_at_write=crash_at_write, partial_fraction=partial_fraction
    )
    completed = _run_with_crash(state_dir, ops, plan, checkpoint_every)
    recovered = recover(state_dir)
    prefix = _matching_prefix(ops, recovered)
    assert prefix is not None, (
        f"recovered state matches no op prefix: {recovered!r}"
    )
    # WAL: every op that fully completed was journaled first, so the
    # durable prefix can only be >= the completed count -- the crashing
    # op may have made it to disk, finished ops can never be lost (and a
    # finished first boot never loses its seed).
    assert prefix >= completed
    # Replay idempotence: recovery is a fixed point on state (the first
    # pass may have truncated a torn tail, so only its *metadata* -- the
    # torn_* observability fields -- may differ on the second pass).
    again = recover(state_dir)
    assert (
        again.fragments,
        again.epoch,
        again.overlays,
        again.audit,
        again.journal_seq,
    ) == (
        recovered.fragments,
        recovered.epoch,
        recovered.overlays,
        recovered.audit,
        recovered.journal_seq,
    )
    assert not again.torn_tail_truncated


@settings(max_examples=25, deadline=None)
@given(
    ops=_ops,
    crash_at_rename=st.integers(min_value=1, max_value=4),
)
def test_rename_crash_never_loses_completed_ops(
    tmp_path_factory, ops, crash_at_rename
):
    state_dir = str(tmp_path_factory.mktemp("rename"))
    plan = FaultPlan(crash_at_rename=crash_at_rename)
    completed = _run_with_crash(state_dir, ops, plan, checkpoint_every=3)
    recovered = recover(state_dir)
    prefix = _matching_prefix(ops, recovered)
    assert prefix is not None and prefix >= completed


@settings(max_examples=20, deadline=None)
@given(
    events=st.lists(st.integers(0, 255), min_size=1, max_size=10),
    data=st.data(),
)
def test_every_prefix_truncation_restores_a_record_prefix(
    tmp_path_factory, events, data
):
    path = str(tmp_path_factory.mktemp("trunc") / "journal.jz")
    writer = JournalWriter(path, fsync=FsyncPolicy.NEVER)
    for n in events:
        writer.append(encode_audit({"n": n}))
    writer.close()
    size = os.path.getsize(path)
    cut = data.draw(st.integers(min_value=0, max_value=size), label="cut")
    with open(path, "r+b") as handle:
        handle.truncate(cut)
    scan = scan_journal(path)  # never raises on a pure truncation
    restored = [decode_record(p)[1] for _, p in scan.records]
    assert restored == [{"n": n} for n in events[: len(restored)]]
    assert scan.valid_bytes <= cut
    assert (cut == size) == (not scan.torn_tail and len(restored) == len(events))


@settings(max_examples=40, deadline=None)
@given(ops=_ops, data=st.data())
def test_byte_mangle_refuses_or_restores_a_prefix(
    tmp_path_factory, ops, data
):
    state_dir = str(tmp_path_factory.mktemp("mangle"))
    state = DurableState(state_dir, seed_fragments=SEED, fsync=FsyncPolicy.NEVER)
    for op in ops:
        apply_op(state, op)
    state.abandon()
    journal_path = os.path.join(state_dir, "journal.jz")
    size = os.path.getsize(journal_path)
    offset = data.draw(st.integers(0, size - 1), label="offset")
    mask = data.draw(st.sampled_from([0x01, 0x10, 0x80, 0xFF]), label="mask")
    flip_byte(journal_path, offset, mask)
    try:
        recovered = recover(state_dir)
    except JournalCorrupt:
        return  # typed refusal: fail-closed, never fail-open
    # Tolerated damage must still be *some* truthful prefix -- flipped
    # bytes may cost state (torn-tail ambiguity) but never invent it.
    assert _matching_prefix(ops, recovered) is not None, (
        f"mangled journal recovered to a state matching no prefix "
        f"(offset={offset}, mask={mask:#x})"
    )
