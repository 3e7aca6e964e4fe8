"""Unit coverage for the durability subsystem (DESIGN.md section 15).

Pins the journal framing contract (CRC + sequence numbers, torn tail vs
corruption), the checkpoint write protocol (tmp + fsync + atomic rename,
seal verification), the WAL discipline of :class:`DurableState`'s two
writers (journal-first, a failed append refuses the write), recovery
semantics (checkpoint + replay, sequence skip after a crash between
checkpoint publication and journal truncation, impossible history
refused).
"""

import errno
import os

import pytest

from repro.persist import (
    DurableState,
    FsyncPolicy,
    JournalCorrupt,
    JournalWriter,
    read_checkpoint,
    recover,
    scan_journal,
    write_checkpoint,
)
from repro.persist.checkpoint import sweep_stale_tmp
from repro.persist.journal import (
    FILE_MAGIC,
    REC_AUDIT,
    REC_SEAL,
    REC_TENANT_OVERLAY,
    decode_record,
    encode_audit,
    encode_seal,
    encode_tenant_overlay,
    frame_record,
    scan_buffer,
)
from repro.persist.state import AUDIT_KEEP
from tests.support.crashfaults import FaultFile

FRAGS = ["SELECT a FROM t WHERE id = ", " LIMIT 5", "INSERT INTO t VALUES ("]


# ----------------------------------------------------------------------
# Framing and payload codecs
# ----------------------------------------------------------------------


def test_payload_codecs_round_trip():
    cases = [
        (encode_audit({"q": "1 OR 1=1", "n": 3}), (REC_AUDIT, {"q": "1 OR 1=1", "n": 3})),
        (
            encode_tenant_overlay("shop/№7", FRAGS),
            (REC_TENANT_OVERLAY, ("shop/№7", FRAGS)),
        ),
        (encode_seal(12, 345), (REC_SEAL, (12, 345))),
    ]
    for payload, expected in cases:
        assert decode_record(payload) == expected


def test_decode_record_fails_closed():
    with pytest.raises(JournalCorrupt):
        decode_record(b"")
    with pytest.raises(JournalCorrupt):
        decode_record(bytes([99]) + b"body")  # unknown kind
    with pytest.raises(JournalCorrupt):
        decode_record(encode_tenant_overlay("t", FRAGS)[:-1])  # truncated list
    with pytest.raises(JournalCorrupt):
        decode_record(encode_tenant_overlay("t", FRAGS) + b"x")  # trailing bytes
    with pytest.raises(JournalCorrupt):
        decode_record(encode_seal(1, 2)[:-1])  # malformed seal


def test_scan_buffer_classifies_prefix_torn_tail_and_corruption():
    records = [encode_tenant_overlay("t", FRAGS), encode_audit({"a": 1})]
    buf = FILE_MAGIC + b"".join(
        frame_record(p, seq) for seq, p in enumerate(records, start=1)
    )
    full = scan_buffer(buf)
    assert [p for _, p in full.records] == records
    assert [s for s, _ in full.records] == [1, 2]
    assert full.valid_bytes == len(buf) and not full.torn_tail

    # Every strict byte-prefix is either the same durable prefix of whole
    # records or a torn tail truncating to one -- never corruption.
    for cut in range(len(buf)):
        scan = scan_buffer(buf[:cut])
        assert [p for _, p in scan.records] == records[: len(scan.records)]
        assert scan.valid_bytes <= cut
        if scan.valid_bytes < cut:
            assert scan.torn_tail and scan.torn_bytes == cut - scan.valid_bytes


def test_scan_buffer_refuses_midstream_damage():
    buf = FILE_MAGIC + frame_record(encode_tenant_overlay("t", FRAGS), 1)
    # CRC mismatch: flip one payload byte of a complete record.
    mangled = bytearray(buf)
    mangled[-1] ^= 0xFF
    with pytest.raises(JournalCorrupt, match="CRC mismatch"):
        scan_buffer(bytes(mangled))
    # Impossible declared length.
    mangled = bytearray(buf)
    mangled[len(FILE_MAGIC) : len(FILE_MAGIC) + 4] = (2**31).to_bytes(4, "little")
    with pytest.raises(JournalCorrupt, match="impossible length"):
        scan_buffer(bytes(mangled))
    # Wrong magic.
    with pytest.raises(JournalCorrupt, match="bad journal magic"):
        scan_buffer(b"XXJL\x01\x00\x00\x00" + buf[8:])
    # Sequence regression.
    twice = buf + frame_record(encode_audit({"a": 1}), 1)
    with pytest.raises(JournalCorrupt, match="sequence regression"):
        scan_buffer(twice)


def test_frame_record_bounds():
    with pytest.raises(JournalCorrupt):
        frame_record(b"", 1)


# ----------------------------------------------------------------------
# JournalWriter
# ----------------------------------------------------------------------


def test_journal_writer_append_scan_round_trip(tmp_path):
    path = str(tmp_path / "j.jz")
    writer = JournalWriter(path, fsync=FsyncPolicy.NEVER)
    payloads = [encode_tenant_overlay(f"t{n}", [f]) for n, f in enumerate(FRAGS)]
    for payload in payloads:
        writer.append(payload)
    writer.close()
    scan = scan_journal(path)
    assert [p for _, p in scan.records] == payloads
    assert [s for s, _ in scan.records] == [1, 2, 3]


def test_journal_writer_reopen_continues_sequence(tmp_path):
    path = str(tmp_path / "j.jz")
    writer = JournalWriter(path, fsync=FsyncPolicy.NEVER)
    writer.append(encode_audit({"n": 1}))
    assert writer.last_seq == 1
    writer.close()
    # A fresh writer must continue above the durable high-water mark.
    writer = JournalWriter(path, fsync=FsyncPolicy.NEVER, start_seq=2)
    writer.append(encode_audit({"n": 2}))
    writer.close()
    assert [s for s, _ in scan_journal(path).records] == [1, 2]


def test_journal_writer_fsync_policies(tmp_path):
    always = JournalWriter(
        str(tmp_path / "a.jz"), fsync=FsyncPolicy.ALWAYS
    )
    for _ in range(3):
        always.append(encode_audit({}))
    assert always.fsyncs >= 4  # magic + one per append
    always.close()

    batch = JournalWriter(
        str(tmp_path / "b.jz"), fsync=FsyncPolicy.BATCH, batch_size=4
    )
    baseline = batch.fsyncs
    for _ in range(3):
        batch.append(encode_audit({}))
    assert batch.fsyncs == baseline  # group not yet full
    batch.append(encode_audit({}))
    assert batch.fsyncs == baseline + 1  # group commit
    batch.append(encode_audit({}))
    batch.commit()
    assert batch.counters()["pending_group"] == 0
    batch.close()

    never = JournalWriter(str(tmp_path / "n.jz"), fsync=FsyncPolicy.NEVER)
    never.append(encode_audit({}))
    never.commit()
    assert never.fsyncs == 0
    never.close()


def test_journal_writer_truncate_to_empty(tmp_path):
    path = str(tmp_path / "j.jz")
    writer = JournalWriter(path, fsync=FsyncPolicy.NEVER)
    writer.append(encode_audit({"n": 1}))
    writer.truncate_to_empty()
    writer.append(encode_audit({"n": 2}))
    writer.close()
    scan = scan_journal(path)
    assert len(scan.records) == 1
    assert decode_record(scan.records[0][1]) == (REC_AUDIT, {"n": 2})


def test_fsync_policy_from_name():
    assert FsyncPolicy.from_name("ALWAYS") is FsyncPolicy.ALWAYS
    with pytest.raises(ValueError, match="unknown fsync policy"):
        FsyncPolicy.from_name("sometimes")


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    path = str(tmp_path / "ck.jz")
    write_checkpoint(
        path,
        fragments=FRAGS,
        epoch=9,
        overlays={"t2": FRAGS[:1], "t1": FRAGS[:2]},
        audit=[{"q": "1 OR 1=1"}],
        journal_seq=41,
    )
    checkpoint = read_checkpoint(path)
    assert checkpoint.fragments == FRAGS
    assert checkpoint.epoch == 9
    assert checkpoint.overlays == {"t1": FRAGS[:2], "t2": FRAGS[:1]}
    assert checkpoint.audit == [{"q": "1 OR 1=1"}]
    assert checkpoint.journal_seq == 41
    assert read_checkpoint(str(tmp_path / "missing.jz")) is None


def test_checkpoint_refuses_damage(tmp_path):
    path = str(tmp_path / "ck.jz")
    write_checkpoint(
        path, fragments=FRAGS, epoch=3, overlays={}, audit=[]
    )
    with open(path, "rb") as handle:
        blob = handle.read()
    # A checkpoint is only ever published whole: truncation is corruption
    # here, not a torn tail (the missing seal proves the short write).
    with open(path, "wb") as handle:
        handle.write(blob[:-10])
    with pytest.raises(JournalCorrupt):
        read_checkpoint(path)
    # Mid-stream bit flip.
    mangled = bytearray(blob)
    mangled[len(blob) // 2] ^= 0x40
    with open(path, "wb") as handle:
        handle.write(bytes(mangled))
    with pytest.raises(JournalCorrupt):
        read_checkpoint(path)


def test_checkpoint_write_is_atomic_and_sweeps_tmp(tmp_path):
    path = str(tmp_path / "ck.jz")
    write_checkpoint(
        path, fragments=FRAGS, epoch=1, overlays={}, audit=[]
    )

    def crash_before_rename(src, dst):
        raise OSError("injected: died before rename")

    with pytest.raises(OSError, match="before rename"):
        write_checkpoint(
            path,
            fragments=["NEW"],
            epoch=2,
            overlays={},
            audit=[],
            replace=crash_before_rename,
        )
    # Old checkpoint intact; the orphaned tmp is swept at recovery.
    assert read_checkpoint(path).fragments == FRAGS
    assert sweep_stale_tmp(str(tmp_path)) == 1
    assert sweep_stale_tmp(str(tmp_path)) == 0


# ----------------------------------------------------------------------
# DurableState writers: the WAL discipline
# ----------------------------------------------------------------------


class _FullDisk:
    """Write hook for :class:`FaultFile`: every write fails once ``full``."""

    full = False

    def on_write(self, raw, data):
        if self.full:
            raise OSError(errno.ENOSPC, "no space left on device")

    def opener(self, path):
        return FaultFile(open(path, "wb" if path.endswith(".tmp") else "ab"), self)


def test_writers_journal_first_and_refuse_on_append_failure(tmp_path):
    disk = _FullDisk()
    state = DurableState(
        str(tmp_path),
        seed_fragments=FRAGS,
        fsync=FsyncPolicy.NEVER,
        opener=disk.opener,
    )
    state.set_overlay("shop", ["OV "])
    state.append_audit({"n": 1})
    disk.full = True
    with pytest.raises(OSError):
        state.set_overlay("shop", ["OTHER "])
    with pytest.raises(OSError):
        state.set_overlay("blog", ["NEW "])
    with pytest.raises(OSError):
        state.append_audit({"n": 2})
    # Fail-closed WAL: memory is untouched when disk refuses, so the
    # gateway's reload_tenant never pushes an overlay it could not journal.
    assert state.overlays == {"shop": ["OV "]}
    assert state.audit_tail() == [{"n": 1}]
    report = state.durability_report()
    assert report["audit_persisted"] == 1
    assert report["records_since_checkpoint"] == 2
    state.abandon()
    # Disk and memory agree: recovery restores exactly what was published.
    recovered = recover(str(tmp_path))
    assert recovered.overlays == {"shop": ["OV "]}
    assert recovered.audit == [{"n": 1}]


def test_set_overlay_journals_the_deduped_overlay(tmp_path):
    state = DurableState(str(tmp_path), fsync=FsyncPolicy.NEVER)
    state.set_overlay("shop", ["B ", "A ", "", "B "])
    state.abandon()
    journal_path = os.path.join(str(tmp_path), "journal.jz")
    records = [decode_record(p) for _, p in scan_journal(journal_path).records]
    assert records == [(REC_TENANT_OVERLAY, ("shop", ["B ", "A "]))]
    assert state.overlays == {"shop": ["B ", "A "]}


# ----------------------------------------------------------------------
# recover()
# ----------------------------------------------------------------------


def test_recover_fresh_directory(tmp_path):
    recovered = recover(str(tmp_path))
    assert recovered.source == "fresh"
    assert recovered.fragments == [] and recovered.epoch == 0


def _mutate(state):
    state.set_overlay("shop", ["OV "])
    state.append_audit({"q": "1 OR 1=1"})
    state.set_overlay("blog", ["BLOG "])
    state.set_overlay("shop", ["OV ", "OV2 "])


def test_recover_replays_journal_over_checkpoint(tmp_path):
    state = DurableState(
        str(tmp_path), seed_fragments=FRAGS, fsync=FsyncPolicy.NEVER
    )
    _mutate(state)
    state.abandon()  # crash-shaped: no final checkpoint
    recovered = recover(str(tmp_path))
    assert recovered.source == "checkpoint+journal"
    assert recovered.fragments == FRAGS
    assert recovered.epoch == len(FRAGS)
    assert recovered.audit == [{"q": "1 OR 1=1"}]
    # The last overlay record per tenant wins.
    assert recovered.overlays == {"shop": ["OV ", "OV2 "], "blog": ["BLOG "]}
    assert recovered.replayed_records == 4
    # Replay is idempotent: recovering again changes nothing.
    assert recover(str(tmp_path)) == recovered


def test_recover_skips_records_a_checkpoint_already_absorbed(tmp_path):
    state = DurableState(
        str(tmp_path), seed_fragments=FRAGS, fsync=FsyncPolicy.NEVER
    )
    _mutate(state)
    journal_path = os.path.join(str(tmp_path), "journal.jz")
    with open(journal_path, "rb") as handle:
        stale_journal = handle.read()
    state.checkpoint()  # compacts + truncates the journal
    state.abandon()
    # Crash landed between checkpoint publication and truncation: put the
    # pre-checkpoint journal back and recover.
    with open(journal_path, "wb") as handle:
        handle.write(stale_journal)
    replayed = recover(str(tmp_path))
    assert replayed.skipped_records == 4 and replayed.replayed_records == 0
    # Sequence skip keeps the audit trail exact -- nothing is
    # double-applied.
    assert replayed.epoch == len(FRAGS)
    assert replayed.audit == [{"q": "1 OR 1=1"}]
    assert replayed.overlays == {"shop": ["OV ", "OV2 "], "blog": ["BLOG "]}


def test_recover_truncates_torn_tail(tmp_path):
    state = DurableState(
        str(tmp_path), seed_fragments=FRAGS, fsync=FsyncPolicy.NEVER
    )
    state.append_audit({"q": "DURABLE"})
    state.append_audit({"q": "TORN AWAY"})
    state.abandon()
    journal_path = os.path.join(str(tmp_path), "journal.jz")
    size = os.path.getsize(journal_path)
    with open(journal_path, "r+b") as handle:
        handle.truncate(size - 3)
    recovered = recover(str(tmp_path))
    assert recovered.torn_tail_truncated and recovered.torn_bytes > 0
    assert recovered.audit == [{"q": "DURABLE"}]
    # The truncation is durable: a second recovery sees a clean journal.
    assert not recover(str(tmp_path)).torn_tail_truncated


def _u32(n):
    return n.to_bytes(4, "little")


def test_recover_refuses_checkpoint_only_kinds_in_journal(tmp_path):
    journal_path = os.path.join(str(tmp_path), "journal.jz")
    with open(journal_path, "wb") as handle:
        handle.write(FILE_MAGIC + frame_record(encode_seal(0, 0), 1))
    with pytest.raises(JournalCorrupt, match="checkpoint-only"):
        recover(str(tmp_path))
    # Retired kinds 1-3, hand-framed in their last layouts (a fragment
    # batch, one removal, a full reload): a journal holding one fails
    # closed as an unknown kind.
    raw = FRAGS[0].encode()
    fragment_list = _u32(1) + _u32(len(raw)) + raw
    for payload in (
        bytes([1]) + fragment_list,
        bytes([2]) + _u32(len(raw)) + raw,
        bytes([3]) + fragment_list,
    ):
        with open(journal_path, "wb") as handle:
            handle.write(FILE_MAGIC + frame_record(payload, 1))
        with pytest.raises(JournalCorrupt, match="unknown record kind"):
            recover(str(tmp_path))


def _dir_bytes(state_dir):
    return {
        name: open(os.path.join(state_dir, name), "rb").read()
        for name in sorted(os.listdir(state_dir))
    }


def test_recover_refuses_journal_records_without_a_checkpoint(tmp_path):
    state_dir = str(tmp_path)
    state = DurableState(state_dir, seed_fragments=FRAGS, fsync=FsyncPolicy.NEVER)
    state.set_overlay("shop", ["OV "])
    state.abandon()
    # The first boot checkpoints before it journals anything, so records
    # without a checkpoint mean the checkpoint was lost: recovering the
    # journal alone would run on (and re-checkpoint) an empty base.
    os.unlink(os.path.join(state_dir, "checkpoint.jz"))
    with open(os.path.join(state_dir, "journal.jz"), "ab") as handle:
        handle.write(b"\x07torn")  # a torn tail recovery would truncate
    with open(os.path.join(state_dir, "checkpoint.jz.tmp"), "wb") as handle:
        handle.write(b"stale")  # a tmp file recovery would sweep
    before = _dir_bytes(state_dir)
    with pytest.raises(JournalCorrupt, match="no checkpoint"):
        recover(state_dir)
    with pytest.raises(JournalCorrupt, match="no checkpoint"):
        DurableState(state_dir, seed_fragments=FRAGS, fsync=FsyncPolicy.NEVER)
    assert _dir_bytes(state_dir) == before  # the refused open wrote nothing

    # A gateway over that directory refuses to start and counts it.
    from repro.service import AsyncGateway, GatewayConfig, GatewayThread

    gateway = AsyncGateway(
        FRAGS,
        gateway=GatewayConfig(
            unix_path=str(tmp_path / "gw.sock"),
            host=None,
            workers=1,
            state_dir=state_dir,
        ),
    )
    with pytest.raises(RuntimeError) as exc:
        GatewayThread(gateway).start()
    assert isinstance(exc.value.__cause__, JournalCorrupt)
    assert gateway.corruption_refusals == 1
    assert _dir_bytes(state_dir) == before


def test_recover_crash_before_first_checkpoint_is_fresh(tmp_path):
    state_dir = str(tmp_path)
    # The first boot died after opening its journal and mid-way through
    # writing its checkpoint: an empty journal and a stale tmp file.
    JournalWriter(
        os.path.join(state_dir, "journal.jz"), fsync=FsyncPolicy.NEVER
    ).close()
    with open(os.path.join(state_dir, "checkpoint.jz.tmp"), "wb") as handle:
        handle.write(b"half a checkpoint")
    recovered = recover(state_dir)
    assert recovered.source == "fresh" and recovered.fragments == []
    assert recovered.stale_tmp_swept == 1
    state = DurableState(state_dir, seed_fragments=FRAGS, fsync=FsyncPolicy.NEVER)
    assert state.fragments == tuple(FRAGS)  # the seed boots normally
    state.abandon()
    assert recover(state_dir).fragments == FRAGS


def test_recover_refuses_impossible_checkpoint_epoch(tmp_path):
    path = os.path.join(str(tmp_path), "checkpoint.jz")
    # A writer's epoch is at least its number of base fragments, so
    # fragments at epoch 0 are impossible history and refuse to serve ...
    write_checkpoint(path, fragments=FRAGS, epoch=0)
    with pytest.raises(JournalCorrupt, match="epoch 0"):
        recover(str(tmp_path))
    with pytest.raises(JournalCorrupt):
        DurableState(str(tmp_path), fsync=FsyncPolicy.NEVER)
    # ... while any positive epoch or an empty vocabulary is fine.
    write_checkpoint(path, fragments=FRAGS, epoch=1)
    assert recover(str(tmp_path)).epoch == 1
    write_checkpoint(path, fragments=[], epoch=0)
    assert recover(str(tmp_path)).fragments == []


# ----------------------------------------------------------------------
# DurableState lifecycle
# ----------------------------------------------------------------------


def test_durable_state_seed_is_durable_immediately(tmp_path):
    DurableState(
        str(tmp_path), seed_fragments=FRAGS, fsync=FsyncPolicy.NEVER
    ).abandon()
    recovered = recover(str(tmp_path))
    assert recovered.source == "checkpoint"
    assert recovered.fragments == FRAGS


def test_durable_state_persisted_wins_over_seed(tmp_path):
    state = DurableState(
        str(tmp_path), seed_fragments=FRAGS, fsync=FsyncPolicy.NEVER
    )
    state.set_overlay("shop", ["SURVIVOR "])
    state.abandon()
    reopened = DurableState(
        str(tmp_path),
        seed_fragments=["WRONG SEED "],
        fsync=FsyncPolicy.NEVER,
    )
    # The base vocabulary is the first boot's seed; a later seed is ignored.
    assert reopened.fragments == tuple(FRAGS)
    assert reopened.epoch == len(FRAGS)
    assert reopened.overlays == {"shop": ["SURVIVOR "]}
    # Reopening after a replay compacts: the journal is bare again.
    assert len(scan_journal(os.path.join(str(tmp_path), "journal.jz")).records) == 0
    reopened.close()


def test_durable_state_checkpoint_cadence_and_report(tmp_path):
    state = DurableState(
        str(tmp_path),
        seed_fragments=FRAGS,
        fsync=FsyncPolicy.NEVER,
        checkpoint_every=3,
    )
    assert not state.maybe_checkpoint()
    state.append_audit({"n": 1})
    state.append_audit({"n": 2})
    assert not state.maybe_checkpoint()
    state.append_audit({"n": 3})
    assert state.maybe_checkpoint()
    report = state.durability_report()
    assert report["checkpoints_written"] == 2  # seed + cadence
    assert report["records_since_checkpoint"] == 0
    assert report["audit_persisted"] == 3
    assert report["fsync_policy"] == "never"
    assert report["recovery"]["source"] == "fresh"
    state.close()


def test_durable_state_audit_tail_bounded_but_persisted(tmp_path):
    state = DurableState(str(tmp_path), fsync=FsyncPolicy.NEVER)
    total = AUDIT_KEEP + 4
    for n in range(total):
        state.append_audit({"n": n})
    assert [e["n"] for e in state.audit_tail()] == list(range(4, total))
    state.abandon()
    # The journal holds every event; only the in-memory tail is bounded.
    recovered = recover(str(tmp_path))
    assert [e["n"] for e in recovered.audit] == list(range(total))


def test_durable_state_rejects_bad_knobs(tmp_path):
    with pytest.raises(ValueError):
        DurableState(str(tmp_path / "x"), checkpoint_every=0)
    with pytest.raises(ValueError):
        JournalWriter(str(tmp_path / "j.jz"), batch_size=0)
    with pytest.raises(ValueError):
        JournalWriter(str(tmp_path / "j.jz"), start_seq=0)
