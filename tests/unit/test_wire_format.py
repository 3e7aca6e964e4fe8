"""Unit tests for the packed batch wire format (``repro/pti/wire.py``).

Three concerns, mirroring the module's contract:

- **Round-trip exactness** -- request and reply frames decode to exactly
  what was packed (fuzzed with hypothesis, including non-ASCII and lone
  surrogates), and token spans rebuild field-for-field equal ``Token``
  objects from the receiver's copy of the query string.
- **Fail-closed decoding** -- every truncation of a valid frame, every
  corrupted header field and any trailing garbage raises
  :class:`~repro.pti.wire.WireFormatError`; the daemon's batch decoder
  converts that (and count mismatches, and non-frame payloads such as
  pickles) to :class:`~repro.core.resilience.CorruptReply`, never a
  verdict.
- **Bounds** -- a daemon batch beyond ``MAX_BATCH`` is split into frames,
  not refused.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JozaEngine
from repro.core.resilience import CorruptReply
from repro.phpapp.context import RequestContext
from repro.pti import wire
from repro.pti.daemon import DaemonReply, SubprocessPTIDaemon, _reply_frame
from repro.pti.fragments import FragmentStore
from repro.sqlparser.parser import critical_tokens
from repro.sqlparser.tokens import Token, TokenType

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

QUERIES = st.lists(st.text(max_size=80), min_size=1, max_size=12)

SPAN = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=500),
).map(lambda t: (t[0], min(t[1], t[2]), max(t[1], t[2])))

VERDICT = st.tuples(
    st.booleans(),
    st.sampled_from([None, "query", "structure"]),
    st.one_of(st.none(), st.lists(SPAN, max_size=8)),
)

DELTAS = st.fixed_dictionaries(
    {stage: st.floats(min_value=0.0, max_value=10.0) for stage in wire.STAGES}
)


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


@given(QUERIES)
@settings(max_examples=100, deadline=None)
def test_request_round_trip(queries):
    frame = wire.pack_batch_request(queries)
    assert wire.peek_kind(frame) == wire.KIND_REQUEST
    assert wire.unpack_batch_request(bytes(frame)) == queries


def test_request_round_trips_lone_surrogates():
    # Hostile byte sequences can smuggle lone surrogates into str; the
    # surrogatepass codec must carry them across unchanged.
    queries = ["SELECT '\ud800' FROM t", "plain"]
    assert wire.unpack_batch_request(bytes(wire.pack_batch_request(queries))) == queries


@given(st.lists(VERDICT, min_size=1, max_size=10), DELTAS)
@settings(max_examples=100, deadline=None)
def test_reply_round_trip(verdicts, deltas):
    frame = wire.pack_batch_reply(verdicts, deltas)
    assert wire.peek_kind(frame) == wire.KIND_REPLY
    decoded, decoded_deltas = wire.unpack_batch_reply(bytes(frame))
    assert len(decoded) == len(verdicts)
    for (safe, cache, spans), (dsafe, dcache, dspans) in zip(verdicts, decoded):
        assert safe == dsafe and cache == dcache
        if spans is None:
            assert dspans is None
        else:
            assert [tuple(s) for s in dspans] == [tuple(s) for s in spans]
    assert decoded_deltas == deltas


def test_token_spans_round_trip_exactly():
    queries = [
        "SELECT a, b FROM `users` WHERE id = 1 AND name = 'x' -- t",
        "UPDATE t SET x = 2 WHERE `weird id` = 'y' /* c */",
        "DELETE FROM logs WHERE ts < 100 OR 1=1",
    ]
    for query in queries:
        tokens = critical_tokens(query)
        spans = wire.spans_from_tokens(tokens)
        rebuilt = wire.tokens_from_spans(query, spans)
        assert rebuilt == tokens
        for orig, back in zip(tokens, rebuilt):
            assert (orig.type, orig.text, orig.start, orig.end, orig.value) == (
                back.type,
                back.text,
                back.start,
                back.end,
                back.value,
            )


# ---------------------------------------------------------------------------
# Packer refusals
# ---------------------------------------------------------------------------


def test_span_packer_refuses_unpackable_tokens():
    # Literal types never cross the wire.
    literal = Token(TokenType.NUMBER, "42", 0, 2, value=42)
    with pytest.raises(wire.WireFormatError):
        wire.spans_from_tokens([literal])
    # A value that the span derivation cannot reproduce must be refused,
    # not silently shipped lossily.
    forged = Token(TokenType.KEYWORD, "SELECT", 0, 6, value="NOT-THE-DERIVATION")
    with pytest.raises(wire.WireFormatError):
        wire.spans_from_tokens([forged])


def test_request_packer_bounds():
    with pytest.raises(wire.WireFormatError):
        wire.pack_batch_request([])
    with pytest.raises(wire.WireFormatError):
        wire.pack_batch_request(["q"] * (wire.MAX_BATCH + 1))


def test_span_decoder_rejects_bad_spans():
    with pytest.raises(wire.WireFormatError):
        wire.tokens_from_spans("abc", [(99, 0, 1)])  # unknown type code
    with pytest.raises(wire.WireFormatError):
        wire.tokens_from_spans("abc", [(0, 2, 9)])  # span beyond query


# ---------------------------------------------------------------------------
# Fail-closed decoding: truncations and corruptions
# ---------------------------------------------------------------------------


def _valid_reply_frame():
    verdicts = [
        (True, "query", None),
        (False, None, [(0, 0, 6), (2, 7, 8)]),
        (True, "structure", []),
    ]
    deltas = {stage: 0.25 for stage in wire.STAGES}
    return wire.pack_batch_reply(verdicts, deltas)


def test_every_truncation_fails_closed():
    request = bytes(wire.pack_batch_request(["SELECT 1", "SELECT 2 -- c"]))
    reply = bytes(_valid_reply_frame())
    for frame, unpack in (
        (request, wire.unpack_batch_request),
        (reply, wire.unpack_batch_reply),
    ):
        for cut in range(len(frame)):
            with pytest.raises(wire.WireFormatError):
                unpack(frame[:cut])
        with pytest.raises(wire.WireFormatError):
            unpack(frame + b"\x00")  # trailing garbage


def test_corrupt_header_fields_fail_closed():
    frame = bytearray(wire.pack_batch_request(["SELECT 1"]))
    for index, value in ((0, ord("X")), (2, 99), (3, 99), (4, 0xFF), (5, 0xFF)):
        bad = bytes(frame[:index]) + bytes([value]) + bytes(frame[index + 1 :])
        with pytest.raises(wire.WireFormatError):
            wire.unpack_batch_request(bad)
    # A reply frame fed to the request decoder (and vice versa) is a kind
    # mismatch, not a silent misparse.
    with pytest.raises(wire.WireFormatError):
        wire.unpack_batch_request(bytes(_valid_reply_frame()))
    with pytest.raises(wire.WireFormatError):
        wire.unpack_batch_reply(bytes(wire.pack_batch_request(["q"])))


# ---------------------------------------------------------------------------
# Snapshot frames (tenancy replication push)
# ---------------------------------------------------------------------------

SNAPSHOT_FRAGMENTS = st.lists(st.text(max_size=60), max_size=10)
TENANT_IDS = st.text(max_size=24)
EPOCHS = st.integers(min_value=0, max_value=2**62)


@given(SNAPSHOT_FRAGMENTS, EPOCHS, TENANT_IDS)
@settings(max_examples=100, deadline=None)
def test_snapshot_round_trip(fragments, epoch, tenant):
    frame = wire.pack_store_snapshot(fragments, epoch, tenant=tenant)
    assert wire.peek_kind(frame) == wire.KIND_SNAPSHOT
    got_tenant, got_epoch, got_fragments = wire.unpack_store_snapshot(frame)
    assert got_tenant == tenant
    assert got_epoch == epoch
    assert tuple(got_fragments) == tuple(fragments)


@given(EPOCHS)
@settings(max_examples=50, deadline=None)
def test_snapshot_ack_round_trip(epoch):
    frame = wire.pack_snapshot_ack(epoch)
    assert wire.peek_kind(frame) == wire.KIND_SNAPSHOT_ACK
    assert wire.unpack_snapshot_ack(frame) == epoch


def test_snapshot_truncations_fail_closed():
    frame = bytes(
        wire.pack_store_snapshot(["SELECT 1", "frag "], 42, tenant="alpha")
    )
    for cut in range(len(frame)):
        with pytest.raises(wire.WireFormatError):
            wire.unpack_store_snapshot(frame[:cut])
    with pytest.raises(wire.WireFormatError):
        wire.unpack_store_snapshot(frame + b"\x00")
    ack = bytes(wire.pack_snapshot_ack(42))
    for cut in range(len(ack)):
        with pytest.raises(wire.WireFormatError):
            wire.unpack_snapshot_ack(ack[:cut])


def test_snapshot_kind_confusion_fails_closed():
    with pytest.raises(wire.WireFormatError):
        wire.unpack_store_snapshot(bytes(wire.pack_snapshot_ack(1)))
    with pytest.raises(wire.WireFormatError):
        wire.unpack_snapshot_ack(
            bytes(wire.pack_store_snapshot([], 1, tenant=""))
        )
    with pytest.raises(wire.WireFormatError):
        wire.unpack_store_snapshot(bytes(wire.pack_batch_request(["q"])))


def test_snapshot_hostile_fragment_count_fails_closed():
    """A forged count must be refused before any allocation loop."""
    frame = bytearray(wire.pack_store_snapshot(["a"], 1, tenant="t"))
    # nfrags u32 sits after header + i64 epoch + u16 tenant len + tenant.
    offset = wire._HEADER.size + 8 + 2 + 1
    frame[offset : offset + 4] = (2**32 - 1).to_bytes(4, "little")
    with pytest.raises(wire.WireFormatError):
        wire.unpack_store_snapshot(bytes(frame))


def test_snapshot_refuses_oversized_vocabulary():
    huge = ["x" * 1_000_000] * 20  # ~20MB > MAX_FRAME
    with pytest.raises(wire.WireFormatError):
        wire.pack_store_snapshot(huge, 1, tenant="t")


# ---------------------------------------------------------------------------
# Daemon-side decode + bounds (no child process required)
# ---------------------------------------------------------------------------

FRAGMENTS = ["SELECT * FROM t WHERE id = ", " LIMIT 1"]


def _daemon():
    return SubprocessPTIDaemon(FragmentStore(FRAGMENTS))


def test_decode_batch_corrupt_payloads_raise_corrupt_reply():
    daemon = _daemon()
    queries = ["SELECT 1", "SELECT 2"]
    # Not a frame.
    with pytest.raises(CorruptReply):
        daemon._decode_batch(queries, b"\x00garbage")
    # A frame, but truncated.
    frame = bytes(_valid_reply_frame())
    with pytest.raises(CorruptReply):
        daemon._decode_batch(queries, frame[: len(frame) - 3])
    # A well-formed frame whose count disagrees with the request.
    with pytest.raises(CorruptReply):
        daemon._decode_batch(["only-one"], frame)
    # Pickles are never replies, whatever their shape -- including the
    # per-query tuples an older child sent.
    with pytest.raises(CorruptReply):
        daemon._decode_batch(queries, pickle.dumps({"not": "a list"}))
    with pytest.raises(CorruptReply):
        daemon._decode_batch(queries, pickle.dumps([(True, None, None, {})]))
    with pytest.raises(CorruptReply):
        daemon._decode_batch(
            queries, pickle.dumps([(True, None, None, {}), (True, None, None, {})])
        )


def test_reply_frame_ships_verdicts_without_unpackable_tokens():
    daemon = _daemon()
    deltas = {stage: 0.0 for stage in wire.STAGES}
    query = "SELECT a FROM t"
    tokens = critical_tokens(query)
    forged = Token(TokenType.KEYWORD, "SELECT", 0, 6, value="NOT-THE-DERIVATION")
    replies = [
        DaemonReply(safe=True, result=None, tokens=tokens, from_cache=None),
        DaemonReply(safe=False, result=None, tokens=[forged], from_cache=None),
    ]
    decoded, _ = daemon._decode_batch([query, query], _reply_frame(replies, deltas))
    # Exact verdicts either way; tokens the frame cannot carry exactly are
    # left for the parent to lex rather than shipped lossily.
    assert [r.safe for r in decoded] == [True, False]
    assert [r.tokens for r in decoded] == [None, None]
    packable, _ = daemon._decode_batch([query], _reply_frame(replies[:1], deltas))
    assert packable[0].tokens == tokens


def test_batch_beyond_max_batch_is_split_into_frames():
    fragments = ["SELECT * FROM t WHERE id=", " LIMIT 1"]
    store = FragmentStore(fragments)
    queries = [f"SELECT * FROM t WHERE id={i} LIMIT 1" for i in range(300)]
    assert len(queries) > wire.MAX_BATCH
    with SubprocessPTIDaemon(store) as daemon:
        engine = JozaEngine(store, daemon=daemon)
        verdicts = engine.inspect_batch(queries, RequestContext(inputs=[]))
        assert all(v.safe and not v.failsafe for v in verdicts)
        assert all(v.pti is not None and v.pti.safe for v in verdicts)
        assert engine.stats.failsafe_blocks == 0
        assert daemon.batches == 1  # one call, several frames
        assert daemon.spawns == 1
