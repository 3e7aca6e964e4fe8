"""Unit + fuzz tests for the gateway wire frames and verdict codec.

Mirrors the ``test_wire_format.py`` contract for the gateway frame kinds
(request / reply / error, and the worker pipe's report frame):

- **Round-trip exactness** -- hypothesis-fuzzed, including non-ASCII, lone
  surrogates, NaN-encoded unbounded budgets and negative (clock-skewed)
  budgets preserved bit-for-bit.
- **Fail-closed decoding** -- every prefix truncation of a valid frame,
  every corrupted header field and any trailing garbage raises
  :class:`~repro.pti.wire.WireFormatError`; byte-mangled frames either
  raise or decode to a structurally valid request -- they can never
  produce a verdict, because verdicts only travel in *reply* frames built
  by the server.
- **Bounds** -- batch, input-count, string-length and frame-size ceilings
  are enforced at pack and unpack time.

The codec half: canonical verdict JSON round-trips losslessly, is
deterministic (the byte-parity acceptance check depends on it), and
mangled payloads raise :class:`~repro.core.verdict.CodecError` rather
than ever yielding a dict whose ``safe`` is not a genuine bool.  The
payload tail check the gateway audits by agrees with the decoded
``safe`` on every encoded verdict.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.verdict import (
    AnalysisResult,
    CodecError,
    Detection,
    QueryVerdict,
    TaintMarking,
    Technique,
    dict_to_verdict,
    failsafe_dict,
    verdict_to_dict,
)
from repro.pti import wire
from repro.service import codec

QUERIES = st.lists(st.text(max_size=60), min_size=1, max_size=8)
NAMES = st.text(max_size=20)
INPUTS = st.lists(
    st.tuples(NAMES, NAMES, st.text(max_size=40)), max_size=6
)
BUDGETS = st.one_of(
    st.none(),
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
)


#: A worker report in miniature: nested objects, lists, floats, unicode.
SAMPLE_REPORT = {
    "tenancy": {"tenants": 2, "handoff_swaps": 1},
    "tenants": {"алфа": {"shape_fastpath": {"shape_hits": 3}, "busy_s": 0.25}},
    "reasons": ["worker: unknown tenant", None],
}


def sample_request(**overrides) -> bytes:
    kwargs = dict(
        client_id="tenant-1",
        path="/wp/post",
        inputs=[("get", "id", "7"), ("post", "title", "hello")],
        budget=1.5,
    )
    kwargs.update(overrides)
    return wire.pack_gateway_request(
        ["SELECT * FROM records WHERE ID=7", "SELECT 1"], **kwargs
    )


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


@given(QUERIES, NAMES, NAMES, INPUTS, BUDGETS)
@settings(max_examples=100, deadline=None)
def test_request_round_trip(queries, client_id, path, inputs, budget):
    frame = wire.pack_gateway_request(
        queries, client_id=client_id, path=path, inputs=inputs, budget=budget
    )
    assert wire.peek_kind(frame) == wire.KIND_GW_REQUEST
    decoded = wire.unpack_gateway_request(frame)
    assert decoded.queries == list(queries)
    assert decoded.client_id == client_id
    assert decoded.path == path
    assert decoded.inputs == [tuple(i) for i in inputs]
    if budget is None:
        assert decoded.budget is None
    else:
        assert decoded.budget == pytest.approx(float(budget))


def test_request_round_trip_surrogates_and_unicode():
    queries = ["SELECT '\udc80\U0001f600'", "проверка"]
    frame = wire.pack_gateway_request(
        queries, client_id="t\udc81", path="/п", inputs=[("g", "n", "\udc99")]
    )
    decoded = wire.unpack_gateway_request(frame)
    assert decoded.queries == queries
    assert decoded.client_id == "t\udc81"
    assert decoded.inputs[0][2] == "\udc99"


def test_negative_budget_preserved_for_skew_detection():
    decoded = wire.unpack_gateway_request(sample_request(budget=-3.25))
    assert decoded.budget == -3.25  # server side must shed, not round up


def test_unbounded_budget_is_nan_on_the_wire():
    frame = sample_request(budget=None)
    assert wire.unpack_gateway_request(frame).budget is None
    # NaN is the encoding; an explicit NaN float also means unbounded.
    assert b"\x7f" in frame or b"\xf8" in frame  # NaN payload bytes present


@given(st.lists(st.binary(max_size=200), min_size=1, max_size=16))
@settings(max_examples=100, deadline=None)
def test_reply_round_trip(payloads):
    frame = wire.pack_gateway_reply(payloads)
    assert wire.peek_kind(frame) == wire.KIND_GW_REPLY
    assert wire.unpack_gateway_reply(frame) == list(payloads)


@pytest.mark.parametrize(
    "code",
    [
        wire.GW_ERR_BAD_FRAME,
        wire.GW_ERR_OVERSIZED,
        wire.GW_ERR_DRAINING,
        wire.GW_ERR_INTERNAL,
    ],
)
def test_error_round_trip(code):
    frame = wire.pack_gateway_error(code, "why it failed")
    assert wire.peek_kind(frame) == wire.KIND_GW_ERROR
    assert wire.unpack_gateway_error(frame) == (code, "why it failed")


def test_report_round_trip():
    frame = wire.pack_report(SAMPLE_REPORT)
    assert wire.peek_kind(frame) == wire.KIND_REPORT
    assert wire.unpack_report(frame) == SAMPLE_REPORT
    assert wire.unpack_report(wire.pack_report({})) == {}


@pytest.mark.parametrize("payload", [b"[]", b"null", b"{", b"\xff"])
def test_report_payload_must_be_a_json_object(payload):
    frame = wire._HEADER.pack(wire.MAGIC, wire.VERSION, wire.KIND_REPORT, 1)
    frame += wire._U32.pack(len(payload)) + payload
    with pytest.raises(wire.WireFormatError):
        wire.unpack_report(frame)


# ---------------------------------------------------------------------------
# Fail-closed decoding
# ---------------------------------------------------------------------------


def test_every_prefix_truncation_fails_closed():
    frame = sample_request()
    for cut in range(len(frame)):
        with pytest.raises(wire.WireFormatError):
            wire.unpack_gateway_request(frame[:cut])


def test_every_prefix_truncation_of_reply_fails_closed():
    frame = wire.pack_gateway_reply([b"abc", b"", b"0123456789"])
    for cut in range(len(frame)):
        with pytest.raises(wire.WireFormatError):
            wire.unpack_gateway_reply(frame[:cut])


def test_every_prefix_truncation_of_error_fails_closed():
    frame = wire.pack_gateway_error(wire.GW_ERR_BAD_FRAME, "msg")
    for cut in range(len(frame)):
        with pytest.raises(wire.WireFormatError):
            wire.unpack_gateway_error(frame[:cut])


def test_every_prefix_truncation_of_report_fails_closed():
    frame = wire.pack_report(SAMPLE_REPORT)
    for cut in range(len(frame)):
        with pytest.raises(wire.WireFormatError):
            wire.unpack_report(frame[:cut])


HEADER_MUTATIONS = [
    (lambda f: b"XX" + f[2:], "bad magic"),
    (lambda f: f[:2] + bytes([99]) + f[3:], "bad version"),
    (lambda f: f[:3] + bytes([7]) + f[4:], "unknown kind"),
    (lambda f: f[:4] + b"\x00\x00" + f[6:], "zero count"),
    (lambda f: f[:4] + b"\xff\xff" + f[6:], "count past MAX_BATCH"),
    (lambda f: f + b"!", "trailing bytes"),
]


@pytest.mark.parametrize("mutate, reason", HEADER_MUTATIONS)
def test_corrupt_header_fields_fail_closed(mutate, reason):
    frame = sample_request()
    with pytest.raises(wire.WireFormatError):
        wire.unpack_gateway_request(mutate(frame))


@pytest.mark.parametrize("mutate, reason", HEADER_MUTATIONS)
def test_corrupt_report_header_fields_fail_closed(mutate, reason):
    frame = wire.pack_report(SAMPLE_REPORT)
    with pytest.raises(wire.WireFormatError):
        wire.unpack_report(mutate(frame))


def test_peek_kind_rejects_foreign_bytes():
    with pytest.raises(wire.WireFormatError):
        wire.peek_kind(b"")
    with pytest.raises(wire.WireFormatError):
        wire.peek_kind(b"\x80\x04pickle")
    with pytest.raises(wire.WireFormatError):
        wire.peek_kind(b"JZ")  # truncated header


def test_reply_frame_rejected_as_request_and_vice_versa():
    request = sample_request()
    reply = wire.pack_gateway_reply([b"x"])
    with pytest.raises(wire.WireFormatError):
        wire.unpack_gateway_request(reply)
    with pytest.raises(wire.WireFormatError):
        wire.unpack_gateway_reply(request)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_mangled_request_never_parses_into_different_query_count(data):
    """Byte-mangling either raises or yields a *structurally valid* request.

    The fail-closed argument for the network layer: a request frame never
    carries verdicts, so the worst a mangled frame can do is decode to
    some other (valid) request whose queries then get analysed normally.
    There is no byte flip that turns a request into a PASS -- PASS only
    exists in reply frames, which the server alone produces.
    """
    frame = bytearray(sample_request())
    flips = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, len(frame) - 1), st.integers(1, 255)
            ),
            min_size=1,
            max_size=8,
        )
    )
    for pos, xor in flips:
        frame[pos] ^= xor
    try:
        decoded = wire.unpack_gateway_request(bytes(frame))
    except wire.WireFormatError:
        return  # fail-closed: the gateway answers GW_ERR_BAD_FRAME
    assert isinstance(decoded.queries, list)
    assert 0 < len(decoded.queries) <= wire.MAX_BATCH
    assert all(isinstance(q, str) for q in decoded.queries)
    assert decoded.budget is None or not math.isnan(decoded.budget)


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


def test_empty_and_oversized_batches_refused():
    with pytest.raises(wire.WireFormatError):
        wire.pack_gateway_request([])
    with pytest.raises(wire.WireFormatError):
        wire.pack_gateway_request(["q"] * (wire.MAX_BATCH + 1))
    with pytest.raises(wire.WireFormatError):
        wire.pack_gateway_reply([])
    with pytest.raises(wire.WireFormatError):
        wire.pack_gateway_reply([b"x"] * (wire.MAX_BATCH + 1))


def test_too_many_inputs_refused_both_ways():
    too_many = [("g", "n", "v")] * (wire.MAX_INPUTS + 1)
    with pytest.raises(wire.WireFormatError):
        wire.pack_gateway_request(["q"], inputs=too_many)
    # Unpack side: forge a count past the limit.
    frame = bytearray(wire.pack_gateway_request(["q"], inputs=[]))
    offset = wire._HEADER.size + 8 + 2 + 0 + 2 + 1  # header+budget+cid+path
    frame[offset : offset + 2] = (wire.MAX_INPUTS + 1).to_bytes(2, "little")
    with pytest.raises(wire.WireFormatError):
        wire.unpack_gateway_request(bytes(frame))


def test_string_fields_past_u16_refused():
    with pytest.raises(wire.WireFormatError):
        wire.pack_gateway_request(["q"], client_id="x" * 70_000)


def test_frame_past_max_frame_refused_at_pack_time():
    with pytest.raises(wire.WireFormatError):
        wire.pack_gateway_reply([b"x" * (wire.MAX_FRAME + 1)])


def test_unknown_error_code_refused():
    with pytest.raises(wire.WireFormatError):
        wire.pack_gateway_error(250, "nope")
    frame = bytearray(wire.pack_gateway_error(wire.GW_ERR_BAD_FRAME, "m"))
    frame[wire._HEADER.size] = 250
    with pytest.raises(wire.WireFormatError):
        wire.unpack_gateway_error(bytes(frame))


# ---------------------------------------------------------------------------
# Verdict codec
# ---------------------------------------------------------------------------


def make_verdict() -> QueryVerdict:
    marking = TaintMarking(3, 10, Technique.NTI, "payload' OR 1", 0.1)
    detection = Detection(
        technique=Technique.PTI,
        reason="critical token not covered",
        token_text="UNION",
        token_start=20,
        token_end=25,
        input_value="x' UNION SELECT",
    )
    return QueryVerdict(
        query="SELECT * FROM t WHERE a='x' UNION SELECT pass FROM u",
        safe=False,
        pti=AnalysisResult(
            Technique.PTI, False, [marking], [detection], None
        ),
        nti=AnalysisResult(Technique.NTI, True, [], [], "query"),
        degraded=False,
        failsafe=False,
        failure_reasons=[],
    )


def test_codec_round_trip_is_lossless():
    verdict = make_verdict()
    data = verdict_to_dict(verdict)
    encoded = codec.encode_verdict(data)
    decoded = codec.decode_verdict(encoded)
    assert decoded == data
    rebuilt = dict_to_verdict(decoded)
    assert rebuilt == verdict


def test_codec_encoding_is_deterministic():
    data = verdict_to_dict(make_verdict())
    assert codec.encode_verdict(data) == codec.encode_verdict(dict(data))
    shuffled = dict(reversed(list(data.items())))
    assert codec.encode_verdict(shuffled) == codec.encode_verdict(data)


def test_failsafe_dict_is_never_safe_and_always_attributed():
    data = failsafe_dict("SELECT 1", "gateway: admission queue full")
    assert data["safe"] is False
    assert data["failsafe"] is True
    assert data["failure_reasons"] == ["gateway: admission queue full"]
    # Encodes/decodes like any engine verdict.
    assert codec.decode_verdict(codec.encode_verdict(data)) == data


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"not json",
        b"[]",
        b"null",
        b'{"query": "q"}',  # missing keys
        b'{"query":"q","safe":"yes","degraded":false,"failsafe":false,'
        b'"failure_reasons":[]}',  # truthy-string safe must not pass
        "{'single': 'quotes'}".encode(),
        b"\xff\xfe\x00garbage",
    ],
)
def test_mangled_payloads_raise_codec_error(payload):
    with pytest.raises(CodecError):
        codec.decode_verdict(payload)


@given(st.binary(min_size=0, max_size=100))
@settings(max_examples=150, deadline=None)
def test_random_payloads_never_yield_nonbool_safe(payload):
    try:
        data = codec.decode_verdict(payload)
    except CodecError:
        return
    assert isinstance(data["safe"], bool)


def test_dict_to_verdict_rejects_malformed_structures():
    with pytest.raises(CodecError):
        dict_to_verdict({"query": "q"})
    with pytest.raises(CodecError):
        dict_to_verdict(
            {
                "query": "q",
                "safe": True,
                "degraded": False,
                "failsafe": False,
                "failure_reasons": [],
                "pti": {"technique": "bogus"},
                "nti": None,
            }
        )


#: Verdict text, biased toward the canonical safe tail so queries,
#: reasons and nested fields that quote it are drawn often.
VERDICT_TEXT = st.one_of(
    st.text(max_size=30),
    st.builds(
        lambda head, tail: head + '"safe":true}' + tail,
        st.text(max_size=8),
        st.sampled_from(["", "}", '"safe":true}']),
    ),
)


def analysis_results(technique: Technique):
    markings = st.builds(
        TaintMarking,
        st.integers(0, 200),
        st.integers(0, 200),
        st.just(technique),
        VERDICT_TEXT,
        st.floats(min_value=0.0, max_value=1.0),
    )
    detections = st.builds(
        Detection,
        technique=st.just(technique),
        reason=VERDICT_TEXT,
        token_text=VERDICT_TEXT,
        token_start=st.integers(0, 200),
        token_end=st.integers(0, 200),
        input_value=st.none() | VERDICT_TEXT,
    )
    return st.none() | st.builds(
        AnalysisResult,
        st.just(technique),
        st.booleans(),
        st.lists(markings, max_size=2),
        st.lists(detections, max_size=2),
        st.sampled_from([None, "query", "structure"]),
    )


VERDICT_DICTS = st.one_of(
    st.builds(
        QueryVerdict,
        query=VERDICT_TEXT,
        safe=st.booleans(),
        pti=analysis_results(Technique.PTI),
        nti=analysis_results(Technique.NTI),
        degraded=st.booleans(),
        failsafe=st.booleans(),
        failure_reasons=st.lists(VERDICT_TEXT, max_size=2),
    ).map(verdict_to_dict),
    st.builds(
        failsafe_dict,
        VERDICT_TEXT,
        VERDICT_TEXT,
        tenant=st.none() | VERDICT_TEXT,
    ),
)


@given(VERDICT_DICTS)
@example(failsafe_dict('SELECT \'"safe":true}', '"safe":true}'))
@example(verdict_to_dict(make_verdict()))
@settings(max_examples=300, deadline=None)
def test_payload_is_safe_agrees_with_decoded_safe(data):
    payload = codec.encode_verdict(data)
    safe = codec.decode_verdict(payload)["safe"]
    assert codec.payload_is_safe(payload) is safe


def test_safe_is_the_last_verdict_key():
    # payload_is_safe reads the tail of the sorted-key encoding: a key
    # sorting after "safe" would move the safe flag off the tail.
    assert max(verdict_to_dict(make_verdict())) == "safe"
    assert max(failsafe_dict("q", "reason", tenant="t")) == "safe"
