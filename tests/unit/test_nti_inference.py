"""Unit tests for negative taint inference."""

from repro.core.verdict import Technique
from repro.nti import NTIAnalyzer, NTIConfig, candidate_inputs
from repro.phpapp.context import CapturedInput, RequestContext
from repro.phpapp.transforms import addslashes


def ctx(*values, source="get"):
    return RequestContext(
        inputs=[CapturedInput(source, f"p{i}", v) for i, v in enumerate(values)]
    )


def test_benign_input_matching_data_position_is_safe():
    nti = NTIAnalyzer()
    result = nti.analyze("SELECT * FROM t WHERE ID=1 LIMIT 5", ctx("1"))
    assert result.safe
    assert result.technique is Technique.NTI
    # A marking was still inferred (the input matched), just over data.
    assert result.markings


def test_attack_covering_critical_token_detected():
    nti = NTIAnalyzer()
    payload = "-1 OR 1=1"
    result = nti.analyze(f"SELECT * FROM t WHERE ID={payload}", ctx(payload))
    assert not result.safe
    assert {d.token_text for d in result.detections} >= {"OR", "="}
    assert all(d.input_value == payload for d in result.detections)


def test_partial_token_overlap_not_detected():
    # Input covers only half of the UNION keyword.
    nti = NTIAnalyzer()
    result = nti.analyze("SELECT 1 UNION SELECT 2", ctx("1 UNI"))
    assert result.safe


def test_markings_from_different_inputs_never_combined():
    # Paper: inputs "O" and "R" must not combine to taint OR.
    nti = NTIAnalyzer()
    result = nti.analyze("SELECT 1 WHERE a OR b", ctx("O", "R"))
    assert result.safe


def test_split_payload_evades():
    nti = NTIAnalyzer()
    query = "SELECT * FROM t WHERE ID=0 OR TRUE"
    result = nti.analyze(query, ctx("0 O", "R TR", "UE"))
    assert result.safe
    # Whereas the whole payload in one input is caught.
    assert not nti.analyze(query, ctx("0 OR TRUE")).safe


def test_magic_quotes_evasion_beats_threshold():
    nti = NTIAnalyzer()
    payload = "1 OR 1=1/*" + "'" * 10 + "*/"
    query = f"SELECT * FROM t WHERE ID={addslashes(payload)}"
    result = nti.analyze(query, ctx(payload))
    assert result.safe  # distance 10 over ~len+10 exceeds 20%


def test_small_transformation_still_matches():
    # One backslash added to a 30-char payload: ratio ~3%, still caught.
    nti = NTIAnalyzer()
    payload = "-1 OR 1=1 AND name = 'admin'x"
    query = f"SELECT * FROM t WHERE ID={addslashes(payload)}"
    assert not nti.analyze(query, ctx(payload)).safe


def test_empty_inputs_are_ignored():
    nti = NTIAnalyzer()
    result = nti.analyze("SELECT 1 OR 2", ctx(""))
    assert result.safe
    assert not result.markings


def test_threshold_zero_requires_exact():
    nti = NTIAnalyzer(NTIConfig(threshold=0.0))
    payload = "1 OR 2"
    assert not nti.analyze(f"SELECT {payload}", ctx(payload)).safe
    transformed = addslashes(payload + "'")
    assert nti.analyze(f"SELECT {transformed}", ctx(payload + "'")).safe


def test_precomputed_tokens_used():
    nti = NTIAnalyzer()
    payload = "1 OR 2"
    query = f"SELECT {payload}"
    assert nti.analyze(query, ctx(payload), tokens=[]).safe


def test_detection_spans_point_into_query():
    nti = NTIAnalyzer()
    payload = "-1 UNION SELECT 2"
    query = f"SELECT a FROM t WHERE id={payload}"
    result = nti.analyze(query, ctx(payload))
    for detection in result.detections:
        assert query[detection.token_start : detection.token_end] == detection.token_text


# -- candidate_inputs ---------------------------------------------------


def test_candidate_inputs_deduplicates():
    context = ctx("same", "same", "other")
    assert candidate_inputs(context, "query " * 10, 0.2) == ("same", "other")


def test_candidate_inputs_drops_empty():
    assert candidate_inputs(ctx(""), "q", 0.2) == ()


def test_candidate_inputs_length_prune():
    # An input vastly longer than the query cannot match any substring.
    huge = "x" * 1000
    assert candidate_inputs(ctx(huge), "short query", 0.2) == ()
    # But a slightly longer input survives the budgeted bound.
    slightly = "x" * 12
    assert candidate_inputs(ctx(slightly), "x" * 10, 0.2) == (slightly,)
