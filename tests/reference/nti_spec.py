"""The paper's NTI rule (DESIGN.md section 1), with no pruning.

For each distinct non-empty input, in capture order:

1. *Substring distance*: Sellers' O(n*m) dynamic program over the whole
   query, with start tracking.  Row 0 is pinned at zero, so a match may
   start at any query offset; the minimum over the last row lets it end
   anywhere.
2. *Difference ratio*: distance divided by the length of the matched
   query substring, accepted at ``ratio <= threshold``.  (The paper's
   pseudo-code writes ``<``; DESIGN.md section 5 records the divergence.)
   A zero-length match never counts.
3. *Whole-token rule*: the query is an attack iff the match of one single
   input covers at least one whole critical token of the query.  Markings
   from different inputs are never combined.

There is no exact-containment shortcut, no length cutoff, no bound and no
budget: every input runs the full DP.  Critical tokens come from
``lexer_spec``, so the spec shares no code with the implementation.

The paper does not say which substring wins a tie, so the spec fixes the
rule every matcher in ``repro.matching`` reproduces: lowest distance, then
longest match, then earliest end; within one end column the DP prefers
substitution, then skipping a query character, then skipping an input
character, which fixes the start.

Python 3.9 compatible: tier-1 CI runs 3.9.
"""

from tests.reference.lexer_spec import critical_tokens


def sellers(pattern, query):
    """``(distance, start, end)`` of ``pattern``'s best match in ``query``."""
    n = len(pattern)
    dist = list(range(n + 1))
    starts = [0] * (n + 1)
    best = (n, 0, 0)  # the empty substring at offset 0
    for j in range(1, len(query) + 1):
        ch = query[j - 1]
        diag_dist, diag_start = dist[0], starts[0]
        starts[0] = j
        for i in range(1, n + 1):
            up_dist, up_start = dist[i], starts[i]
            substitute = diag_dist + (pattern[i - 1] != ch)
            skip_query_char = up_dist + 1
            skip_input_char = dist[i - 1] + 1
            if substitute <= skip_query_char and substitute <= skip_input_char:
                dist[i], starts[i] = substitute, diag_start
            elif skip_query_char <= skip_input_char:
                dist[i], starts[i] = skip_query_char, up_start
            else:
                dist[i], starts[i] = skip_input_char, starts[i - 1]
            diag_dist, diag_start = up_dist, up_start
        distance, start = dist[n], starts[n]
        if distance < best[0] or (
            distance == best[0] and j - start > best[2] - best[1]
        ):
            best = (distance, start, j)
    return best


def nti_spec(query, inputs, threshold):
    """``(safe, markings, detections)`` of the NTI rule over raw ``inputs``.

    ``markings`` holds one ``(start, end, input, ratio)`` per accepted
    input; ``detections`` one ``(token_text, token_start, token_end,
    input)`` per critical token an accepted input's match covers.
    """
    tokens = critical_tokens(query)
    markings = []
    detections = []
    seen = set()
    for value in inputs:
        if not value or value in seen:
            continue
        seen.add(value)
        distance, start, end = sellers(value, query)
        if end == start:
            continue
        ratio = distance / (end - start)
        if ratio > threshold:
            continue
        markings.append((start, end, value, ratio))
        for token in tokens:
            if start <= token.start and token.end <= end:
                detections.append((token.text, token.start, token.end, value))
    return not detections, markings, detections
