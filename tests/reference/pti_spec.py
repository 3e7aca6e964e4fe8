"""The paper's PTI rule (DESIGN.md section 1), with no index, MRU or automaton.

A query is safe iff every critical token lies inside one occurrence of one
fragment: some fragment ``f`` and offset ``p`` with
``query[p:p + len(f)] == f`` and ``p <= token.start``,
``token.end <= p + len(f)``.  Fragments are never combined to cover one
token, and a comment is one critical token.  Occurrences are found with
``str.find``, one fragment at a time.  Critical tokens come from
``lexer_spec``, so the spec shares no code with the implementation.

Python 3.9 compatible: tier-1 CI runs 3.9.
"""

from tests.reference.lexer_spec import critical_tokens


def covers(fragment, query, token):
    """Whether one occurrence of ``fragment`` in ``query`` contains ``token``."""
    pos = query.find(fragment)
    while pos >= 0:
        if pos <= token.start and token.end <= pos + len(fragment):
            return True
        pos = query.find(fragment, pos + 1)
    return False


def pti_spec(query, fragments, strict=False):
    """``(safe, detections)`` of the PTI rule over ``fragments``.

    ``detections`` holds one ``(token_text, token_start, token_end)`` per
    critical token that no single fragment occurrence covers.
    """
    detections = []
    for token in critical_tokens(query, strict):
        if not any(covers(fragment, query, token) for fragment in fragments):
            detections.append((token.text, token.start, token.end))
    return not detections, detections
