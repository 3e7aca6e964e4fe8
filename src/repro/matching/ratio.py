"""Difference-ratio computation for negative taint inference.

Paper Section III-A: *"Function substring_distance computes a difference
ratio which is the string distance between an input and a query divided by
the length of the matched query substring."*  A ratio of zero means the input
appears verbatim in the query; a ratio at or below the configured threshold
counts as a match and the matched region is marked negatively tainted (the
paper's pseudo-code writes ``<``; DESIGN.md section 5 records the
divergence).

The worked example in Figure 2C: a 17-character payload picks up five
backslashes from magic quotes, the matched query region is 22 characters, so
the ratio is ``5 / 22 = 22.7%`` -- above the 20% default threshold, and NTI
misses the attack.  :func:`difference_ratio` reproduces exactly that
arithmetic.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .filter import edit_budget
from .substring import SubstringMatch, TextProfile, best_substring_match

__all__ = ["DEFAULT_NTI_THRESHOLD", "RatioMatch", "difference_ratio", "match_with_ratio"]

#: Default NTI sensitivity threshold.  Figure 2C's narrative uses 20%.
DEFAULT_NTI_THRESHOLD = 0.20


@dataclass(frozen=True)
class RatioMatch:
    """A substring match annotated with its difference ratio."""

    match: SubstringMatch
    ratio: float

    @property
    def start(self) -> int:
        return self.match.start

    @property
    def end(self) -> int:
        return self.match.end

    @property
    def distance(self) -> int:
        return self.match.distance


def difference_ratio(match: SubstringMatch) -> float:
    """Ratio of edit distance to matched-substring length.

    A zero-length match (possible only for an empty or fully-deleted input)
    is defined to have an infinite ratio so it can never satisfy a threshold;
    empty inputs carry no taint.
    """
    if match.length == 0:
        return float("inf")
    return match.distance / match.length


def match_with_ratio(
    pattern: str,
    text: str,
    threshold: float = DEFAULT_NTI_THRESHOLD,
    *,
    matcher: str = "auto",
    profile: "TextProfile | Callable[[], TextProfile] | None" = None,
) -> RatioMatch | None:
    """Locate ``pattern`` in ``text`` and accept it if the ratio clears ``threshold``.

    The distance budget handed to the matcher is derived from the threshold:
    a match of length ``L`` passes only if ``distance <= threshold * L``, and
    ``L`` can be at most ``len(pattern) + distance``, so any passing distance
    satisfies ``d <= threshold * (len(pattern) + d)``, bounding
    ``d <= threshold * len(pattern) / (1 - threshold)``.  This keeps the
    banded pruning heuristics sound while never rejecting a passing match.

    ``matcher`` selects the matching core (see
    :func:`repro.matching.substring.best_substring_match`); ``profile`` is
    an optional precomputed :class:`TextProfile` of ``text`` -- or a lazy
    zero-argument factory for one -- so NTI can amortise the pruning tables
    across every input of a request without building them for inputs that
    short-circuit on exact containment.

    Returns ``None`` when no substring of ``text`` matches ``pattern``
    closely enough.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError("threshold must be in [0, 1)")
    if not pattern:
        return None
    budget = edit_budget(len(pattern), threshold)
    match = best_substring_match(
        pattern,
        text,
        max_distance=budget,
        matcher=matcher,
        profile=profile,
    )
    if match is None:
        return None
    ratio = difference_ratio(match)
    if ratio > threshold:
        return None
    return RatioMatch(match=match, ratio=ratio)
