"""Approximate substring matching for negative taint inference.

The NTI algorithm (paper Section III-A) needs, for each application input
``p`` and intercepted query ``q``, the *substring distance*: the minimum edit
distance between ``p`` and any substring of ``q``, together with the location
and length of the best-matching substring.  The naive formulation compares
every substring of ``q`` against ``p`` with Levenshtein, costing
``O(n^2 * m^2)``; the paper notes this is impractical and that optimized
dynamic programming plus heuristics to skip implausible comparisons are used
instead (Sections III-A and VI-B).

Two interchangeable matching cores sit behind :func:`best_substring_match`:

- ``dp`` -- Sellers' algorithm: the standard edit-distance DP in which the
  first row is initialised to zero, so a match may *begin* at any position
  of the text for free, and the minimum over the final row allows it to
  *end* anywhere.  ``O(n * m)`` time, ``O(n)`` memory; start positions are
  recovered with a parallel start-tracking row, avoiding a quadratic
  traceback.  Retained as the differential-testing oracle.
- ``bitparallel`` -- Myers' bit-parallel scan
  (:mod:`repro.matching.bitparallel`) computing the same last-row values in
  ``O(ceil(n / w) * m)`` word operations, then recovering the exact
  ``(start, end)`` span -- including the DP's tie-breaks -- by re-running
  the start-tracking DP over a bounded window ``O(n)`` wide around each
  candidate end column.  The default on the NTI hot path (``matcher="auto"``
  picks it for all but tiny patterns, where the plain DP's lower constant
  wins).

Both cores return byte-identical :class:`SubstringMatch` results; the
property-based suite enforces the equivalence.

Heuristics applied before either core (the "skip implausible comparisons"
of the paper):

- an input longer than the query plus the distance budget cannot match;
- an exact ``str.find`` hit short-circuits to distance zero;
- a character-frequency lower bound prunes inputs that share too few
  characters with the query to possibly fall under the budget;
- a q-gram (bigram) lower bound catches the rest of the implausible pairs.

The frequency/bigram tables of the last two heuristics depend only on the
*text*; :class:`TextProfile` precomputes them once so NTI can reuse them
across every candidate input of a request (and cache them across requests).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .bitparallel import build_peq, recover_start, substring_scan

__all__ = [
    "MATCHER_CHOICES",
    "AUTO_BITPARALLEL_MIN_PATTERN",
    "SubstringMatch",
    "TextProfile",
    "best_substring_match",
    "resolve_matcher",
    "substring_distance",
]

#: Accepted values for the ``matcher`` selector (also mirrored by
#: :class:`repro.nti.inference.NTIConfig`).
MATCHER_CHOICES = ("auto", "dp", "bitparallel")

#: ``matcher="auto"`` uses the plain DP below this pattern length: for a
#: handful of pattern characters the DP's inner loop is shorter than the
#: fixed ~10 big-int operations Myers' scan spends per text column.
AUTO_BITPARALLEL_MIN_PATTERN = 8


@dataclass(frozen=True)
class SubstringMatch:
    """Best approximate occurrence of a pattern inside a text.

    Attributes:
        distance: minimum edit distance between the pattern and ``text[start:end]``.
        start: start offset of the matched substring in the text.
        end: end offset (exclusive) of the matched substring in the text.
    """

    distance: int
    start: int
    end: int

    @property
    def length(self) -> int:
        """Length of the matched query substring (denominator of the paper's ratio)."""
        return self.end - self.start


class TextProfile:
    """Per-text pruning tables for the pre-DP heuristics.

    Building the character-frequency and bigram multisets costs ``O(m)``
    over the text; NTI matches *every* candidate input of a request against
    the *same* intercepted query, so the tables are computed once per query
    (and cached across requests by the engine) instead of once per
    ``(input, query)`` pair.
    """

    __slots__ = ("text", "_chars", "_bigrams")

    def __init__(self, text: str) -> None:
        self.text = text
        chars: dict[str, int] = {}
        for ch in text:
            chars[ch] = chars.get(ch, 0) + 1
        self._chars = chars
        bigrams: dict[str, int] = {}
        for i in range(len(text) - 1):
            gram = text[i : i + 2]
            bigrams[gram] = bigrams.get(gram, 0) + 1
        self._bigrams = bigrams

    def char_bound(self, pattern: str) -> int:
        """Lower bound on the substring distance from character multiplicities.

        Every pattern character missing from the text (counting
        multiplicity) requires at least one edit.  ``O(n)`` given the
        precomputed table.
        """
        needed: dict[str, int] = {}
        for ch in pattern:
            needed[ch] = needed.get(ch, 0) + 1
        available = self._chars
        missing = 0
        for ch, count in needed.items():
            have = available.get(ch, 0)
            if count > have:
                missing += count - have
        return missing

    def bigram_bound(self, pattern: str) -> int:
        """q-gram lower bound (q=2) on the substring distance.

        By the q-gram lemma, one edit destroys at most ``q`` of the
        pattern's q-grams, so ``distance >= missing_bigrams / 2`` where
        missing counts the multiset of pattern bigrams absent from the
        text.  The text's bigram multiset over-approximates every
        substring's, keeping the bound valid for substring matching.  This
        is the decisive pruning pass for NTI: a benign comment body shares
        almost no bigrams with an UPDATE statement, so the matching core is
        skipped entirely.
        """
        if len(pattern) < 2:
            return 0
        needed: dict[str, int] = {}
        for i in range(len(pattern) - 1):
            gram = pattern[i : i + 2]
            needed[gram] = needed.get(gram, 0) + 1
        available = self._bigrams
        missing = 0
        for gram, count in needed.items():
            have = available.get(gram, 0)
            if count > have:
                missing += count - have
        return missing // 2


def resolve_matcher(matcher: str, pattern_length: int) -> str:
    """Resolve a matcher selector to a concrete core (``dp``/``bitparallel``)."""
    if matcher == "auto":
        return (
            "bitparallel"
            if pattern_length >= AUTO_BITPARALLEL_MIN_PATTERN
            else "dp"
        )
    if matcher not in MATCHER_CHOICES:
        raise ValueError(
            f"unknown matcher {matcher!r}; expected one of {MATCHER_CHOICES}"
        )
    return matcher


def best_substring_match(
    pattern: str,
    text: str,
    max_distance: int | None = None,
    *,
    matcher: str = "auto",
    profile: "TextProfile | Callable[[], TextProfile] | None" = None,
) -> SubstringMatch | None:
    """Find the best approximate occurrence of ``pattern`` within ``text``.

    Args:
        pattern: the application input value.
        text: the intercepted SQL query string.
        max_distance: optional pruning budget; when given, ``None`` is
            returned as soon as it can be proven that no substring of
            ``text`` is within ``max_distance`` edits of ``pattern``.
        matcher: matching core selector -- ``"auto"`` (default; bit-parallel
            except for tiny patterns), ``"dp"`` (Sellers DP oracle) or
            ``"bitparallel"`` (Myers).  All cores return identical results.
        profile: optional precomputed :class:`TextProfile` for ``text``
            (must satisfy ``profile.text == text``); avoids rebuilding the
            pruning tables when many patterns are matched against one text.
            May also be a zero-argument callable returning such a profile:
            it is invoked only if the bound heuristics are actually reached
            (an exact ``str.find`` hit never needs the tables), letting
            callers share a lazily-built profile across patterns without
            paying for it on exact-containment traffic.

    Returns:
        The :class:`SubstringMatch` with minimal distance (ties broken by
        leftmost end, then longest match), or ``None`` when pruned out by
        ``max_distance``.  An empty pattern trivially matches with distance
        zero and zero length at offset 0.
    """
    n = len(pattern)
    m = len(text)
    if n == 0:
        return SubstringMatch(0, 0, 0)

    # Heuristic 1: exact containment short-circuits the matching core.
    idx = text.find(pattern)
    if idx >= 0:
        return SubstringMatch(0, idx, idx + n)

    if max_distance is not None:
        # Heuristic 2: a pattern much longer than the text cannot fit.
        if n - m > max_distance:
            return None
        if profile is None:
            tables = TextProfile(text)
        elif callable(profile):
            tables = profile()
        else:
            tables = profile
        # Heuristic 3: character-frequency lower bound.
        if tables.char_bound(pattern) > max_distance:
            return None
        # Heuristic 4: q-gram lower bound (tighter, slightly costlier).
        if tables.bigram_bound(pattern) > max_distance:
            return None

    if m == 0:
        if max_distance is not None and n > max_distance:
            return None
        return SubstringMatch(n, 0, 0)

    core = resolve_matcher(matcher, n)
    if core == "bitparallel":
        return _bitparallel_best_match(pattern, text, max_distance)
    return _dp_best_match(pattern, text, max_distance)


# ----------------------------------------------------------------------
# Sellers DP core (differential-testing oracle)
# ----------------------------------------------------------------------


def _dp_best_match(
    pattern: str, text: str, max_distance: int | None
) -> SubstringMatch | None:
    """Sellers DP over columns of the text with parallel start tracking.

    ``dist[i]`` = best edit distance between ``pattern[:i]`` and some
    substring of ``text`` ending at the current column; ``starts[i]`` =
    start offset of that substring.
    """
    n = len(pattern)
    m = len(text)
    dist = list(range(n + 1))
    starts = [0] * (n + 1)
    best = SubstringMatch(dist[n], 0, 0)
    for j in range(1, m + 1):
        tj = text[j - 1]
        prev_diag_dist = dist[0]
        prev_diag_start = starts[0]
        # First row stays 0: a match may begin at any text offset for free.
        starts[0] = j
        for i in range(1, n + 1):
            cost = 0 if pattern[i - 1] == tj else 1
            sub_d = prev_diag_dist + cost          # substitute / match
            del_d = dist[i] + 1                    # skip a text character
            ins_d = dist[i - 1] + 1                # skip a pattern character
            prev_diag_dist = dist[i]
            if sub_d <= del_d and sub_d <= ins_d:
                new_d, new_s = sub_d, prev_diag_start
            elif del_d <= ins_d:
                new_d, new_s = del_d, starts[i]
            else:
                new_d, new_s = ins_d, starts[i - 1]
            prev_diag_start = starts[i]
            dist[i] = new_d
            starts[i] = new_s
        if dist[n] < best.distance or (
            dist[n] == best.distance and j - starts[n] > best.length
        ):
            best = SubstringMatch(dist[n], starts[n], j)
            if best.distance == 0:
                return best
    if max_distance is not None and best.distance > max_distance:
        return None
    return best


# ----------------------------------------------------------------------
# Bit-parallel core with bounded-window start recovery
# ----------------------------------------------------------------------


def _bitparallel_best_match(
    pattern: str, text: str, max_distance: int | None
) -> SubstringMatch | None:
    """Myers' scan for the distances, bit-parallel walk-back for the spans.

    The scan yields the exact last-row minimum ``d*`` and every end column
    achieving it.  The DP oracle's winning span is the earliest candidate
    column attaining the maximal match length, so each candidate's
    ``start`` is recovered -- tie-breaks included -- with
    :func:`repro.matching.bitparallel.recover_start`, a bounded-window
    re-scan plus argmin walk-back costing ``O((n + d*) * ceil(n / w))``
    word operations per candidate.

    Should the tie landscape degenerate (so many candidate columns that
    recovering them all would cost more than the plain DP), the core falls
    back to the oracle wholesale, bounding the worst case at DP cost.
    """
    n = len(pattern)
    m = len(text)
    peq = build_peq(pattern)
    scan = substring_scan(pattern, text, max_distance, peq=peq)
    if scan is None:
        return None
    d_star, candidates = scan
    # Mirror the DP's early return at the first zero-distance column.  (The
    # front-end's exact-containment check makes this unreachable there, but
    # the core keeps the oracle's semantics on its own.)
    if d_star == 0:
        candidates = candidates[:1]
    if d_star >= n:
        # Column 0 (empty substring at offset 0) ties d* = n; it is the
        # DP's initial best and only improved upon by a strictly longer
        # match of equal distance.
        best_start, best_end, best_len = 0, 0, 0
    else:
        best_start = best_end = -1
        best_len = -1
    window_span = n + d_star + 1
    max_len = n + d_star  # no optimal span can be longer
    # Each recovery costs about a window's worth of scan columns; the DP
    # costs m interpreter-level rows, worth roughly 32 scan columns each.
    # On a degenerate tie landscape a single oracle run is cheaper.
    if len(candidates) > 1 and len(candidates) * min(window_span, m) > 32 * m:
        return _dp_best_match(pattern, text, max_distance)
    for j in candidates:
        start_j = recover_start(pattern, text, j, d_star, peq=peq)
        length = j - start_j
        if length > best_len:
            best_len = length
            best_start, best_end = start_j, j
            if best_len >= max_len:
                break  # no later candidate can be strictly longer
    best = SubstringMatch(d_star, best_start, best_end)
    if max_distance is not None and best.distance > max_distance:
        return None
    return best


def substring_distance(pattern: str, text: str, *, matcher: str = "auto") -> int:
    """Minimum edit distance between ``pattern`` and any substring of ``text``."""
    match = best_substring_match(pattern, text, matcher=matcher)
    assert match is not None  # no budget given, so never pruned
    return match.distance
