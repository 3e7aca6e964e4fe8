"""Multi-candidate NTI filter kernel: the q-gram pigeonhole prefilter.

The NTI hot loop runs one approximate-substring scan per candidate input
per query -- ``O(candidates * |query|)`` even when almost no input can
possibly match.  :func:`qgram_filtered_match` cuts that cost without
changing a single verdict or span.

For a pattern of length ``n`` under edit budget ``k``, split the pattern
into ``k + 1`` contiguous pieces.  Any substring of the text within ``k``
edits of the pattern admits an optimal alignment in which the ``k`` edit
operations are distributed over the pieces; by pigeonhole at least one
piece receives none of them and therefore occurs in the text *exactly*.
Probing each piece whole with C-level ``str.find`` either

- finds no exact piece occurrence: the candidate provably has no match
  within budget and the scan is skipped entirely (the common case for the
  benign bulk of captured inputs), or
- yields *seed* occurrences, each of which confines any budget-passing
  match to a window of ``O(n + k)`` text characters around it.  The
  bit-parallel verifier then runs only over the merged seed windows,
  anchored, instead of the whole query.

Exactness of the anchored verification: a match within budget must contain
an exact piece occurrence, so it lies entirely inside that seed's window
and hence inside the merged interval containing it.  For any text column
``j`` inside a merged interval, the windowed Sellers scan considers a
subset of the substrings the full scan considers (those starting inside
the interval), so its last-row value can only over-approximate the full
scan's -- and whenever the full value is within budget, its witnessing
substring lies inside the same interval, forcing equality.  The filtered
scan therefore recovers the full scan's exact minimum distance *and* the
exact set of columns achieving it; start offsets and tie-breaks are then
reproduced with the same bounded-window walk-back
(:func:`repro.matching.bitparallel.recover_start`) the unfiltered
bit-parallel core uses, over the full text.

The prefilter is a *filter* in the strict sense: it may prune work, never
change a result.  The property suite enforces byte-identical verdicts
against the unfiltered DP pipeline and the executable NTI spec.
"""

from __future__ import annotations

from .bitparallel import build_peq, recover_start, substring_scan

__all__ = [
    "MIN_PIECE",
    "FULL_SCAN",
    "FilterStats",
    "edit_budget",
    "pigeonhole_pieces",
    "qgram_applicable",
    "qgram_filtered_match",
]

#: Smallest piece worth probing: single characters recur so often in SQL
#: text that their windows rarely prune.
MIN_PIECE = 2

#: Sentinel: the filter declined (windows too wide / degenerate ties);
#: the caller must fall through to the unfiltered core.
FULL_SCAN = object()


class FilterStats:
    """Effectiveness counters for the NTI filter kernel.

    Plain unlocked ``int`` attributes, incremented in place by the
    analyzer loop and :func:`qgram_filtered_match` (GIL-atomic enough for
    observability; the same convention as the cache hit counters).  All
    derived ratios are computed in :meth:`as_dict` so the hot path only
    ever does ``+=``.  Surfaced through ``NTIAnalyzer.filter_stats()``
    as the engine's ``resilience_report()["nti_filter"]``.
    """

    __slots__ = (
        "seeds_probed",
        "seed_hits",
        "pruned_qgram",
        "pruned_zero_budget",
        "anchored_scans",
        "anchored_window_chars",
        "anchored_text_chars",
        "fallthrough_full_scan",
        "exact_hits",
    )

    def __init__(self) -> None:
        #: pigeonhole pieces probed against the text
        self.seeds_probed = 0
        #: probes whose piece occurred verbatim (seed windows opened)
        self.seed_hits = 0
        #: candidates proven matchless by the pigeonhole (no scan run)
        self.pruned_qgram = 0
        #: zero-budget candidates resolved by the containment probe alone
        self.pruned_zero_budget = 0
        #: candidates verified by anchored (windowed) scans
        self.anchored_scans = 0
        #: total text chars covered by merged anchor windows
        self.anchored_window_chars = 0
        #: total text chars the unfiltered scans would have covered
        self.anchored_text_chars = 0
        #: candidates where the filter declined and the full scan ran
        self.fallthrough_full_scan = 0
        #: candidates resolved by the exact-containment fast path
        self.exact_hits = 0

    def as_dict(self) -> dict[str, float]:
        """Flat float mapping for ``filter_stats()`` / bench sidecars."""
        anchored = self.anchored_scans
        probed = self.pruned_qgram + anchored
        return {
            "seeds_probed": float(self.seeds_probed),
            "seed_hits": float(self.seed_hits),
            "pruned_qgram": float(self.pruned_qgram),
            "pruned_zero_budget": float(self.pruned_zero_budget),
            "anchored_scans": float(self.anchored_scans),
            "anchored_window_chars": float(self.anchored_window_chars),
            "anchored_text_chars": float(self.anchored_text_chars),
            "anchored_window_fraction": (
                self.anchored_window_chars / self.anchored_text_chars
                if self.anchored_text_chars
                else 0.0
            ),
            "fallthrough_full_scan": float(self.fallthrough_full_scan),
            "qgram_prune_rate": (self.pruned_qgram / probed) if probed else 0.0,
            "exact_hits": float(self.exact_hits),
        }


def edit_budget(length: int, threshold: float) -> int:
    """Maximum edit distance an accepted match of a ``length``-char input can have.

    The acceptance rule of :func:`repro.matching.ratio.match_with_ratio`:
    a match of length ``L`` passes only if ``distance <= threshold * L``,
    and ``L <= length + distance``, bounding
    ``distance <= threshold * length / (1 - threshold)``.  This single
    helper is the one place that arithmetic lives; the ratio front-end,
    the candidate-input length cutoff and the shape-plan input prefilter
    all call it so the budgets can never drift apart.
    """
    return int(threshold * length / (1.0 - threshold)) if threshold else 0


#: Memo for :func:`pigeonhole_pieces`: the ``(length, budget)`` domain on
#: a live workload is tiny (input lengths times a handful of budgets) and
#: the split is recomputed for every candidate on the hot path.
_PIECES_CACHE: dict[tuple[int, int], list[tuple[int, int]]] = {}
_PIECES_CACHE_MAX = 4096


def pigeonhole_pieces(length: int, budget: int) -> list[tuple[int, int]]:
    """Balanced split of a ``length``-char pattern into ``budget + 1`` pieces.

    Returns ``(offset, piece_length)`` pairs.  Piece lengths differ by at
    most one; every piece is non-empty when ``length > budget``.  Memoised:
    callers must not mutate the returned list.
    """
    key = (length, budget)
    cached = _PIECES_CACHE.get(key)
    if cached is not None:
        return cached
    pieces = budget + 1
    base, extra = divmod(length, pieces)
    out: list[tuple[int, int]] = []
    offset = 0
    for index in range(pieces):
        plen = base + (1 if index < extra else 0)
        out.append((offset, plen))
        offset += plen
    if len(_PIECES_CACHE) >= _PIECES_CACHE_MAX:
        _PIECES_CACHE.clear()
    _PIECES_CACHE[key] = out
    return out


def qgram_applicable(length: int, budget: int | None) -> bool:
    """Whether the pigeonhole filter applies to a pattern of this length.

    Every piece must be at least :data:`MIN_PIECE` characters.  ``budget``
    must be known (the filter prunes *against* it) and smaller than the
    pattern (otherwise pieces are empty and everything trivially
    "matches").
    """
    return (
        budget is not None
        and budget >= 0
        and length >= MIN_PIECE * (budget + 1)
    )


def _merge_windows(windows: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge overlapping/adjacent ``(start, end)`` windows; sorted, disjoint."""
    windows.sort()
    merged: list[tuple[int, int]] = []
    cur_start, cur_end = windows[0]
    for start, end in windows[1:]:
        if start <= cur_end:
            if end > cur_end:
                cur_end = end
        else:
            merged.append((cur_start, cur_end))
            cur_start, cur_end = start, end
    merged.append((cur_start, cur_end))
    return merged


def qgram_filtered_match(pattern: str, text: str, budget: int, stats=None):
    """Pigeonhole-filtered exact substring match under ``budget`` edits.

    Returns one of:

    - ``None`` -- *proven* no-match: either no piece of ``pattern`` occurs
      exactly in ``text`` (pigeonhole prune, no scan at all) or the
      anchored scans found no column within budget;
    - ``(distance, start, end)`` -- the exact best match, byte-identical
      (tie-breaks included) to what the unfiltered cores would report;
    - :data:`FULL_SCAN` -- the filter declined (seed windows cover most of
      the text, or the tie landscape is degenerate); the caller must run
      the unfiltered core.

    Each piece is probed whole with C-level ``str.find``: no per-query
    setup, so a request whose candidates all prune costs only its probes.
    ``stats`` is an optional :class:`FilterStats` updated in place.

    Precondition: ``qgram_applicable(len(pattern), budget)`` holds and the
    exact-containment probe has already missed -- ``pattern`` does *not*
    occur verbatim in ``text``.
    """
    n = len(pattern)
    m = len(text)
    # -- seed probe: every exact occurrence of every piece --------------
    windows: list[tuple[int, int]] = []
    pieces = pigeonhole_pieces(n, budget)
    if stats is not None:
        stats.seeds_probed += len(pieces)
    find = text.find
    append = windows.append
    for offset, plen in pieces:
        if plen < MIN_PIECE:
            # Only reachable if the caller skipped qgram_applicable().
            return FULL_SCAN
        piece = pattern[offset : offset + plen]
        hits = []
        pos = find(piece)
        while pos >= 0:
            hits.append(pos)
            pos = find(piece, pos + 1)
        if not hits:
            continue
        if stats is not None:
            stats.seed_hits += len(hits)
        # Window around an exact piece occurrence at ``pos``: the match
        # contains the piece, extends at most ``offset + budget`` chars to
        # the left of it and ``(n - offset - plen) + budget`` to the right.
        left = offset + budget
        right = n - offset + budget
        for pos in hits:
            window_start = pos - left
            append(
                (window_start if window_start > 0 else 0,
                 min(m, pos + right))
            )
    if not windows:
        if stats is not None:
            stats.pruned_qgram += 1
        return None
    merged = _merge_windows(windows)
    covered = sum(end - start for start, end in merged)
    if 2 * covered >= m:
        # Windows span most of the text: the anchored scans would cost as
        # much as one full scan plus slicing overhead.  Decline.
        return FULL_SCAN
    if stats is not None:
        stats.anchored_scans += 1
        stats.anchored_window_chars += covered
        stats.anchored_text_chars += m

    # -- anchored verification: windowed Sellers scans ------------------
    peq = build_peq(pattern)
    d_star: int | None = None
    columns: list[int] = []
    for start, end in merged:
        scan = substring_scan(pattern, text[start:end], budget, peq=peq)
        if scan is None:
            continue
        distance, cols = scan
        if d_star is None or distance < d_star:
            d_star = distance
            columns = [start + j for j in cols]
        elif distance == d_star:
            columns.extend(start + j for j in cols)
    if d_star is None:
        return None

    # -- span recovery, mirroring the unfiltered bit-parallel core ------
    if d_star == 0:
        columns = columns[:1]
    window_span = n + d_star + 1
    max_len = n + d_star
    if len(columns) > 1 and len(columns) * min(window_span, m) > 32 * m:
        # Degenerate tie landscape: recovering every candidate start
        # would cost more than the plain DP.  Decline to the oracle.
        return FULL_SCAN
    best_start = best_end = -1
    best_len = -1
    for j in columns:
        start_j = recover_start(pattern, text, j, d_star, peq=peq)
        length = j - start_j
        if length > best_len:
            best_len = length
            best_start, best_end = start_j, j
            if best_len >= max_len:
                break  # no later candidate can be strictly longer
    return d_star, best_start, best_end
