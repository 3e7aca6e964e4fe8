"""Negative taint inference (NTI).

Implements the algorithm of paper Section III-A:

.. code-block:: text

    query q = intercept_query()
    for each input source, S
        for each input p, in S
            diff_ratio = substring_distance(q, p)
            if diff_ratio < threshold
                mark_negative_taint(q, p)

followed by the detection rule: the query is an attack iff some *single*
input's inferred marking fully covers at least one critical token.  Two
false-positive guards come straight from the paper:

- markings inferred from different inputs are never combined (otherwise
  one-letter inputs ``O`` and ``R`` would taint every ``OR``);
- a match only counts if it covers "at least one whole SQL token", so an
  input like ``1`` matching the data position of ``WHERE ID=1`` is benign.

Performance structure (the per-request hot path of the whole system):

- the matching core is selectable (:attr:`NTIConfig.matcher`): Myers'
  bit-parallel scan by default, the Sellers DP as oracle;
- the query's pruning tables (:class:`~repro.matching.substring.TextProfile`)
  are built once per query and shared across every candidate input;
- a cross-request LRU keyed by query (:class:`~repro.nti.cache.NTIQueryCache`)
  keeps each query's pruning tables and its ``input value -> match``
  results, the NTI analogue of the PTI query cache.  An analysis touches
  it once per query, not once per candidate input.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..core.resilience import Deadline
from ..core.verdict import AnalysisResult, Detection, TaintMarking, Technique
from ..matching.ratio import (
    DEFAULT_NTI_THRESHOLD,
    RatioMatch,
    difference_ratio,
    match_with_ratio,
)
from ..matching.substring import MATCHER_CHOICES, SubstringMatch, TextProfile
from ..phpapp.context import RequestContext
from ..sqlparser.parser import critical_tokens
from ..sqlparser.tokens import Token
from .cache import NTIQueryCache, NTIQueryEntry
from .prefilter import (
    FULL_SCAN,
    MIN_PIECE,
    PACKED_MAX_PATTERN,
    PREFILTER_CHOICES,
    FilterStats,
    edit_budget,
    packed_survivors,
    qgram_applicable,
    qgram_filtered_match,
)
from .sources import candidate_inputs

__all__ = ["NTIConfig", "NTIAnalyzer"]

#: Distinguishes "not memoised" from a memoised negative (``None``) result.
_MISSING = object()

# Amortisation guard for the batched front-end: the packed pass pays one
# whole-query scan, which a handful of lanes cannot amortise, so below
# this floor deferred candidates degrade to the plain per-value pipeline
# (results are identical either way -- only work is routed).
MIN_PACKED_LANES = 3


@dataclass(frozen=True)
class NTIConfig:
    """Tunables for the NTI component.

    Attributes:
        threshold: maximum difference ratio accepted as a match.  The paper
            discusses the sensitivity of this knob at length (Section
            III-A); 0.20 matches Figure 2C's arithmetic.
        min_input_length: inputs shorter than this are never matched.  The
            default of 1 relies purely on the whole-token rule, as the
            paper does.
        matcher: matching-core selector -- ``"auto"`` (bit-parallel except
            for tiny inputs), ``"dp"`` (Sellers oracle) or
            ``"bitparallel"``.  All produce identical matches; the knob
            exists for the matcher ablation and differential testing.
        prefilter: candidate-filter selector -- ``"auto"`` (default:
            q-gram pigeonhole prefilter plus packed multi-lane
            verification for small candidates), ``"qgram"`` (pigeonhole
            only) or ``"off"`` (no filtering).  Filters prune work, never
            change results; with ``matcher="dp"`` no filtering is ever
            applied regardless, keeping the DP pipeline the verbatim
            differential oracle.
        cache_size: capacity of the cross-request per-query cache,
            counted in queries: each entry holds one query's pruning
            tables and its input match results.  ``0`` disables it (the
            cache ablation setting; tables are still shared across the
            inputs of one query).
    """

    threshold: float = DEFAULT_NTI_THRESHOLD
    min_input_length: int = 1
    matcher: str = "auto"
    prefilter: str = "auto"
    cache_size: int = 512

    def __post_init__(self) -> None:
        if self.matcher not in MATCHER_CHOICES:
            raise ValueError(
                f"unknown matcher {self.matcher!r}; "
                f"expected one of {MATCHER_CHOICES}"
            )
        if self.prefilter not in PREFILTER_CHOICES:
            raise ValueError(
                f"unknown prefilter {self.prefilter!r}; "
                f"expected one of {PREFILTER_CHOICES}"
            )


class NTIAnalyzer:
    """Correlate raw inputs with an intercepted query.

    Verdict-wise stateless (every ``analyze`` call is a pure function of
    query and context); operationally it owns the per-query NTI cache,
    which is sound because a match result depends only on the
    ``(input, query)`` pair and the analyzer's fixed threshold/matcher
    configuration.
    """

    def __init__(self, config: NTIConfig | None = None) -> None:
        self.config = config or NTIConfig()
        self.cache: NTIQueryCache | None = (
            NTIQueryCache(self.config.cache_size)
            if self.config.cache_size > 0
            else None
        )
        self._stats = FilterStats()
        # Filtering applies only off the DP-oracle pipeline and only under
        # a valid threshold (an invalid one must keep raising through
        # match_with_ratio exactly like the unfiltered path).
        self._filter_active = (
            self.config.prefilter != "off"
            and self.config.matcher != "dp"
            and 0.0 <= self.config.threshold < 1.0
        )
        self._pack_active = (
            self._filter_active and self.config.prefilter == "auto"
        )

    def cache_stats(self) -> dict[str, dict[str, float]]:
        """Per-query cache and prefilter counters (bench reporting hook).

        ``match`` counts per query, not per input: one lookup per analysed
        query, a hit when the query's entry was resident; ``entries`` is
        the number of resident queries.  Absent when the cache is off.
        """
        out: dict[str, dict[str, float]] = {}
        cache = self.cache
        if cache is not None:
            out["match"] = {
                "hits": cache.stats.hits,
                "misses": cache.stats.misses,
                "hit_rate": cache.stats.hit_rate,
                "entries": len(cache),
            }
        out["filter"] = self._stats.as_dict()
        return out

    def filter_stats(self) -> dict[str, float]:
        """Prefilter effectiveness counters (see :class:`FilterStats`)."""
        return self._stats.as_dict()

    @staticmethod
    def _profile_for(query: str, holder: list) -> TextProfile:
        """Lazily build the query's pruning tables (once per query).

        ``holder[0]`` may start out as ``None`` (build), a ready
        :class:`TextProfile` (from the query's cache entry or the caller),
        or a zero-argument factory (the shape fast path's incremental
        assembly); whatever it was, the resolved profile is memoised back
        into the holder so later inputs of the same query reuse it.
        """
        value = holder[0]
        if value is None:
            value = TextProfile(query)
            holder[0] = value
        elif callable(value):
            value = value()
            holder[0] = value
        return value

    def _match(
        self,
        value: str,
        query: str,
        holder: list,
        memo: dict | None,
        filtered: bool | None = None,
        bounds: bool = True,
    ) -> RatioMatch | None:
        """One memoised substring-match computation.

        ``memo`` is the query's ``input -> result`` dict from its cache
        entry (``None`` with the cache off).  ``filtered`` overrides the
        analyzer-level prefilter activation: the batched path passes
        ``False`` for candidates whose pigeonhole probe already declined,
        so the pipeline does not probe them a second time.
        ``bounds=False`` additionally skips the char/bigram
        bound heuristics -- and with them the ``O(query)`` profile-table
        build -- for candidates the batch front end already knows the
        bounds cannot prune.  Results are identical either way.
        """
        if memo is not None:
            cached = memo.get(value, _MISSING)
            if cached is not _MISSING:
                return cached
        result = match_with_ratio(
            value,
            query,
            self.config.threshold,
            matcher=self.config.matcher,
            # Lazy: the pruning tables are only built/fetched if the match
            # gets past the exact-containment short circuit.
            profile=lambda: self._profile_for(query, holder),
            prefilter=self._filter_active if filtered is None else filtered,
            bounds=bounds,
            stats=self._stats,
        )
        if memo is not None:
            memo[value] = result
        return result

    def _match_packed(
        self,
        query: str,
        values,
        holder: list,
        deadline: Deadline | None,
        memo: dict | None,
    ) -> list[RatioMatch | None]:
        """Resolve every candidate inline, batching small misses through one scan.

        The batched front-end replicates the match pipeline's decision
        tree without its per-value call stack: exact containment, the
        zero-budget prune, and the pigeonhole probe (prune / exact
        anchored match) all resolve in this loop.  Candidates split by
        size: the packed regime (at most :data:`PACKED_MAX_PATTERN`
        chars) skips the probe and is *deferred* -- the Myers lanes of
        all deferred candidates are verified together by a single
        :func:`~repro.matching.filter.packed_survivors` pass over the
        query, and only surviving lanes pay for an exact match -- while
        larger candidates are probed, and on a probe decline fall through
        to the ordinary pipeline with the probe disabled (it already
        declined once).  Returns one entry per value, order preserved,
        each entry exactly what :meth:`_match` would have produced.
        """
        threshold = self.config.threshold
        min_len = self.config.min_input_length
        stats = self._stats
        # Probe tier: pieces probe the query text directly via str.find
        # unless this query's profile is already materialised (carried in
        # by the caller, or kept in the query's cache entry from an earlier
        # request), in which case its adaptive seed index can serve.  Never
        # build tables just to probe -- a request whose candidates all
        # prune stays O(probes).
        seed_prof = holder[0]
        if callable(seed_prof):
            seed_prof = None
        results: list[RatioMatch | None] = []
        pending: list[int] = []
        pending_budgets: list[int] = []
        for value in values:
            if deadline is not None:
                deadline.check("nti")
            n = len(value)
            if n < min_len:
                results.append(None)
                continue
            if memo is not None:
                cached = memo.get(value, _MISSING)
                if cached is not _MISSING:
                    results.append(cached)
                    continue
            if not value:
                results.append(self._match(value, query, holder, memo))
                continue
            idx = query.find(value)
            if idx >= 0:
                # Byte-identical to the pipeline's exact containment
                # short circuit (distance 0, ratio 0.0).
                stats.exact_hits += 1
                matched = RatioMatch(
                    match=SubstringMatch(0, idx, idx + n), ratio=0.0
                )
                if memo is not None:
                    memo[value] = matched
                results.append(matched)
                continue
            budget = edit_budget(n, threshold)
            if budget == 0:
                # The containment probe missed and the budget admits no
                # edits: provably no match, nothing left to compute.
                stats.pruned_zero_budget += 1
                if memo is not None:
                    memo[value] = None
                results.append(None)
                continue
            if budget < n and qgram_applicable(n, budget, MIN_PIECE):
                grams = (
                    seed_prof.seed_index() if seed_prof is not None else None
                )
                outcome = qgram_filtered_match(
                    value,
                    query,
                    budget,
                    grams,
                    stats,
                    seed_prof.bigram_index if grams is not None else None,
                )
                if outcome is None:
                    if memo is not None:
                        memo[value] = None
                    results.append(None)
                    continue
                if outcome is not FULL_SCAN:
                    # Mirror match_with_ratio's acceptance rule on the
                    # exact anchored match.
                    matched = SubstringMatch(*outcome)
                    ratio = difference_ratio(matched)
                    resolved = (
                        RatioMatch(match=matched, ratio=ratio)
                        if ratio <= threshold
                        else None
                    )
                    if memo is not None:
                        memo[value] = resolved
                    results.append(resolved)
                    continue
                if n <= PACKED_MAX_PATTERN:
                    # Seed-rich small candidate: defer to the shared packed
                    # verification pass instead of a per-value scan.
                    pending.append(len(results))
                    pending_budgets.append(budget)
                    results.append(None)  # placeholder, fixed up below
                    continue
                # Probe declined on a larger candidate: run the ordinary
                # pipeline (char/bigram bounds still prune many of these
                # cheaply) without probing a second time.
                stats.fallthrough_full_scan += 1
                results.append(
                    self._match(value, query, holder, memo, filtered=False)
                )
                continue
            if budget < n and n <= PACKED_MAX_PATTERN:
                # Pieces would be too narrow to probe: small candidates
                # ride the packed lanes.
                pending.append(len(results))
                pending_budgets.append(budget)
                results.append(None)  # placeholder, fixed up below
                continue
            results.append(self._match(value, query, holder, memo))
        if pending and len(pending) < MIN_PACKED_LANES:
            # Too few lanes to amortise a whole-query packed scan: resolve
            # them through the plain pipeline instead (short patterns, so
            # a direct scan beats materialising bound tables).
            for i in pending:
                results[i] = self._match(
                    values[i], query, holder, memo, filtered=False, bounds=False
                )
            pending = []
        if pending:
            if deadline is not None:
                deadline.check("nti")
            survivors = packed_survivors(
                [values[i] for i in pending], pending_budgets, query, stats
            )
            for i, alive in zip(pending, survivors):
                value = values[i]
                if alive:
                    # The lane's scan proved a within-budget match exists,
                    # so the bounds cannot prune: go straight to the core.
                    stats.packed_verified += 1
                    results[i] = self._match(
                        value, query, holder, memo, filtered=False, bounds=False
                    )
                elif memo is not None:
                    # A pruned lane is a proof of no match within budget:
                    # memoise the negative result like the exact path does.
                    memo[value] = None
        return results

    def analyze(
        self,
        query: str,
        context: RequestContext,
        tokens: list[Token] | None = None,
        deadline: Deadline | None = None,
        values: list[str] | None = None,
        profile: "TextProfile | Callable[[], TextProfile] | None" = None,
    ) -> AnalysisResult:
        """Run NTI over one query.

        Args:
            query: the intercepted SQL string.
            context: raw-input snapshot captured at request entry.
            tokens: optional pre-computed critical tokens.  The Joza
                pipeline reuses "the critical tokens and keywords previously
                obtained by the PTI Daemon" (Section IV-D); standalone use
                recomputes them.
            deadline: optional per-query analysis budget.  The input x
                query comparison loop is the engine's in-process hot path
                (one matcher run per candidate input); the budget is
                checked before each comparison, so a request carrying many
                large inputs raises
                :class:`~repro.core.resilience.DeadlineExceeded` instead of
                stalling the guard -- the engine then resolves the query
                per its failure policy.
            values: optional pre-computed candidate input list.  The shape
                fast path passes the :func:`~repro.nti.sources.candidate_inputs`
                output after pruning inputs that provably cannot cover any
                critical token of the cached shape; ``None`` (the default)
                enumerates the context as usual.
            profile: optional pre-built pruning tables for ``query``, or a
                zero-argument factory for them.  Must be *exact* (equal to
                ``TextProfile(query)``); the shape fast path passes a lazy
                factory assembling one from its per-shape segment template
                instead of rescanning the query -- invoked only if some
                input actually reaches the bound heuristics.
        """
        crit = tokens if tokens is not None else critical_tokens(query)
        markings: list[TaintMarking] = []
        detections: list[Detection] = []
        if values is None:
            values = candidate_inputs(context, query, self.config.threshold)
        # One cache touch per query: the entry carries the query's pruning
        # tables and its input -> result memo across requests.
        entry: NTIQueryEntry | None = None
        memo = None
        if self.cache is not None and values:
            entry = self.cache.entry(query)
            memo = entry.matches
            if entry.profile is not None:
                profile = entry.profile
        # Pruning tables depend only on the query: built at most once per
        # analyze call, lazily on the first memo miss, then shared across
        # all inputs.
        profile_holder: list = [profile]
        # Packed mode resolves all candidates up front (small memo misses
        # share one multi-lane scan); otherwise each value is matched
        # inline.  Either way the per-value order, deadline checks and
        # memo traffic are identical.
        matches = (
            self._match_packed(query, values, profile_holder, deadline, memo)
            if self._pack_active
            else None
        )
        min_len = self.config.min_input_length
        for index, value in enumerate(values):
            if matches is not None:
                matched = matches[index]
                if matched is None:
                    continue
            else:
                if deadline is not None:
                    deadline.check("nti")
                if len(value) < min_len:
                    continue
                matched = self._match(value, query, profile_holder, memo)
            if matched is None:
                continue
            # Hoist the span once (RatioMatch.start/end are forwarding
            # properties) and inline TaintMarking.covers for the per-token
            # loop -- this runs for every matching input of every request.
            span = matched.match
            m_start, m_end = span.start, span.end
            marking = TaintMarking(
                start=m_start,
                end=m_end,
                technique=Technique.NTI,
                origin=value,
                ratio=matched.ratio,
            )
            markings.append(marking)
            for token in crit:
                if m_start <= token.start and token.end <= m_end:
                    detections.append(
                        Detection(
                            technique=Technique.NTI,
                            reason=(
                                "critical token covered by negative taint "
                                f"(ratio {matched.ratio:.3f})"
                            ),
                            token_text=token.text,
                            token_start=token.start,
                            token_end=token.end,
                            input_value=value,
                        )
                    )
        if entry is not None:
            resolved = profile_holder[0]
            if entry.profile is None and type(resolved) is TextProfile:
                entry.profile = resolved
            entry.trim()
        return AnalysisResult(
            technique=Technique.NTI,
            safe=not detections,
            markings=markings,
            detections=detections,
        )
