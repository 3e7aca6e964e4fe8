"""Negative taint inference (NTI).

Implements the algorithm of paper Section III-A, whose pseudo-code reads:

.. code-block:: text

    query q = intercept_query()
    for each input source, S
        for each input p, in S
            diff_ratio = substring_distance(q, p)
            if diff_ratio < threshold
                mark_negative_taint(q, p)

This implementation marks at ``diff_ratio <= threshold`` (a divergence
recorded in DESIGN.md section 5), followed by the detection rule: the
query is an attack iff some *single* input's inferred marking fully
covers at least one critical token.  Two false-positive guards come
straight from the paper:

- markings inferred from different inputs are never combined (otherwise
  one-letter inputs ``O`` and ``R`` would taint every ``OR``);
- a match only counts if it covers "at least one whole SQL token", so an
  input like ``1`` matching the data position of ``WHERE ID=1`` is benign.

Performance structure (the per-request hot path of the whole system):
one loop over the candidate inputs, where each candidate stops at the
first tier that settles it --

- the query's memo: a cross-request LRU keyed by query
  (:class:`~repro.nti.cache.NTIQueryCache`) keeps each query's pruning
  tables and its ``input value -> match`` results, the NTI analogue of the
  PTI query cache, touched once per query rather than once per input;
- exact containment (``str.find``), then the zero-budget prune;
- the q-gram pigeonhole probe (:mod:`repro.matching.filter`): a proven
  no-match, or an exact match from scans anchored at piece hits;
- on a probe decline, or where the probe does not apply, the plain
  :func:`~repro.matching.ratio.match_with_ratio` pipeline: the query's
  char/bigram bounds (:class:`~repro.matching.substring.TextProfile`,
  built once per query and shared across inputs), then its default
  matching core (Myers' bit-parallel scan).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..core.resilience import Deadline
from ..core.verdict import AnalysisResult, Detection, TaintMarking, Technique
from ..matching.filter import (
    FULL_SCAN,
    FilterStats,
    edit_budget,
    qgram_applicable,
    qgram_filtered_match,
)
from ..matching.ratio import (
    DEFAULT_NTI_THRESHOLD,
    RatioMatch,
    difference_ratio,
    match_with_ratio,
)
from ..matching.substring import SubstringMatch, TextProfile
from ..phpapp.context import RequestContext
from ..sqlparser.parser import critical_tokens
from ..sqlparser.tokens import Token
from .cache import NTIQueryCache, NTIQueryEntry
from .sources import candidate_inputs

__all__ = ["NTIConfig", "NTIAnalyzer"]

#: Distinguishes "not memoised" from a memoised negative (``None``) result.
_MISSING = object()


@dataclass(frozen=True)
class NTIConfig:
    """Tunables for the NTI component.

    Attributes:
        threshold: maximum difference ratio accepted as a match.  The paper
            discusses the sensitivity of this knob at length (Section
            III-A); 0.20 matches Figure 2C's arithmetic.
        cache_size: capacity of the cross-request per-query cache,
            counted in queries: each entry holds one query's pruning
            tables and its input match results.  ``0`` disables it (the
            cache ablation setting; tables are still shared across the
            inputs of one query).
    """

    threshold: float = DEFAULT_NTI_THRESHOLD
    cache_size: int = 512


class NTIAnalyzer:
    """Correlate raw inputs with an intercepted query.

    Verdict-wise stateless (every ``analyze`` call is a pure function of
    query and context); operationally it owns the per-query NTI cache,
    which is sound because a match result depends only on the
    ``(input, query)`` pair and the analyzer's fixed threshold.
    """

    def __init__(self, config: NTIConfig | None = None) -> None:
        self.config = config or NTIConfig()
        self.cache: NTIQueryCache | None = (
            NTIQueryCache(self.config.cache_size)
            if self.config.cache_size > 0
            else None
        )
        self._stats = FilterStats()
        # Filtering applies only under a valid threshold (an invalid one
        # must keep raising through match_with_ratio).
        self._filter_active = 0.0 <= self.config.threshold < 1.0

    def cache_stats(self) -> dict[str, dict[str, float]]:
        """The per-query cache reading (bench reporting hook).

        ``match`` counts per query, not per input: one lookup per analysed
        query, a hit when the query's entry was resident; ``entries`` is
        the number of resident queries.  Absent when the cache is off.
        The prefilter counters are :meth:`filter_stats`.
        """
        if self.cache is None:
            return {}
        return {"match": self.cache.snapshot_stats()}

    def filter_stats(self) -> dict[str, float]:
        """Prefilter effectiveness counters (see :class:`FilterStats`)."""
        return self._stats.as_dict()

    @staticmethod
    def _profile_for(query: str, holder: list) -> TextProfile:
        """Lazily build the query's pruning tables (once per query).

        ``holder[0]`` starts out as the query's cached profile or ``None``;
        a built profile is memoised back into the holder so later inputs of
        the same query reuse it.
        """
        value = holder[0]
        if value is None:
            value = holder[0] = TextProfile(query)
        return value

    def analyze(
        self,
        query: str,
        context: RequestContext,
        tokens: list[Token] | None = None,
        deadline: Deadline | None = None,
        values: list[str] | None = None,
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
                stalling the guard -- the engine then fails the query
                closed.
            values: optional pre-computed candidate input list.  The shape
                fast path passes the :func:`~repro.nti.sources.candidate_inputs`
                output after pruning inputs that provably cannot cover any
                critical token of the cached shape; ``None`` (the default)
                enumerates the context as usual.
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
        profile = None
        if self.cache is not None and values:
            entry = self.cache.entry(query)
            memo = entry.matches
            profile = entry.profile
        # Pruning tables depend only on the query: built at most once per
        # analyze call, lazily when the first input reaches the bound
        # heuristics, then shared across all inputs.
        profile_holder: list = [profile]
        threshold = self.config.threshold
        filtered = self._filter_active
        stats = self._stats
        for value in values:
            if deadline is not None:
                deadline.check("nti")
            n = len(value)
            if not n:
                continue  # empty inputs carry no taint
            matched = _MISSING if memo is None else memo.get(value, _MISSING)
            if matched is _MISSING:
                # Tiers in cost order; FULL_SCAN marks a candidate that no
                # tier settled, which the plain pipeline then resolves.
                matched = FULL_SCAN
                if filtered:
                    idx = query.find(value)
                    if idx >= 0:
                        # Byte-identical to the pipeline's exact-containment
                        # short circuit (distance 0, ratio 0.0).
                        stats.exact_hits += 1
                        matched = RatioMatch(
                            match=SubstringMatch(0, idx, idx + n), ratio=0.0
                        )
                    else:
                        budget = edit_budget(n, threshold)
                        if budget == 0:
                            # Containment missed and no edit is allowed.
                            stats.pruned_zero_budget += 1
                            matched = None
                        elif qgram_applicable(n, budget):
                            outcome = qgram_filtered_match(
                                value, query, budget, stats
                            )
                            if outcome is FULL_SCAN:
                                stats.fallthrough_full_scan += 1
                            elif outcome is None:
                                matched = None
                            else:
                                # match_with_ratio's acceptance rule on
                                # the exact anchored match.
                                anchored = SubstringMatch(*outcome)
                                ratio = difference_ratio(anchored)
                                matched = (
                                    RatioMatch(match=anchored, ratio=ratio)
                                    if ratio <= threshold
                                    else None
                                )
                if matched is FULL_SCAN:
                    matched = match_with_ratio(
                        value,
                        query,
                        threshold,
                        # Lazy: the tables are built only if the bound
                        # heuristics are reached.
                        profile=partial(self._profile_for, query, profile_holder),
                    )
                if memo is not None:
                    memo[value] = matched
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
            entry.profile = profile_holder[0]
            entry.trim()
        return AnalysisResult(
            technique=Technique.NTI,
            safe=not detections,
            markings=markings,
            detections=detections,
        )
