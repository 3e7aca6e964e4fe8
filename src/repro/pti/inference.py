"""Positive taint inference (PTI).

Implements the algorithm of paper Section III-B: every security-critical
token of an intercepted query must be *fully contained within a single
occurrence of a single program fragment*.  Fragments cannot be combined to
cover one token ("PTI does not allow the critical token OR to be created by
combining the single-letter fragments O and R"), and a comment is one
critical token that must sit inside one fragment.

Two matching engines implement that rule (DESIGN.md section 9), selected by
:attr:`PTIConfig.matcher`:

- ``"scan"`` -- the paper's per-token search with the daemon's two
  Section VI-A optimizations: critical tokens are extracted first and only
  inverted-index candidates containing a token's text are tried, after an
  MRU list of recently-matching fragments.  Kept verbatim as the
  differential oracle (it mirrors the published system).
- ``"automaton"`` -- the one-pass engine: an Aho-Corasick automaton
  (:mod:`repro.pti.automaton`) compiled once per fragment store streams
  the query once, emits every fragment-occurrence interval, and answers
  each token's coverage with an interval-stabbing lookup.
  ``O(|query| + occurrences + tokens log occurrences)`` instead of
  ``O(tokens x candidates)``.
- ``"auto"`` (default) resolves to the automaton once the vocabulary is
  large enough for the per-character walk to beat a handful of
  ``str.find`` calls (:data:`AUTO_AUTOMATON_MIN_FRAGMENTS`), and to the
  scan below that.

Counters on the analyzer record how much matching work was performed, which
the Figure 7 bench uses to show the optimization effect.  **Semantics
change with the matcher**: the scan counts fragment-vs-token containment
checks; the automaton counts node transitions (goto steps + fail follows).

An analyzer is bound to one fragment store for life.  A store never
changes, so its MRU, compiled automaton and occurrence memo can never go
stale; a vocabulary change swaps in a new store, and with it a new
analyzer (:meth:`~repro.pti.daemon.PTIDaemon.refresh_fragments`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..core.verdict import AnalysisResult, Detection, TaintMarking, Technique
from ..sqlparser.parser import critical_tokens
from ..sqlparser.tokens import Token
from .automaton import FragmentAutomaton, OccurrenceIndex
from .caches import MRUFragmentCache
from .fragments import FragmentStore, token_index_key

__all__ = [
    "PTIConfig",
    "PTIAnalyzer",
    "PTI_MATCHER_CHOICES",
    "AUTO_AUTOMATON_MIN_FRAGMENTS",
    "uncovered_detection",
]

#: Valid values of :attr:`PTIConfig.matcher` (mirrors the NTI
#: ``matcher=auto|dp|bitparallel`` surface).
PTI_MATCHER_CHOICES = ("auto", "scan", "automaton")

#: ``matcher="auto"`` switches to the automaton at this vocabulary size.
#: Below it, a token's candidate list is a handful of C-level ``str.find``
#: calls, which beat a per-character Python automaton walk; above it the
#: one-pass engine wins and keeps winning (its cost is store-size
#: independent).  Resolved once per analyzer: its store never changes.
AUTO_AUTOMATON_MIN_FRAGMENTS = 16


def uncovered_detection(token: Token) -> Detection:
    """PTI's detection of a critical token no fragment occurrence covers.

    The one PTI detection: the analysis makes it, and a subprocess
    daemon's parent rebuilds it from a flagged reply span.
    """
    return Detection(
        technique=Technique.PTI,
        reason="critical token not covered by any program fragment",
        token_text=token.text,
        token_start=token.start,
        token_end=token.end,
    )


@dataclass(frozen=True)
class PTIConfig:
    """Tunables for the PTI component.

    Attributes:
        use_mru: try the most-recently-used fragment list first.
        use_token_index: restrict the fragment scan to index candidates;
            disabling both knobs yields the unoptimized full scan of the
            paper's initial implementation (Figure 7's "unoptimized" bar).
            Both are scan-matcher knobs (the automaton has no per-token
            search to skip), so they are inert whenever the scan does not
            run -- including under ``matcher="auto"`` once the store holds
            :data:`AUTO_AUTOMATON_MIN_FRAGMENTS` (16) or more fragments.
            The Table V, Fig. 7 and cache-ablation benches pin
            ``matcher="scan"`` for that reason.
        matcher: matching-engine selector -- ``"auto"`` (automaton for
            vocabularies of at least
            :data:`AUTO_AUTOMATON_MIN_FRAGMENTS` fragments, scan below),
            ``"scan"`` (the per-token oracle) or ``"automaton"``.  All
            produce identical verdicts, detections and marking spans; the
            knob exists for the matcher ablation and differential testing.
    """

    use_mru: bool = True
    use_token_index: bool = True
    matcher: str = "auto"

    def __post_init__(self) -> None:
        if self.matcher not in PTI_MATCHER_CHOICES:
            raise ValueError(
                f"unknown pti matcher {self.matcher!r}; "
                f"expected one of {PTI_MATCHER_CHOICES}"
            )


class PTIAnalyzer:
    """Checks critical-token coverage of queries against a fragment store."""

    def __init__(
        self, store: FragmentStore, config: PTIConfig | None = None
    ) -> None:
        self.store = store
        self.config = config or PTIConfig()
        matcher = self.config.matcher
        if matcher == "auto":
            matcher = (
                "automaton"
                if len(store) >= AUTO_AUTOMATON_MIN_FRAGMENTS
                else "scan"
            )
        #: The engine this analyzer runs (``"auto"`` resolved for its store).
        self.resolved_matcher = matcher
        self.mru = MRUFragmentCache()
        #: Guards the derived state (compiled automaton, occurrence memo)
        #: so concurrent callers cannot interleave a memo fill.  Reentrant
        #: because the public entry points nest (``analyze`` ->
        #: ``cover_token_witness`` -> ``occurrence_index``).  Held across
        #: the in-process match work -- acceptable because in-process
        #: Python matching is GIL-serialized anyway; parallel analysis
        #: comes from the gateway's worker fleet (DESIGN.md section 12).
        self._lock = threading.RLock()
        #: Total matching work performed (Fig. 7).  Unit depends on the
        #: matcher: fragment-vs-token containment checks for the scan,
        #: automaton node transitions for the one-pass engine.
        self.comparisons = 0
        #: The store's Aho-Corasick automaton (automaton matcher), resolved
        #: on first use.
        self._automaton: FragmentAutomaton | None = None
        #: Last-query occurrence-index memo: one streaming pass serves every
        #: token of a query -- including the shape cache's per-hit recheck
        #: tokens, which arrive as separate ``cover_token_witness`` calls.
        self._occ_query: str | None = None
        self._occ_index: OccurrenceIndex | None = None
        # Observability (surfaced via JozaEngine.cache_stats()).
        self.automaton_builds = 0
        self.occ_index_builds = 0
        self.occ_index_reuses = 0

    # ------------------------------------------------------------------
    # One-pass matcher state
    # ------------------------------------------------------------------

    def _resolve_automaton(self) -> FragmentAutomaton:
        """The store's automaton, shared by every analyzer of the store.

        ``automaton_builds`` counts the compiles *this* analyzer paid for.
        """
        automaton = self._automaton
        if automaton is None:
            automaton, built_now = self.store.compiled_automaton()
            self._automaton = automaton
            if built_now:
                self.automaton_builds += 1
        return automaton

    def occurrence_index(self, query: str) -> OccurrenceIndex:
        """The query's fragment-occurrence interval index (memoised).

        Resolves the store's automaton on first use, then serves repeated
        lookups for the *same* query string (the per-token loop of
        :meth:`analyze`, the engine's shape-cache recheck path) from the
        single streaming pass already performed.
        """
        with self._lock:
            previous = self._occ_query
            if previous is not None and (previous is query or previous == query):
                self.occ_index_reuses += 1
                return self._occ_index
            index = self._resolve_automaton().index(query)
            self.comparisons += index.transitions
            self.occ_index_builds += 1
            self._occ_query = query
            self._occ_index = index
            return index

    def warm(self) -> None:
        """Precompile the resolved matcher's derived state.

        Called off the request path (:meth:`PTIDaemon.warm
        <repro.pti.daemon.PTIDaemon.warm>`) so the first query against a
        swapped-in store finds a ready automaton instead of paying the
        build inline.  A no-op for the scan matcher.
        """
        if self.resolved_matcher == "automaton":
            with self._lock:
                self._resolve_automaton()

    def matcher_stats(self) -> dict[str, float]:
        """Matching-engine counters for the unified cache introspection."""
        automaton = self._automaton
        return {
            "comparisons": float(self.comparisons),
            "automaton_builds": float(self.automaton_builds),
            "automaton_nodes": float(automaton.node_count if automaton else 0),
            "automaton_fragments": float(
                len(automaton.fragments) if automaton else 0
            ),
            "occ_index_builds": float(self.occ_index_builds),
            "occ_index_reuses": float(self.occ_index_reuses),
        }

    # ------------------------------------------------------------------
    # Scan matcher (the per-token oracle)
    # ------------------------------------------------------------------

    def _covering_position(
        self, fragment: str, query: str, token: Token
    ) -> int | None:
        """Start offset of an occurrence of ``fragment`` containing the token.

        Only occurrences overlapping the token can matter, so the search
        starts at the earliest position where the occurrence could still
        cover the token.  Returns ``None`` when no occurrence covers it.
        """
        self.comparisons += 1
        flen = len(fragment)
        span = token.end - token.start
        if flen < span:
            return None
        # Earliest start such that start + flen >= token.end:
        search_from = max(token.end - flen, 0)
        pos = query.find(fragment, search_from, token.start + flen)
        while pos >= 0:
            if pos <= token.start and token.end <= pos + flen:
                return pos
            if pos > token.start:
                break
            pos = query.find(fragment, pos + 1, token.start + flen)
        return None

    def _fragment_covers(self, fragment: str, query: str, token: Token) -> bool:
        """Whether some occurrence of ``fragment`` in ``query`` contains the token."""
        return self._covering_position(fragment, query, token) is not None

    def _scan_witness(self, query: str, token: Token) -> tuple[str, int] | None:
        """Per-token MRU + index candidate search (the scan matcher)."""
        tried: set[str] = set()
        if self.config.use_mru:
            for fragment in self.mru.items():
                if fragment in tried:
                    continue
                tried.add(fragment)
                pos = self._covering_position(fragment, query, token)
                if pos is not None:
                    self.mru.touch(fragment)
                    return fragment, pos
        if self.config.use_token_index:
            candidates = self.store.iter_candidates(token_index_key(token))
        else:
            candidates = self.store.iter_all()
        for fragment in candidates:
            if fragment in tried:
                continue
            tried.add(fragment)
            pos = self._covering_position(fragment, query, token)
            if pos is not None:
                if self.config.use_mru:
                    self.mru.touch(fragment)
                return fragment, pos
        return None

    # ------------------------------------------------------------------
    # Public coverage API (matcher-dispatching)
    # ------------------------------------------------------------------

    def cover_token_witness(
        self, query: str, token: Token
    ) -> tuple[str, int] | None:
        """Find a covering fragment *and* the occurrence that covers the token.

        Returns ``(fragment, occurrence_start)`` or ``None``.  The witness
        position is always the exact start of a real occurrence; the shape
        cache uses it to classify a structure token's coverage as
        slot-independent (occurrence confined to one inter-literal segment)
        or literal-dependent (occurrence crosses a slot, so it must be
        re-verified per query instance).

        Which covering fragment is returned may differ between matchers
        (the scan returns the first MRU/index candidate that covers, the
        automaton a canonical max-reach occurrence); coverage *existence*
        -- and therefore every verdict -- is identical.
        """
        with self._lock:
            if self.resolved_matcher == "automaton":
                return self.occurrence_index(query).witness(
                    token.start, token.end
                )
            return self._scan_witness(query, token)

    def analyze(
        self,
        query: str,
        tokens: list[Token] | None = None,
    ) -> AnalysisResult:
        """Run PTI over one query.

        Args:
            query: the intercepted SQL string.
            tokens: optional pre-computed critical tokens (the daemon parses
                once and shares them with NTI).
        """
        return self.analyze_witnessed(query, tokens)[0]

    def analyze_witnessed(
        self,
        query: str,
        tokens: list[Token] | None = None,
    ) -> tuple[AnalysisResult, list[tuple[str, int] | None]]:
        """:meth:`analyze` plus each token's coverage witness.

        The second element holds one :meth:`cover_token_witness` result per
        critical token, in token order, straight from the analysis pass (no
        second search); the daemon's structure cache records the witnesses
        that cross a literal slot.
        """
        crit = tokens if tokens is not None else critical_tokens(query)
        markings: list[TaintMarking] = []
        detections: list[Detection] = []
        witnesses: list[tuple[str, int] | None] = []
        for token in crit:
            witness = self.cover_token_witness(query, token)
            witnesses.append(witness)
            if witness is None:
                detections.append(uncovered_detection(token))
            else:
                markings.append(
                    TaintMarking(
                        start=token.start,
                        end=token.end,
                        technique=Technique.PTI,
                        origin=witness[0],
                    )
                )
        return AnalysisResult(
            technique=Technique.PTI,
            safe=not detections,
            markings=markings,
            detections=detections,
        ), witnesses
