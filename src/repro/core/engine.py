"""The Joza hybrid taint-inference engine (paper Section IV).

:class:`JozaEngine` is the system's primary public entry point.  It wires
the PTI daemon and the NTI analyzer behind the database wrapper's
:class:`~repro.phpapp.application.QueryGuard` interface:

    All commands intended for the backend DBMS are intercepted and first
    sent to the PTI Analysis component, and then to the NTI Analysis
    component before being allowed to proceed to the DBMS.  A query is safe
    if and only if both PTI and NTI components deem the query safe.

Typical use::

    from repro.core import JozaEngine
    engine = JozaEngine.protect(app)        # extract fragments, hook wrapper
    response = app.handle(request)          # attacks now blocked

or, without an application object, analyse queries directly::

    engine = JozaEngine.from_fragments(["SELECT * FROM t WHERE id="])
    verdict = engine.inspect("SELECT * FROM t WHERE id=1 OR 1=1", context)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from ..nti.inference import NTIAnalyzer
from ..nti.sources import candidate_inputs
from ..phpapp.application import QueryBlockedError, WebApplication
from ..phpapp.context import RequestContext
from ..pti.caches import witness_misses
from ..pti.daemon import PTIBackend, PTIDaemon
from ..pti.fragments import FragmentStore
from ..pti.inference import PTIAnalyzer
from ..sqlparser.parser import critical_tokens
from ..sqlparser.skeleton import Skeleton, skeletonize
from .policy import JozaConfig, RecoveryPolicy
from .shapecache import ShapeCache, ShapePlan, build_plan
from .resilience import (
    CorruptReply,
    Counters,
    DaemonUnavailable,
    Deadline,
    DeadlineExceeded,
    PTIFailure,
    RingLog,
)
from .verdict import (
    AnalysisResult,
    QueryVerdict,
    Technique,
    audit_event,
    verdict_to_dict,
)

__all__ = ["JozaEngine", "AttackRecord", "EngineStats"]


@dataclass(frozen=True)
class AttackRecord:
    """Audit-log entry for one query the engine blocked in process."""

    query: str
    verdict: QueryVerdict
    request_path: str

    def to_dict(self) -> dict:
        """The audit event (:func:`~repro.core.verdict.audit_event`)."""
        return audit_event(verdict_to_dict(self.verdict), self.request_path)


#: Degradation counters (DESIGN.md section 7): how often the runtime
#: absorbed a fault instead of analysing normally.  A healthy deployment
#: shows zeros; anything else is the resilience layer earning its keep.
RESILIENCE_COUNTERS = (
    #: Queries whose analysis ran past the per-query budget.
    "deadline_exceeded",
    #: Queries refused by an open daemon circuit breaker.
    "breaker_open",
    #: Queries blocked because analysis was unavailable (not detections).
    "failsafe_blocks",
)
#: Shape fast path (DESIGN.md "shape fast path").
SHAPE_COUNTERS = (
    #: Queries fully served by a cached per-shape analysis plan ...
    "shape_hits",
    #: ... whose skeleton had no cached plan (cold path taken) ...
    "shape_misses",
    #: ... or where a plan existed but declined (lex drift, slot/token
    #: overlap, PTI recheck miss, deadline), or the backend's analyzer
    #: could not be read before the lookup: cold path.
    "shape_fallthroughs",
    #: Plans built and cached after clean, fully-safe cold analyses.
    "shape_plans_built",
    #: Clean, fully-safe cold analyses of a shape's first sighting: the
    #: doorkeeper deferred admission, so no plan was built.
    "shape_admissions_deferred",
)
#: Batched inspection (DESIGN.md section 11).
BATCH_COUNTERS = (
    #: ``inspect_batch`` calls ...
    "batch_calls",
    #: ... queries that arrived inside them ...
    "batch_queries",
    #: ... and how many ``analyze_batch`` daemon exchanges they issued
    #: (cold queries only; fast-path hits never reach the daemon).
    "batch_daemon_batches",
)
ENGINE_COUNTERS = (
    "queries_checked",
    "attacks_blocked",
    "nti_detections",
    "pti_detections",
    #: Analysis time attributed to each technique (Fig. 8, Table VI).
    "nti_seconds",
    "pti_seconds",
    *RESILIENCE_COUNTERS,
    *SHAPE_COUNTERS,
    *BATCH_COUNTERS,
)


class EngineStats(Counters):
    """The engine's counters (:data:`ENGINE_COUNTERS`).

    Each query commits its counters once: a shape hit makes one
    :meth:`~repro.core.resilience.Counters.bump`, a cold ``inspect`` at
    most three (lookup, daemon exchange, cold step).
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(ENGINE_COUNTERS)

    def shape_counters(self) -> dict[str, int]:
        return self.snapshot(SHAPE_COUNTERS)


class JozaEngine:
    """Hybrid NTI + PTI query guard."""

    def __init__(
        self,
        store: FragmentStore,
        config: JozaConfig | None = None,
        *,
        daemon: PTIBackend | None = None,
    ) -> None:
        self.config = config or JozaConfig()
        #: Any :class:`~repro.pti.daemon.PTIBackend` works here (DESIGN.md
        #: section 11); benchmarks substitute a
        #: :class:`~repro.pti.daemon.SubprocessPTIDaemon` to measure the
        #: paper's deployment architecture.
        self.daemon: PTIBackend = daemon if daemon is not None else PTIDaemon(
            store, self.config.daemon
        )
        self.nti = NTIAnalyzer(self.config.nti)
        self.stats = EngineStats()
        #: Capacity-bounded audit ring buffer: under a sustained attack
        #: flood the newest evidence is kept, the eviction count is
        #: surfaced as ``dropped_records`` in the export.
        self.attack_log: RingLog = RingLog(
            self.config.resilience.attack_log_capacity
        )
        #: Query-shape fast path (DESIGN.md "shape fast path").  Only active
        #: when both techniques run: a plan encodes results of the *hybrid*
        #: pipeline, so single-technique ablation configs take the cold path.
        shape_cfg = self.config.shape
        self.shape_cache: ShapeCache | None = (
            ShapeCache(shape_cfg.capacity)
            if shape_cfg.enabled
            and self.config.enable_pti
            and self.config.enable_nti
            else None
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_fragments(
        cls, fragments: Iterable[str], config: JozaConfig | None = None
    ) -> "JozaEngine":
        """Build an engine over an explicit fragment vocabulary."""
        return cls(FragmentStore(fragments), config)

    @classmethod
    def from_sources(
        cls, sources: Iterable[str], config: JozaConfig | None = None
    ) -> "JozaEngine":
        """Build an engine by extracting fragments from PHP source texts."""
        return cls(FragmentStore.from_sources(sources), config)

    @classmethod
    def protect(
        cls, app: WebApplication, config: JozaConfig | None = None
    ) -> "JozaEngine":
        """Install Joza on an application (the paper's installation step).

        Extracts fragments from the application core and all plugins,
        installs the query guard on the database wrapper, and subscribes to
        plugin changes so the fragment set stays complete (Section IV-B).
        """
        engine = cls.from_sources(app.all_sources(), config)
        app.install_guard(engine)

        def refresh() -> None:
            engine.daemon.refresh_fragments(
                FragmentStore.from_sources(app.all_sources())
            )

        app.on_source_change(refresh)
        return engine

    @property
    def store(self) -> FragmentStore:
        return self.daemon.store

    def cache_stats(self) -> dict[str, dict[str, dict[str, float]]]:
        """Unified cache introspection: one dict covering every cache layer.

        Layout::

            {"nti":   {"match": {...}},
             "pti":   {"query": {...}, "structure": {...}, "matcher": {...}},
             "shape": {"plans": {...}}}

        The ``matcher`` leaf carries the PTI matching-engine counters
        (comparisons, automaton builds/nodes, occurrence-index reuse;
        DESIGN.md section 9) of the backend's analyzer, which also serves
        the shape fast path's plan builds and per-hit re-proofs.

        Each cache leaf is its :class:`~repro.pti.caches.EpochLRU`
        reading (``hits`` / ``misses`` / ``hit_rate`` / ``entries`` /
        ``capacity`` / ``invalidations`` / ``insertions`` / ``stale_puts``
        / ``epoch``, floats by the bench-reporting convention).
        ``nti.match`` is the per-query NTI cache and counts per query (see
        :meth:`~repro.nti.inference.NTIAnalyzer.cache_stats`).  ``pti`` is
        the backend's :meth:`~repro.pti.daemon.PTIBackend.cache_stats`:
        a subprocess daemon's holds only ``matcher`` (its parent-side
        analyzer's work), because its caches live in the child.
        Counters that are not cache readings (the shape fast path, batching,
        the NTI prefilter, the store) are in :meth:`resilience_report`.
        """
        out: dict[str, dict[str, dict[str, float]]] = {
            "nti": self.nti.cache_stats(),
            "pti": self.daemon.cache_stats(),
        }
        if self.shape_cache is not None:
            out["shape"] = {"plans": self.shape_cache.snapshot_stats()}
        return out

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def inspect(
        self,
        query: str,
        context: RequestContext,
        deadline: Deadline | None = None,
    ) -> QueryVerdict:
        """Run the full hybrid pipeline without enforcement.

        PTI runs first (through the daemon and its caches); NTI runs second,
        reusing the critical tokens the daemon extracted when available
        (Section IV-D).  NTI is skipped entirely when the request carried no
        input -- "[NTI] only needs to be computed when input is provided to
        the application" (Section III-A).

        Resilience invariant: this method **always returns a verdict** --
        analysis failures (daemon crash/hang/poison, breaker-open refusals,
        deadline expiry, even unexpected analyzer exceptions) are resolved
        into a fail-closed ``failsafe`` verdict.  A query is never vouched
        safe by a technique that did not actually run.

        Shape fast path: when enabled, the query's literal-masked skeleton
        is looked up in the plan cache first.  A hit replays the cached
        analysis (PTI structure coverage pre-proven, NTI over prefiltered
        inputs) without touching the daemon; any doubt falls through to the
        cold path.  Only clean, fully-safe cold analyses plant plans, and
        only on a shape's second sighting (see :meth:`_maybe_plant_plan`).

        The per-query work is :meth:`_shape_step` and :meth:`_cold_step`,
        shared with :meth:`inspect_batch`; only the fixed costs differ (no
        batch counters, no candidate memo).  Each step commits its counters
        in one ``bump``, and ``queries_checked`` rides the first: a shape
        hit makes one bump, a cold query at most three (the lookup, the
        daemon exchange and the cold step).
        """
        if deadline is None:
            deadline = self.config.resilience.start_deadline()
        skeleton = analyzer = None
        epoch0 = -1
        checked = 1
        if self.shape_cache is not None:
            t0 = time.perf_counter()
            epoch0, analyzer = self._shape_state()
            if analyzer is not None:
                verdict, skeleton = self._shape_step(
                    query, context, deadline, epoch0, analyzer, t0, checked=1
                )
                if verdict is not None:
                    return verdict
                checked = 0
        outcome = self._call_daemon_batch([query], deadline)[0]
        return self._cold_step(
            query, context, deadline, outcome, skeleton, epoch0, analyzer,
            checked=checked,
        )

    def inspect_batch(
        self,
        queries: Iterable[str],
        context: RequestContext,
        deadline: Deadline | None = None,
    ) -> list[QueryVerdict]:
        """Inspect a batch of queries from one request context.

        Verdict-equivalent to ``[inspect(q, context) for q in queries]``
        (property-tested, including the paper's evasion payloads) -- each
        query runs the same :meth:`_shape_step` and :meth:`_cold_step` --
        but with the per-query fixed costs paid once per batch:

        - **one epoch pin** -- the fragment-store epoch is read once and
          keys every plan lookup *and* every plan plant of the batch.  A
          store swap racing the batch makes affected lookups miss and
          affected plants get refused by the cache's stale-put guard
          (``ShapeCache.put``), so the whole batch observes one consistent
          epoch -- it can never mix trust from two vocabularies;
        - **one daemon exchange** -- every query the fast path could not
          serve goes to the daemon in a single ``analyze_batch`` call (one
          deadline, packed frames on the wire; see ``repro/pti/wire.py``),
          taking the daemon lock once;
        - **one candidate enumeration** -- NTI candidate inputs depend on
          the query only through its length
          (:func:`~repro.nti.sources.candidate_inputs`), so the batch
          memoises the enumeration per distinct query length instead of
          re-deduplicating the context per query.

        Fail-closed semantics are per batch on the PTI leg: a failed
        exchange resolves every cold query of the batch exactly as it
        resolves a single query -- a recorded failsafe block, never a
        silent pass.  One deadline bounds the whole batch.
        """
        queries = list(queries)
        if not queries:
            return []
        if deadline is None:
            deadline = self.config.resilience.start_deadline()

        # Batch-level NTI candidate memo (exact: candidate_inputs depends
        # on the query only through len(query)).  candidate_inputs returns
        # an immutable tuple, so the memo hands the same object to every
        # query of the batch.
        threshold = self.config.nti.threshold
        memo: dict[int, tuple[str, ...]] = {}

        def candidates(query: str) -> tuple[str, ...]:
            values = memo.get(len(query))
            if values is None:
                values = memo[len(query)] = candidate_inputs(
                    context, query, threshold
                )
            return values

        results: list[QueryVerdict | None] = [None] * len(queries)
        skeletons: list[Skeleton | None] = [None] * len(queries)
        cold: list[int] = []
        analyzer = None
        epoch0 = -1
        deltas = {
            "queries_checked": len(queries),
            "batch_calls": 1,
            "batch_queries": len(queries),
        }
        if self.shape_cache is not None:
            t0 = time.perf_counter()
            epoch0, analyzer = self._shape_state(len(queries))
            deltas["pti_seconds"] = time.perf_counter() - t0
        self.stats.bump(**deltas)
        for index, query in enumerate(queries):
            if analyzer is not None:
                verdict, skeletons[index] = self._shape_step(
                    query,
                    context,
                    deadline,
                    epoch0,
                    analyzer,
                    time.perf_counter(),
                    candidates,
                )
                if verdict is not None:
                    results[index] = verdict
                    continue
            cold.append(index)
        if cold:
            outcomes = self._call_daemon_batch(
                [queries[index] for index in cold],
                deadline,
                batch_daemon_batches=1,
            )
            for outcome, index in zip(outcomes, cold):
                results[index] = self._cold_step(
                    queries[index],
                    context,
                    deadline,
                    outcome,
                    skeletons[index],
                    epoch0,
                    analyzer,
                    candidates,
                )
        return results

    # ------------------------------------------------------------------
    # Per-query steps shared by inspect and inspect_batch
    # ------------------------------------------------------------------

    def _shape_step(
        self,
        query: str,
        context: RequestContext,
        deadline: Deadline,
        epoch0: int,
        analyzer: PTIAnalyzer,
        t0: float,
        candidates=None,
        checked: int = 0,
    ) -> tuple[QueryVerdict | None, Skeleton | None]:
        """One query's fast path: skeleton, plan lookup, replay.

        Returns ``(verdict, skeleton)``; a ``None`` verdict means the cold
        step must analyse the query, planting a plan under ``skeleton``
        (``None`` if skeletonizing failed).  ``t0`` starts the step's
        ``pti_seconds`` attribution.  The step commits one counter bump
        that records the outcome (hit, miss or fall-through), its
        ``pti_seconds``/``nti_seconds``, an NTI detection and
        ``checked`` queries.  ``candidates`` is ``inspect_batch``'s
        candidate memo; ``None`` enumerates per query, as ``inspect``
        does.
        """
        skeleton = plan = None
        try:
            skeleton = skeletonize(query)
            plan = self.shape_cache.get(skeleton.key, epoch0)
        except (KeyboardInterrupt, SystemExit):  # pragma: no cover
            raise
        except Exception:  # pragma: no cover - defensive: fast path is
            plan = None  # best-effort; the cold path is always correct.
        verdict = None
        if plan is None:
            outcome = "shape_misses"
            t_pti = t_nti = time.perf_counter()
        else:
            verdict, t_pti, t_nti = self._apply_plan(
                plan, skeleton, query, context, deadline, analyzer, candidates
            )
            outcome = "shape_fallthroughs" if verdict is None else "shape_hits"
        self.stats.bump(
            pti_seconds=t_pti - t0,
            nti_seconds=t_nti - t_pti,
            nti_detections=0 if verdict is None or verdict.safe else 1,
            queries_checked=checked,
            **{outcome: 1},
        )
        return verdict, skeleton

    def _call_daemon_batch(
        self, queries: list[str], deadline: Deadline, **deltas: int
    ) -> list:
        """One daemon exchange, as per-query PTI outcomes.

        The only call the engine makes into its PTI backend: the whole list
        goes to ``analyze_batch`` under one deadline.  Each outcome is the
        query's :class:`~repro.pti.daemon.DaemonReply` or, when the exchange
        failed, the exception -- the batch succeeds or fails closed *as a
        unit*, and ``_inspect_cold`` re-raises the failure per query so the
        fail-closed resolution applies unchanged.  ``None`` outcomes mean
        PTI is disabled.  The exchange commits its ``pti_seconds`` and
        ``deltas`` in one counter bump.
        """
        if not self.config.enable_pti:
            return [None] * len(queries)
        t0 = time.perf_counter()
        try:
            replies = self.daemon.analyze_batch(queries, deadline)
            if len(replies) != len(queries):
                raise CorruptReply(
                    f"daemon batch returned {len(replies)} replies "
                    f"for {len(queries)} queries"
                )
        except (KeyboardInterrupt, SystemExit):  # pragma: no cover
            raise
        except Exception as exc:
            replies = [exc] * len(queries)
        self.stats.bump(pti_seconds=time.perf_counter() - t0, **deltas)
        return replies

    def _cold_step(
        self,
        query: str,
        context: RequestContext,
        deadline: Deadline,
        outcome,
        skeleton: Skeleton | None,
        epoch0: int,
        analyzer: PTIAnalyzer | None,
        candidates=None,
        checked: int = 0,
    ) -> QueryVerdict:
        """One query's cold path: resolve its daemon outcome, then plant.

        Commits the query's cold-path counters and ``checked`` queries in
        one bump.
        """
        verdict, tokens, deltas = self._inspect_cold(
            query, context, deadline, outcome, candidates
        )
        if skeleton is not None:
            self._maybe_plant_plan(
                query, skeleton, epoch0, analyzer, verdict, tokens, deltas
            )
        self.stats.bump(queries_checked=checked, **deltas)
        return verdict

    # ------------------------------------------------------------------
    # Shape fast path internals
    # ------------------------------------------------------------------

    def _shape_state(self, queries: int = 1) -> tuple[int, PTIAnalyzer | None]:
        """Pinned store epoch + the backend's analyzer over that store.

        ``(-1, None)`` on an internal error: the ``queries`` it would have
        served take the cold path without touching the cache, each counted
        as one ``shape_fallthroughs``.

        The backend's ``analyzer`` is read once: an analyzer serves one
        store for life, so its store's epoch and its coverage proofs
        always agree, and a concurrent ``refresh_fragments`` only swaps
        the backend's pointer.  The cache syncs on the epoch at get/put
        time.  The epoch is pinned *before* analysis: the same value keys
        the lookup and any later plant.  Every store draws a larger epoch
        than the stores built before it, so a swap racing the cold path
        makes the plant stale -- refused by ``ShapeCache.put`` once a
        request has synced the cache to the new store, flushed by the
        first lookup under the new epoch otherwise -- instead of letting
        an old-vocabulary plan serve the new store.
        """
        try:
            analyzer = self.daemon.analyzer
            return analyzer.store.epoch, analyzer
        except (KeyboardInterrupt, SystemExit):  # pragma: no cover
            raise
        except Exception:
            # The fast path is best-effort; the cold path is always correct.
            self.stats.bump(shape_fallthroughs=queries)
            return -1, None

    def _apply_plan(
        self,
        plan: ShapePlan,
        skeleton: Skeleton,
        query: str,
        context: RequestContext,
        deadline,
        analyzer: PTIAnalyzer,
        candidates=None,
    ) -> tuple[QueryVerdict | None, float, float]:
        """Replay a cached plan on one query instance.

        Returns ``(verdict, t_pti, t_nti)``: a ``None`` verdict means fall
        through; ``t_pti`` is the clock at the end of the PTI recheck and
        ``t_nti`` at the end of NTI (equal when the recheck declined).  The
        caller attributes the two spans to the same ``pti_seconds`` /
        ``nti_seconds`` buckets as the cold path, so overhead accounting
        (``attributed_overhead_pct``) stays comparable across modes.
        ``candidates`` optionally supplies the NTI candidate-input
        enumeration (``inspect_batch``'s per-length memo); ``None`` means
        enumerate per query, exactly as the serial path does.
        """
        try:
            deadline.check("shape-pti")
            # Trusted instantiation: the plan was looked up by this query's
            # own skeleton key, so spans/tokens are memoised on slot
            # lengths (see ShapePlan.instantiate_trusted).
            spans, tokens = plan.instantiate_trusted(query, skeleton.slots)
            # Tokens whose build-time coverage witness crossed a literal
            # slot: coverage depends on this instance's literals, re-prove
            # it.  The stored witness usually re-occurs at the same
            # token-relative offset (one verbatim startswith); only misses
            # pay the fragment search -- and under the automaton matcher
            # all misses of one query share a single streaming pass via
            # the analyzer's occurrence-index memo.
            covered = spans is not None
            if covered:
                for index in witness_misses(query, plan.recheck_witnesses, tokens):
                    if analyzer.cover_token_witness(query, tokens[index]) is None:
                        covered = False
                        break
        except (KeyboardInterrupt, SystemExit):  # pragma: no cover
            raise
        except Exception:
            covered = False
        t_pti = time.perf_counter()
        if not covered:
            return None, t_pti, t_pti

        try:
            if context.non_empty_values():
                threshold = self.config.nti.threshold
                pool = (
                    candidate_inputs(context, query, threshold)
                    if candidates is None
                    else candidates(query)
                )
                values = [
                    value
                    for value in pool
                    if plan.input_can_cover(value, threshold)
                ]
                if values:
                    nti_result = self.nti.analyze(
                        query, context, tokens, deadline=deadline, values=values
                    )
                else:
                    # Every input provably unable to cover any critical
                    # token: same verdict as a full run, no matcher calls.
                    nti_result = AnalysisResult(
                        technique=Technique.NTI, safe=True
                    )
            else:
                nti_result = AnalysisResult(technique=Technique.NTI, safe=True)
        except (KeyboardInterrupt, SystemExit):  # pragma: no cover
            raise
        except Exception:
            nti_result = None
        t_nti = time.perf_counter()
        if nti_result is None:
            return None, t_pti, t_nti
        verdict = QueryVerdict(
            query=query,
            safe=nti_result.safe,
            pti=AnalysisResult(
                technique=Technique.PTI, safe=True, from_cache="shape"
            ),
            nti=nti_result,
        )
        return verdict, t_pti, t_nti

    def _maybe_plant_plan(
        self,
        query: str,
        skeleton: Skeleton,
        epoch0: int,
        analyzer: PTIAnalyzer,
        verdict: QueryVerdict,
        tokens,
        deltas: dict,
    ) -> None:
        """Plant a shape plan after a clean cold analysis (best-effort).

        Only a shape's second clean sighting within the cache's doorkeeper
        window builds a plan (:meth:`ShapeCache.admit`); a first sighting
        is counted as a deferred admission.  ``epoch0`` is the epoch pinned
        *before* the analysis ran; the cache refuses the put if a newer
        store has been swapped in since (stale trust), which is exactly
        the mid-batch-swap guarantee ``inspect_batch`` relies on.  The
        outcome and the build time are added to the cold step's
        ``deltas``.
        """
        if tokens is None or not self._plan_cacheable(verdict):
            return
        cache = self.shape_cache
        if not cache.admit(skeleton.key):
            deltas["shape_admissions_deferred"] = 1
            return
        t0 = time.perf_counter()
        try:
            new_plan = build_plan(query, skeleton, tokens, analyzer)
            if new_plan is not None:
                cache.put(skeleton.key, new_plan, epoch0)
                deltas["shape_plans_built"] = 1
        except (KeyboardInterrupt, SystemExit):  # pragma: no cover
            raise
        except Exception:  # pragma: no cover - defensive
            pass
        deltas["pti_seconds"] = time.perf_counter() - t0

    @staticmethod
    def _plan_cacheable(verdict: QueryVerdict) -> bool:
        """Only clean, fully-safe hybrid verdicts may plant a plan.

        Unsafe shapes are never cached (coverage gaps are not a shape
        property); failsafe verdicts reflect faults, not analysis.
        """
        return (
            verdict.safe
            and not verdict.failsafe
            and not verdict.failure_reasons
            and verdict.pti is not None
            and verdict.pti.safe
            and verdict.nti is not None
            and verdict.nti.safe
        )

    def _inspect_cold(
        self,
        query: str,
        context: RequestContext,
        deadline,
        pti_outcome,
        candidates=None,
    ) -> tuple[QueryVerdict, list | None, dict]:
        """The reference pipeline: the daemon's PTI result + an NTI run.

        Returns the verdict, the critical-token list (when one was
        produced) so the caller can plant a shape plan, and the query's
        counter deltas for the caller to commit.

        ``pti_outcome`` is this query's entry from
        :meth:`_call_daemon_batch` -- the daemon is never called from
        here.  A reply is used as is; a captured failure is re-raised
        *inside* the ``try`` block below, so every failure class (deadline,
        typed PTI failure, unexpected exception) flows through
        exactly the per-query resolution logic, whether the exchange
        carried one query or a batch.  ``candidates`` (a ``query ->
        list[str]`` callable) lets the batch reuse one memoised NTI
        candidate enumeration; ``None`` keeps the analyzer's own.

        A failed technique always blocks the query with a ``failsafe``
        verdict that records the reason.  NTI still runs after a PTI
        failure, and its result stays on the verdict as evidence.
        """
        failure_reasons: list[str] = []
        deadline_exceeded = breaker_open = 0

        pti_result: AnalysisResult | None = None
        pti_failed = False
        tokens = None
        if self.config.enable_pti:
            try:
                if isinstance(pti_outcome, BaseException):
                    raise pti_outcome
                pti_result = pti_outcome.result
                tokens = pti_outcome.tokens
            except DeadlineExceeded as exc:
                deadline_exceeded += 1
                failure_reasons.append(f"pti: {exc}")
                pti_failed = True
            except PTIFailure as exc:
                if isinstance(exc, DaemonUnavailable) and exc.breaker_open:
                    breaker_open = 1
                failure_reasons.append(f"pti: {exc.reason}")
                pti_failed = True
            except (KeyboardInterrupt, SystemExit):  # pragma: no cover
                raise
            except Exception as exc:
                # A non-resilient daemon object leaked a raw error (pipe
                # breakage, analyzer bug).  Absorb it: the query fails
                # closed, the exception never reaches the request path.
                failure_reasons.append(f"pti: unexpected {exc!r}")
                pti_failed = True

        nti_result: AnalysisResult | None = None
        nti_failed = False
        nti_seconds = 0.0
        if self.config.enable_nti:
            t0 = time.perf_counter()
            try:
                if context.non_empty_values():
                    if tokens is None:
                        tokens = critical_tokens(
                            query, strict=self.config.strict_tokens
                        )
                    nti_result = self.nti.analyze(
                        query,
                        context,
                        tokens,
                        deadline=deadline,
                        values=None if candidates is None else candidates(query),
                    )
                else:
                    nti_result = AnalysisResult(
                        technique=Technique.NTI, safe=True
                    )
            except DeadlineExceeded as exc:
                deadline_exceeded += 1
                failure_reasons.append(f"nti: {exc}")
                nti_failed = True
            except (KeyboardInterrupt, SystemExit):  # pragma: no cover
                raise
            except Exception as exc:
                failure_reasons.append(f"nti: unexpected {exc!r}")
                nti_failed = True
            nti_seconds = time.perf_counter() - t0

        # Failure resolution (never fail open).
        failsafe = pti_failed or nti_failed
        safe = (
            not failsafe
            and (pti_result is None or pti_result.safe)
            and (nti_result is None or nti_result.safe)
        )
        verdict = QueryVerdict(
            query=query,
            safe=safe,
            pti=None if pti_failed else pti_result,
            nti=None if nti_failed else nti_result,
            failsafe=failsafe,
            failure_reasons=failure_reasons,
        )
        deltas = {
            "nti_seconds": nti_seconds,
            "deadline_exceeded": deadline_exceeded,
            "breaker_open": breaker_open,
            "pti_detections": int(verdict.pti is not None and not verdict.pti.safe),
            "nti_detections": int(verdict.nti is not None and not verdict.nti.safe),
            "failsafe_blocks": int(failsafe),
        }
        return verdict, tokens, deltas

    # ------------------------------------------------------------------
    # QueryGuard interface (enforcement)
    # ------------------------------------------------------------------

    def check_query(self, query: str, context: RequestContext) -> None:
        """Vet one intercepted query; raises on attack (QueryGuard protocol).

        Failsafe blocks (analysis unavailable) raise the same
        :class:`QueryBlockedError` as detections -- the query must not
        execute either way -- but are logged with the ``failsafe`` flag and
        counted separately from ``attacks_blocked``.
        """
        verdict = self.inspect(query, context)
        if verdict.safe:
            return
        self.record_block(verdict, context.path)
        terminate = self.config.policy is RecoveryPolicy.TERMINATE
        flagged = ", ".join(sorted(t.value for t in verdict.detected_by()))
        if flagged:
            raise QueryBlockedError(
                f"SQL injection detected by {flagged}", terminate=terminate
            )
        reasons = "; ".join(verdict.failure_reasons) or "analysis unavailable"
        raise QueryBlockedError(
            f"query blocked fail-closed ({reasons})", terminate=terminate
        )

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------

    def record_block(self, verdict: QueryVerdict, request_path: str) -> None:
        """Log one blocked verdict to the audit ring.

        Detections also count in ``attacks_blocked``; failsafe blocks are
        logged with their flag but not counted as attacks.
        """
        if verdict.detected_by():
            self.stats.bump(attacks_blocked=1)
        self.attack_log.append(AttackRecord(verdict.query, verdict, request_path))

    def resilience_report(self) -> dict:
        """Every counter of the engine and its backend, one section per fact.

        The operator-facing view of the failure model: how many queries hit
        the deadline, were refused by an open breaker or got a failsafe
        block, and how many audit records the bounded ring buffer had to
        drop.  Zeros across the board mean the runtime never had to absorb
        a fault.  The sections: ``shape_fastpath``, ``batching``,
        ``nti_filter`` (prefilter effectiveness: seeds
        probed, prune rates, anchored-window coverage), ``daemon`` (the
        backend's :meth:`~repro.pti.daemon.PTIBackend.resilience_snapshot`)
        and ``store`` (:meth:`~repro.pti.fragments.FragmentStore.stats`; a
        :class:`~repro.tenancy.store.TenantStore` adds which fragments are
        fleet-interned and which tenant-private, DESIGN.md section 13).
        """
        report: dict = self.stats.snapshot(RESILIENCE_COUNTERS)
        report["shape_fastpath"] = self.stats.shape_counters()
        report["batching"] = self.stats.snapshot(BATCH_COUNTERS)
        report["dropped_records"] = self.attack_log.dropped_records
        report["attack_log_capacity"] = self.attack_log.capacity
        report["deadline_seconds"] = self.config.resilience.deadline_seconds
        report["nti_filter"] = self.nti.filter_stats()
        report["daemon"] = self.daemon.resilience_snapshot()
        report["store"] = self.store.stats()
        return report

    def export_attack_log(self) -> str:
        """The attack log as a JSON document: counters, then one audit event
        (:func:`~repro.core.verdict.audit_event`) per blocked query."""
        import json

        application = self.stats.snapshot(
            ("queries_checked", "attacks_blocked", "nti_detections", "pti_detections")
        )
        application["nti_caches"] = self.cache_stats()["nti"]
        application["resilience"] = self.resilience_report()
        return json.dumps(
            {
                "application_stats": application,
                "attacks": [record.to_dict() for record in self.attack_log],
            },
            indent=2,
        )
