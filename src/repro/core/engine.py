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

import random as _random
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Iterable

from ..nti.inference import NTIAnalyzer
from ..nti.sources import candidate_inputs
from ..phpapp.application import QueryBlockedError, WebApplication
from ..phpapp.context import RequestContext
from ..pti.caches import witness_misses
from ..pti.daemon import PTIDaemon
from ..pti.fragments import FragmentStore
from ..pti.inference import PTIAnalyzer
from ..sqlparser.parser import critical_tokens
from ..sqlparser.skeleton import Skeleton, skeletonize
from .policy import JozaConfig, RecoveryPolicy
from .shapecache import ShapeCache, ShapePlan, build_plan
from .resilience import (
    CorruptReply,
    DaemonUnavailable,
    Deadline,
    DeadlineExceeded,
    FailurePolicy,
    PTIFailure,
    RingLog,
)
from .verdict import AnalysisResult, QueryVerdict, Technique

__all__ = ["JozaEngine", "AttackRecord", "EngineStats"]


@dataclass(frozen=True)
class AttackRecord:
    """Audit-log entry for one blocked query.

    ``client_id`` attributes the block to the gateway connection / tenant
    that issued the query (DESIGN.md section 12); ``None`` for in-process
    deployments where there is no remote client.
    """

    query: str
    verdict: QueryVerdict
    request_path: str
    client_id: str | None = None

    def to_dict(self) -> dict:
        """JSON-serialisable form for audit export."""
        return {
            "query": self.query,
            "request_path": self.request_path,
            "client_id": self.client_id,
            "detected_by": sorted(t.value for t in self.verdict.detected_by()),
            "degraded": self.verdict.degraded,
            "failsafe": self.verdict.failsafe,
            "failure_reasons": list(self.verdict.failure_reasons),
            "detections": [
                {
                    "technique": d.technique.value,
                    "token": d.token_text,
                    "start": d.token_start,
                    "end": d.token_end,
                    "reason": d.reason,
                    "input": d.input_value,
                }
                for d in self.verdict.detections
            ],
        }


@dataclass
class EngineStats:
    """Aggregate counters for reporting.

    The last four are the degradation counters (DESIGN.md section 7):
    how often the runtime absorbed a fault instead of analysing normally.
    A healthy deployment shows zeros; anything else is the resilience
    layer earning its keep.

    Thread-safety: every mutation goes through :meth:`bump`, which applies
    all its deltas under one lock -- a snapshot taken by another thread
    (``resilience_counters``/``shape_counters``) therefore never observes a
    half-applied update, and no increment is ever lost to a read-modify-
    write race (DESIGN.md section 10).
    """

    queries_checked: int = 0
    attacks_blocked: int = 0
    nti_detections: int = 0
    pti_detections: int = 0
    nti_seconds: float = 0.0
    pti_seconds: float = 0.0
    #: Queries whose analysis ran past the per-query budget.
    deadline_exceeded: int = 0
    #: Queries refused by an open daemon circuit breaker.
    breaker_open: int = 0
    #: Verdicts produced with less than the full hybrid pipeline.
    degraded_verdicts: int = 0
    #: Queries blocked because analysis was unavailable (not detections).
    failsafe_blocks: int = 0
    #: Shape fast path (DESIGN.md "shape fast path"): queries fully served
    #: by a cached per-shape analysis plan ...
    shape_hits: int = 0
    #: ... whose skeleton had no cached plan (cold path taken) ...
    shape_misses: int = 0
    #: ... or where a plan existed but declined (lex drift, slot/token
    #: overlap, PTI recheck miss, deadline, analyzer error): cold path.
    shape_fallthroughs: int = 0
    #: Plans built and cached after clean, fully-safe cold analyses.
    shape_plans_built: int = 0
    #: Clean, fully-safe cold analyses of a shape's first sighting: the
    #: doorkeeper deferred admission, so no plan was built.
    shape_admissions_deferred: int = 0
    #: Shadow validation: sampled fast-path verdicts re-checked cold ...
    shadow_checks: int = 0
    #: ... and how many disagreed (must stay zero; cold verdict wins).
    shadow_divergences: int = 0
    #: Batched inspection (DESIGN.md section 11): ``inspect_batch`` calls ...
    batch_calls: int = 0
    #: ... queries that arrived inside them ...
    batch_queries: int = 0
    #: ... and how many ``analyze_batch`` daemon exchanges they issued
    #: (cold queries only; fast-path hits never reach the daemon).
    batch_daemon_batches: int = 0
    #: Internal counter lock (not a counter).
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def bump(self, **deltas: float) -> None:
        """Atomically apply counter deltas (e.g. ``bump(shape_hits=1)``).

        All deltas of one call commit under a single lock acquisition, so
        related counters (say ``degraded_verdicts`` + ``failsafe_blocks``)
        move together from any observer's point of view.
        """
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def resilience_counters(self) -> dict[str, int]:
        with self._lock:
            return {
                "deadline_exceeded": self.deadline_exceeded,
                "breaker_open": self.breaker_open,
                "degraded_verdicts": self.degraded_verdicts,
                "failsafe_blocks": self.failsafe_blocks,
            }

    def shape_counters(self) -> dict[str, int]:
        with self._lock:
            return {
                "shape_hits": self.shape_hits,
                "shape_misses": self.shape_misses,
                "shape_fallthroughs": self.shape_fallthroughs,
                "shape_plans_built": self.shape_plans_built,
                "shape_admissions_deferred": self.shape_admissions_deferred,
                "shadow_checks": self.shadow_checks,
                "shadow_divergences": self.shadow_divergences,
            }

    def batch_counters(self) -> dict[str, int]:
        with self._lock:
            return {
                "batch_calls": self.batch_calls,
                "batch_queries": self.batch_queries,
                "batch_daemon_batches": self.batch_daemon_batches,
            }


class JozaEngine:
    """Hybrid NTI + PTI query guard."""

    def __init__(
        self,
        store: FragmentStore,
        config: JozaConfig | None = None,
        *,
        daemon=None,
    ) -> None:
        self.config = config or JozaConfig()
        #: Any PTI backend with ``analyze_batch(queries, deadline) ->
        #: list[DaemonReply]`` and ``store`` works here (DESIGN.md section
        #: 11); benchmarks substitute a
        #: :class:`~repro.pti.daemon.SubprocessPTIDaemon` to measure the
        #: paper's deployment architecture.
        self.daemon = daemon if daemon is not None else PTIDaemon(
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
        #: Optional durable state (DESIGN.md section 15): when attached,
        #: attack-audit events are journaled through the ring's sink and
        #: the store's mutations hit the write-ahead journal, so a crash
        #: loses neither vocabulary nor forensics.
        self._durable = None
        #: Lazily-built in-process PTI fallback (FALLBACK_IN_PROCESS policy).
        self._fallback_daemon: PTIDaemon | None = None
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
        #: In-process PTI analyzer used for plan building and per-hit
        #: rechecks; bound to the daemon's current store object.
        self._shape_analyzer: PTIAnalyzer | None = None
        self._shape_store: FragmentStore | None = None
        self._shadow_seed = shape_cfg.shadow_seed
        self._shadow_rng = _random.Random(shape_cfg.shadow_seed)
        #: Guards the engine's lazily-built derived state: the shape
        #: store/analyzer pair (must swap together) and the in-process PTI
        #: fallback.  Held only for check-and-assign work, never across
        #: analysis (DESIGN.md section 10).
        self._state_lock = threading.RLock()

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
            if hasattr(engine.daemon, "refresh_fragments"):
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

            {"nti":   {"match": {...}, "filter": {...}},
             "pti":   {"query": {...}, "structure": {...}, "matcher": {...}},
             "shape": {"plans": {... incl. engine fast-path counters},
                       "pti_matcher": {... recheck analyzer counters}}}

        The ``matcher`` leaves carry the PTI matching-engine counters
        (comparisons, automaton builds/nodes, occurrence-index reuse, MRU
        prunes; DESIGN.md section 9) for the daemon's analyzer and for the
        shape fast path's recheck analyzer respectively.

        Each cache leaf is its :class:`~repro.pti.caches.EpochLRU`
        reading (``hits`` / ``misses`` / ``hit_rate`` / ``entries`` /
        ``capacity`` / ``invalidations`` / ``insertions`` / ``stale_puts``
        / ``epoch``, floats by the bench-reporting convention).
        ``nti.match`` is the per-query NTI cache and counts per query (see
        :meth:`~repro.nti.inference.NTIAnalyzer.cache_stats`); ``nti.filter``
        holds the prefilter counters.  PTI entries appear only when
        the daemon object exposes its caches (the in-process
        :class:`~repro.pti.daemon.PTIDaemon` does; a subprocess daemon's
        caches live in the child and are not remotely introspectable).
        """
        out: dict[str, dict[str, dict[str, float]]] = {
            "nti": self.nti.cache_stats()
        }
        pti: dict[str, dict[str, float]] = {}
        for name in ("query", "structure"):
            cache = getattr(self.daemon, f"{name}_cache", None)
            if cache is not None:
                pti[name] = cache.snapshot_stats()
        analyzer = getattr(self.daemon, "analyzer", None)
        matcher_stats = getattr(analyzer, "matcher_stats", None)
        if callable(matcher_stats):
            pti["matcher"] = matcher_stats()
        out["pti"] = pti
        if self.shape_cache is not None:
            plans = self.shape_cache.snapshot_stats()
            plans.update(
                (key, float(value))
                for key, value in self.stats.shape_counters().items()
            )
            shape: dict[str, dict[str, float]] = {"plans": plans}
            if self._shape_analyzer is not None:
                shape["pti_matcher"] = self._shape_analyzer.matcher_stats()
            out["shape"] = shape
        out["batching"] = {
            "calls": {
                key: float(value)
                for key, value in self.stats.batch_counters().items()
            }
        }
        tenancy = getattr(self.store, "tenancy_stats", None)
        if callable(tenancy):
            stats = tenancy()
            out["tenancy"] = {
                "fragments": {
                    "total": float(stats["fragments"]),
                    "interned": float(stats["interned_fragments"]),
                    "private": float(stats["private_fragments"]),
                    "epoch": float(stats["epoch"]),
                    "detached": 1.0 if stats["private"] else 0.0,
                }
            }
        return out

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def _fallback_pti(self) -> PTIDaemon | None:
        """The in-process PTI fallback, if a fragment store is reachable."""
        with self._state_lock:
            if self._fallback_daemon is None:
                store = getattr(self.daemon, "store", None)
                if store is None:  # pragma: no cover - store-less daemon
                    return None
                self._fallback_daemon = PTIDaemon(store, self.config.daemon)
            return self._fallback_daemon

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
        per :class:`~repro.core.resilience.FailurePolicy` into a fail-closed
        or degraded verdict.  A query is never vouched safe by a technique
        that did not actually run.

        Shape fast path: when enabled, the query's literal-masked skeleton
        is looked up in the plan cache first.  A hit replays the cached
        analysis (PTI structure coverage pre-proven, NTI over prefiltered
        inputs) without touching the daemon; any doubt falls through to the
        cold path.  Only clean, fully-safe cold analyses plant plans, and
        only on a shape's second sighting (see :meth:`_maybe_plant_plan`).

        The per-query work is :meth:`_shape_step` and :meth:`_cold_step`,
        shared with :meth:`inspect_batch`; only the fixed costs differ (no
        batch counters, no candidate memo).
        """
        self.stats.bump(queries_checked=1)
        if deadline is None:
            deadline = self.config.resilience.start_deadline()
        skeleton = analyzer = None
        epoch0 = -1
        if self.shape_cache is not None:
            t0 = time.perf_counter()
            epoch0, analyzer = self._shape_state()
            if analyzer is not None:
                verdict, skeleton = self._shape_step(
                    query, context, deadline, epoch0, analyzer, t0
                )
                if verdict is not None:
                    return verdict
        outcome = self._call_daemon_batch([query], deadline)[0]
        return self._cold_step(
            query, context, deadline, outcome, skeleton, epoch0, analyzer
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
          store mutation racing the batch makes affected lookups miss and
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
        exchange resolves every cold query of the batch through the same
        :class:`~repro.core.resilience.FailurePolicy` machinery as a single
        query -- a recorded failsafe block or flagged degraded verdict,
        never a silent pass.  One deadline bounds the whole batch.
        """
        queries = list(queries)
        if not queries:
            return []
        self.stats.bump(
            queries_checked=len(queries),
            batch_calls=1,
            batch_queries=len(queries),
        )
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
        if self.shape_cache is not None:
            t0 = time.perf_counter()
            epoch0, analyzer = self._shape_state()
            self.stats.bump(pti_seconds=time.perf_counter() - t0)
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
                [queries[index] for index in cold], deadline
            )
            if self.config.enable_pti:
                self.stats.bump(batch_daemon_batches=1)
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
    ) -> tuple[QueryVerdict | None, Skeleton | None]:
        """One query's fast path: skeleton, plan lookup, replay, shadow.

        Returns ``(verdict, skeleton)``; a ``None`` verdict means the cold
        step must analyse the query, planting a plan under ``skeleton``
        (``None`` if skeletonizing failed).  ``t0`` starts the lookup's
        ``pti_seconds`` attribution, which rides the one counter bump that
        records the outcome (hit, miss or fall-through).  ``candidates``
        is ``inspect_batch``'s candidate memo; ``None`` enumerates per
        query, as ``inspect`` does.
        """
        skeleton = plan = None
        try:
            skeleton = skeletonize(query)
            plan = self.shape_cache.get(skeleton.key, epoch0)
        except (KeyboardInterrupt, SystemExit):  # pragma: no cover
            raise
        except Exception:  # pragma: no cover - defensive: fast path is
            plan = None  # best-effort; the cold path is always correct.
        lookup = time.perf_counter() - t0
        if plan is None:
            self.stats.bump(pti_seconds=lookup, shape_misses=1)
            return None, skeleton
        verdict = self._apply_plan(
            plan, skeleton, query, context, deadline, analyzer, candidates
        )
        if verdict is None:
            self.stats.bump(pti_seconds=lookup, shape_fallthroughs=1)
            return None, skeleton
        self.stats.bump(pti_seconds=lookup, shape_hits=1)
        shadow = self._shadow_validate(query, context, verdict)
        return (verdict if shadow is None else shadow), skeleton

    def _call_daemon_batch(
        self, queries: list[str], deadline: Deadline
    ) -> list:
        """One daemon exchange, as per-query PTI outcomes.

        The only call the engine makes into its PTI backend: the whole list
        goes to ``analyze_batch`` under one deadline.  Each outcome is the
        query's :class:`~repro.pti.daemon.DaemonReply` or, when the exchange
        failed, the exception -- the batch succeeds or fails closed *as a
        unit*, and ``_inspect_cold`` re-raises the failure per query so the
        policy resolution applies unchanged.  ``None`` outcomes mean PTI is
        disabled.
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
            return [exc] * len(queries)
        finally:
            self.stats.bump(pti_seconds=time.perf_counter() - t0)
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
    ) -> QueryVerdict:
        """One query's cold path: resolve its daemon outcome, then plant."""
        verdict, tokens = self._inspect_cold(
            query, context, deadline, outcome, candidates
        )
        if skeleton is not None:
            self._maybe_plant_plan(
                query, skeleton, epoch0, analyzer, verdict, tokens
            )
        return verdict

    # ------------------------------------------------------------------
    # Shape fast path internals
    # ------------------------------------------------------------------

    def _shape_state(self) -> tuple[int, PTIAnalyzer | None]:
        """Pinned store epoch + the plan analyzer bound to the store.

        ``(-1, None)`` when the daemon exposes no store (or on an internal
        error): the query takes the cold path without touching the cache.

        Guards both invalidation axes: a *swapped* store object (daemon
        ``refresh_fragments``) flushes the cache outright -- epochs of
        distinct stores are incomparable -- while *in-place* epoch bumps
        are handled by the analyzer's own staleness guard (MRU prune,
        automaton recompile, occurrence-memo drop; see
        :meth:`~repro.pti.inference.PTIAnalyzer.cover_token_witness`).
        The cache itself syncs on the epoch at get/put time.  The epoch is
        pinned *before* analysis: the same value keys the lookup and any
        later plant, so a store mutation racing the cold path makes the
        plant stale (refused by ``ShapeCache.put``) instead of tagging an
        old-vocabulary plan with the new epoch.
        """
        try:
            with self._state_lock:
                # Read the daemon's store pointer *inside* the lock: reading
                # it first and locking second would let a concurrent
                # ``refresh_fragments`` swap in a newer store between the
                # two, and this thread would then re-install the older one
                # -- plans planted against a superseded vocabulary are
                # stale trust.
                store = getattr(self.daemon, "store", None)
                if store is None:  # pragma: no cover - store-less daemon
                    return -1, None
                if store is not self._shape_store:
                    self._shape_store = store
                    self._shape_analyzer = PTIAnalyzer(
                        store, self.config.daemon.pti
                    )
                    self.shape_cache.clear()
                return store.epoch, self._shape_analyzer
        except (KeyboardInterrupt, SystemExit):  # pragma: no cover
            raise
        except Exception:  # pragma: no cover - defensive: fast path is
            return -1, None  # best-effort; the cold path is always correct.

    def _apply_plan(
        self,
        plan: ShapePlan,
        skeleton: Skeleton,
        query: str,
        context: RequestContext,
        deadline,
        analyzer: PTIAnalyzer,
        candidates=None,
    ) -> QueryVerdict | None:
        """Replay a cached plan on one query instance; ``None`` = fall through.

        Fast-path time is attributed to the same ``pti_seconds`` /
        ``nti_seconds`` buckets as the cold path so overhead accounting
        (``attributed_overhead_pct``) stays comparable across modes.
        ``candidates`` optionally supplies the NTI candidate-input
        enumeration (``inspect_batch``'s per-length memo); ``None`` means
        enumerate per query, exactly as the serial path does.
        """
        t0 = time.perf_counter()
        try:
            deadline.check("shape-pti")
            # Trusted instantiation: the plan was looked up by this query's
            # own skeleton key, so spans/tokens are memoised on slot
            # lengths (see ShapePlan.instantiate_trusted).
            spans, tokens = plan.instantiate_trusted(query, skeleton.slots)
            if spans is None:
                return None
            # Tokens whose build-time coverage witness crossed a literal
            # slot: coverage depends on this instance's literals, re-prove
            # it.  The stored witness usually re-occurs at the same
            # token-relative offset (one verbatim startswith); only misses
            # pay the fragment search -- and under the automaton matcher
            # all misses of one query share a single streaming pass via
            # the analyzer's occurrence-index memo.
            for index in witness_misses(query, plan.recheck_witnesses, tokens):
                if analyzer.cover_token_witness(query, tokens[index]) is None:
                    return None
            pti_result = AnalysisResult(
                technique=Technique.PTI, safe=True, from_cache="shape"
            )
        except (KeyboardInterrupt, SystemExit):  # pragma: no cover
            raise
        except Exception:
            return None
        finally:
            self.stats.bump(pti_seconds=time.perf_counter() - t0)

        t0 = time.perf_counter()
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
            return None
        finally:
            self.stats.bump(nti_seconds=time.perf_counter() - t0)

        if not nti_result.safe:
            self.stats.bump(nti_detections=1)
        return QueryVerdict(
            query=query,
            safe=nti_result.safe,
            pti=pti_result,
            nti=nti_result,
        )

    def _maybe_plant_plan(
        self,
        query: str,
        skeleton: Skeleton,
        epoch0: int,
        analyzer: PTIAnalyzer,
        verdict: QueryVerdict,
        tokens,
    ) -> None:
        """Plant a shape plan after a clean cold analysis (best-effort).

        Only a shape's second clean sighting within the cache's doorkeeper
        window builds a plan (:meth:`ShapeCache.admit`); a first sighting
        is counted as a deferred admission.  ``epoch0`` is the epoch pinned
        *before* the analysis ran; the cache refuses the put if the store
        has moved on since (stale trust), which is exactly the
        mid-batch-mutation guarantee ``inspect_batch`` relies on.
        """
        if tokens is None or not self._plan_cacheable(verdict):
            return
        cache = self.shape_cache
        if cache is None:
            return
        if not cache.admit(skeleton.key):
            self.stats.bump(shape_admissions_deferred=1)
            return
        t0 = time.perf_counter()
        try:
            new_plan = build_plan(query, skeleton, tokens, analyzer)
            if new_plan is not None:
                cache.put(skeleton.key, new_plan, epoch0)
                self.stats.bump(shape_plans_built=1)
        except (KeyboardInterrupt, SystemExit):  # pragma: no cover
            raise
        except Exception:  # pragma: no cover - defensive
            pass
        finally:
            self.stats.bump(pti_seconds=time.perf_counter() - t0)

    @staticmethod
    def _plan_cacheable(verdict: QueryVerdict) -> bool:
        """Only clean, fully-safe hybrid verdicts may plant a plan.

        Unsafe shapes are never cached (coverage gaps are not a shape
        property); degraded/failsafe verdicts reflect faults, not analysis.
        """
        return (
            verdict.safe
            and not verdict.degraded
            and not verdict.failsafe
            and not verdict.failure_reasons
            and verdict.pti is not None
            and verdict.pti.safe
            and verdict.nti is not None
            and verdict.nti.safe
        )

    def _shadow_validate(
        self, query: str, context: RequestContext, fast: QueryVerdict
    ) -> QueryVerdict | None:
        """Sampled cold re-run of a fast-path verdict (correctness monitor).

        Returns ``None`` when not sampled or in agreement; on divergence the
        counter is bumped and the *cold* verdict is returned (trust the
        reference pipeline).  The cold re-run's time lands in the usual
        stat buckets, so shadowing visibly costs what it costs.

        Sampling determinism: with ``shadow_seed`` set, the decision is a
        pure function of ``(seed, query)`` -- a CRC32-derived uniform in
        ``[0, 1)`` -- so whether a given query is shadowed does not depend
        on thread interleaving or ``PYTHONHASHSEED`` (the concurrency chaos
        harness relies on this for serial == concurrent replay).  Without a
        seed, the shared RNG is sampled under the state lock.
        """
        rate = self.config.shape.shadow_rate
        if rate <= 0.0:
            return None
        if self._shadow_seed is not None:
            digest = zlib.crc32(
                query.encode("utf-8", "surrogatepass"),
                self._shadow_seed & 0xFFFFFFFF,
            )
            sample = digest / 4294967296.0
        else:
            with self._state_lock:
                sample = self._shadow_rng.random()
        if sample >= rate:
            return None
        self.stats.bump(shadow_checks=1)
        deadline = self.config.resilience.start_deadline()
        cold, _ = self._inspect_cold(
            query,
            context,
            deadline,
            self._call_daemon_batch([query], deadline)[0],
        )
        if cold.safe == fast.safe and cold.detected_by() == fast.detected_by():
            return None
        self.stats.bump(shadow_divergences=1)
        return cold

    def _inspect_cold(
        self,
        query: str,
        context: RequestContext,
        deadline,
        pti_outcome,
        candidates=None,
    ) -> tuple[QueryVerdict, list | None]:
        """The reference pipeline: the daemon's PTI result + an NTI run.

        Returns the verdict plus the critical-token list (when one was
        produced) so the caller can plant a shape plan.

        ``pti_outcome`` is this query's entry from
        :meth:`_call_daemon_batch` -- the daemon is never called from
        here.  A reply is used as is; a captured failure is re-raised
        *inside* the ``try`` block below, so every failure class (deadline,
        typed PTI failure, unexpected exception) flows through
        exactly the per-query resolution logic, whether the exchange
        carried one query or a batch.  ``candidates`` (a ``query ->
        list[str]`` callable) lets the batch reuse one memoised NTI
        candidate enumeration; ``None`` keeps the analyzer's own.
        """
        policy = self.config.resilience.failure_policy
        failure_reasons: list[str] = []
        degraded = False

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
                self.stats.bump(deadline_exceeded=1)
                failure_reasons.append(f"pti: {exc}")
                pti_failed = True
            except PTIFailure as exc:
                if isinstance(exc, DaemonUnavailable) and exc.breaker_open:
                    self.stats.bump(breaker_open=1)
                failure_reasons.append(f"pti: {exc.reason}")
                pti_failed = True
            except (KeyboardInterrupt, SystemExit):  # pragma: no cover
                raise
            except Exception as exc:
                # A non-resilient daemon object leaked a raw error (pipe
                # breakage, analyzer bug).  Absorb it: the failure policy
                # decides the verdict, never the exception.
                failure_reasons.append(f"pti: unexpected {exc!r}")
                pti_failed = True
            if pti_failed and policy is FailurePolicy.FALLBACK_IN_PROCESS:
                fallback = self._fallback_pti()
                if fallback is not None:
                    t0 = time.perf_counter()
                    try:
                        deadline.check("pti-fallback")
                        reply = fallback.analyze_batch([query], deadline)[0]
                        pti_result = reply.result
                        tokens = reply.tokens
                        pti_failed = False
                        degraded = True  # fault isolation lost: flag it
                    except DeadlineExceeded as exc:
                        self.stats.bump(deadline_exceeded=1)
                        failure_reasons.append(f"pti-fallback: {exc}")
                    except (KeyboardInterrupt, SystemExit):  # pragma: no cover
                        raise
                    except Exception as exc:  # pragma: no cover - defensive
                        failure_reasons.append(f"pti-fallback: {exc!r}")
                    finally:
                        self.stats.bump(pti_seconds=time.perf_counter() - t0)

        nti_result: AnalysisResult | None = None
        nti_failed = False
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
                self.stats.bump(deadline_exceeded=1)
                failure_reasons.append(f"nti: {exc}")
                nti_failed = True
            except (KeyboardInterrupt, SystemExit):  # pragma: no cover
                raise
            except Exception as exc:
                failure_reasons.append(f"nti: unexpected {exc!r}")
                nti_failed = True
            finally:
                self.stats.bump(nti_seconds=time.perf_counter() - t0)

        # ------------------------------------------------------------------
        # Failure resolution (never fail open).
        # ------------------------------------------------------------------
        failsafe = False
        if pti_failed or nti_failed:
            survivor = nti_result if pti_failed else pti_result
            can_degrade = (
                policy is FailurePolicy.DEGRADE_TO_OTHER_TECHNIQUE
                and not (pti_failed and nti_failed)
                and survivor is not None
            )
            if can_degrade:
                degraded = True
            else:
                failsafe = True

        safe = (
            not failsafe
            and (pti_failed or pti_result is None or pti_result.safe)
            and (nti_failed or nti_result is None or nti_result.safe)
        )
        verdict = QueryVerdict(
            query=query,
            safe=safe,
            pti=None if pti_failed else pti_result,
            nti=None if nti_failed else nti_result,
            degraded=degraded,
            failsafe=failsafe,
            failure_reasons=failure_reasons,
        )
        if not pti_failed and pti_result is not None and not pti_result.safe:
            self.stats.bump(pti_detections=1)
        if not nti_failed and nti_result is not None and not nti_result.safe:
            self.stats.bump(nti_detections=1)
        if degraded:
            self.stats.bump(degraded_verdicts=1)
        if failsafe:
            self.stats.bump(failsafe_blocks=1)
        return verdict, tokens

    # ------------------------------------------------------------------
    # QueryGuard interface (enforcement)
    # ------------------------------------------------------------------

    def check_query(self, query: str, context: RequestContext) -> None:
        """Vet one intercepted query; raises on attack (QueryGuard protocol).

        Failsafe blocks (analysis unavailable, fail-closed policy) raise
        the same :class:`QueryBlockedError` as detections -- the query must
        not execute either way -- but are logged with the ``failsafe`` flag
        and counted separately from ``attacks_blocked``.
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

    def record_block(
        self,
        verdict: QueryVerdict,
        request_path: str,
        client_id: str | None = None,
    ) -> None:
        """Log one blocked verdict to the audit ring.

        Detections also count in ``attacks_blocked``; failsafe blocks are
        logged with their flag but not counted as attacks.  ``client_id``
        attributes the block to a gateway client or tenant.
        """
        if verdict.detected_by():
            self.stats.bump(attacks_blocked=1)
        self.attack_log.append(
            AttackRecord(
                query=verdict.query,
                verdict=verdict,
                request_path=request_path,
                client_id=client_id,
            )
        )

    def attach_durability(self, durable) -> None:
        """Bind a :class:`~repro.persist.DurableState` to this engine.

        Attack records appended to the audit ring are journaled through
        the ring's persistence sink (so eviction stops meaning lost
        evidence), and ``resilience_report()`` grows a ``durability``
        section.  Passing ``None`` detaches.
        """
        self._durable = durable
        if durable is None:
            self.attack_log.attach_sink(None)
            return

        def _persist(record) -> None:
            event = record.to_dict() if hasattr(record, "to_dict") else dict(record)
            durable.append_audit(event)

        self.attack_log.attach_sink(_persist)

    def resilience_report(self) -> dict:
        """Degradation counters + daemon fault-absorption stats.

        The operator-facing view of the failure model: how many queries hit
        the deadline, were refused by an open breaker, got a degraded
        verdict or a failsafe block, and how many audit records the bounded
        ring buffer had to drop.  Zeros across the board mean the runtime
        never had to absorb a fault.
        """
        report: dict = dict(self.stats.resilience_counters())
        report["shape_fastpath"] = self.stats.shape_counters()
        report["shadow_sampling"] = {
            "rate": self.config.shape.shadow_rate,
            "seed": self._shadow_seed,
            "deterministic": self._shadow_seed is not None,
        }
        report["batching"] = self.stats.batch_counters()
        report["dropped_records"] = self.attack_log.dropped_records
        report["attack_log_capacity"] = self.attack_log.capacity
        report["failure_policy"] = self.config.resilience.failure_policy.value
        report["deadline_seconds"] = self.config.resilience.deadline_seconds
        filter_stats = getattr(self.nti, "filter_stats", None)
        if callable(filter_stats):
            # NTI prefilter effectiveness (seeds probed, prune rates,
            # anchored-window coverage); guarded because tests install
            # stand-in analyzers without the counters.
            report["nti_filter"] = filter_stats()
        snapshot = getattr(self.daemon, "resilience_snapshot", None)
        if callable(snapshot):
            report["daemon"] = snapshot()
        tenancy = getattr(self.store, "tenancy_stats", None)
        if callable(tenancy):
            # Engine over a TenantStore: report which fragments are
            # fleet-interned vs tenant-private and the store's epoch
            # (DESIGN.md section 13); registry-wide counters live in the
            # gateway/registry report.
            report["tenancy"] = tenancy()
        if self._durable is not None:
            # Durable state attached (DESIGN.md section 15): journal and
            # checkpoint counters, replay stats, and how much of the audit
            # ring's churn is backed by the journal vs actually lost.
            durability = dict(self._durable.durability_report())
            # ``audit_persisted`` (journal-level) comes from the durable
            # state; the ring counters qualify the in-memory log's churn.
            durability["audit_drops_recovered"] = self.attack_log.drops_recovered
            durability["audit_sink_failures"] = self.attack_log.sink_failures
            report["durability"] = durability
        return report

    def export_attack_log(self) -> str:
        """The attack log as a JSON document (operator audit trail)."""
        import json

        return json.dumps(
            {
                "application_stats": {
                    "queries_checked": self.stats.queries_checked,
                    "attacks_blocked": self.stats.attacks_blocked,
                    "nti_detections": self.stats.nti_detections,
                    "pti_detections": self.stats.pti_detections,
                    "nti_caches": self.cache_stats()["nti"],
                    "resilience": self.resilience_report(),
                },
                "attacks": [record.to_dict() for record in self.attack_log],
            },
            indent=2,
        )
