"""The directory service: the integration layer a deployment would run.

Everything the repository builds, behind one LDAP-shaped interface:

- **bind** -- associate a connection with a subject (authentication is a
  lookup of the subject's ``userPassword``-style credential attribute, or
  anonymous);
- **search** -- any L0--L3 query (the paper's syntax, a builder object or
  an AST), honouring access control, a size limit and paged retrieval;
- **compare** -- LDAP's attribute-value assertion on one entry;
- **add / delete / modify** -- mutations through the differential update
  log (visible to the next search at once; folded into the master run by
  threshold maintenance, never by a read);
- result codes in the style of LDAP (success, noSuchObject,
  sizeLimitExceeded, insufficientAccessRights, ...).

The service owns an :class:`~repro.storage.maintenance.UpdatableDirectory`
and never folds its overlay on a read: every evaluation gets its own
engine over its own pinned view -- master run and pending overlay merged
in one sorted co-scan -- so searches keep their I/O bounds and concurrent
searches share no per-run state.

Every read -- :meth:`~DirectoryService.search` on any of its exits and
:meth:`~DirectoryService.search_paged` -- goes through one pipeline
(``_serve``) that fills one :class:`~repro.obs.event.SearchEvent` and
publishes it to a flat list of sinks fixed at construction: observability
is one loop over callables, not a per-sink hand-off.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

import time

from ..cache import (
    IncrementalCacheMaintainer,
    QueryCache,
    fingerprint,
    query_footprint,
)
from ..engine.engine import QueryEngine
from ..engine.optimizer import PlannedEngine
from ..engine.stats import LiveDirectoryStatistics
from ..model.dn import DN
from ..model.entry import Entry
from ..model.instance import DirectoryInstance
from ..obs.alerts import AlertEngine, AlertRule, default_rules
from ..obs.budget import BudgetExceeded
from ..obs.digest import QueryDigestTable
from ..obs.event import SearchEvent
from ..obs.heatmap import SubtreeHeatMap
from ..obs.httpd import AdminServer
from ..obs.log import NULL_LOGGER
from ..obs.metrics import get_registry
from ..obs.slowlog import SlowQueryLog
from ..obs.trace import NULL_TRACER
from ..query.ast import Query
from ..query.builder import QueryBuilder
from ..query.parser import parse_query
from ..security import AccessControlList
from ..storage.maintenance import StoreView, UpdatableDirectory, UpdateError
from ..txn.agent import MaintenanceAgent
from ..txn.durable import DurableDirectory

__all__ = ["DirectoryService", "ResultCode", "SearchResult", "ServiceError"]


class ResultCode:
    """LDAP-style result codes."""

    SUCCESS = "success"
    NO_SUCH_OBJECT = "noSuchObject"
    SIZE_LIMIT_EXCEEDED = "sizeLimitExceeded"
    INSUFFICIENT_ACCESS = "insufficientAccessRights"
    INVALID_CREDENTIALS = "invalidCredentials"
    ENTRY_ALREADY_EXISTS = "entryAlreadyExists"
    UNWILLING_TO_PERFORM = "unwillingToPerform"
    COMPARE_TRUE = "compareTrue"
    COMPARE_FALSE = "compareFalse"
    PROTOCOL_ERROR = "protocolError"
    #: A query cancelled by its resource budget (LDAP's code for a
    #: server-imposed administrative limit).
    ADMIN_LIMIT_EXCEEDED = "adminLimitExceeded"


class ServiceError(RuntimeError):
    """Raised for protocol misuse (e.g. operations before bind when the
    service requires authentication)."""


class SearchResult:
    """One search's outcome: entries plus a result code.

    ``total_size`` counts the entries *visible to the bound subject*
    before any size limit -- the post-ACL semantics, applied uniformly to
    the limited and unlimited paths.  ``cached``/``saved_io`` report
    whether the semantic query cache served the search and how much
    logical page I/O that avoided.  ``warnings`` carries degradation
    notes when the service fronts a federation (stale sublists, replica
    failovers, missing servers); an empty list is a clean answer.
    ``budget_error`` holds the structured
    :class:`~repro.obs.budget.BudgetExceeded` when the search was
    cancelled by its resource budget (code ``adminLimitExceeded``).
    """

    def __init__(
        self,
        code: str,
        entries: List[Entry],
        total_size: Optional[int] = None,
        cached: bool = False,
        saved_io: int = 0,
        warnings: Optional[List[str]] = None,
        budget_error: Optional[BudgetExceeded] = None,
    ):
        self.code = code
        self.entries = entries
        self.total_size = total_size if total_size is not None else len(entries)
        self.cached = cached
        self.saved_io = saved_io
        self.warnings = list(warnings or [])
        self.budget_error = budget_error

    def dns(self) -> List[str]:
        return [str(entry.dn) for entry in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return "SearchResult(%s, %d entries)" % (self.code, len(self.entries))


class DirectoryService:
    """One logical directory server."""

    def __init__(
        self,
        instance: Optional[DirectoryInstance],
        acl: Optional[AccessControlList] = None,
        credential_attribute: str = "userPassword",
        page_size: int = 16,
        buffer_pages: int = 8,
        cache_bytes: int = 512 * 1024,
        tracer=None,
        metrics=None,
        slow_query_seconds: Optional[float] = None,
        log=None,
        budget=None,
        durable_dir: Optional[str] = None,
        wal_fsync: bool = False,
        planner: str = "cost",
        digest_capacity: int = 256,
        heatmap_depth: int = 2,
    ):
        #: Span tracer for per-search phase timing and I/O attribution
        #: (disabled -- and free -- by default).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The metrics registry this service reports into (the process-wide
        #: default unless an isolated one is supplied).
        self.metrics = metrics if metrics is not None else get_registry()
        #: Structured event logger (see :mod:`repro.obs.log`); the no-op
        #: default writes nothing and costs one attribute read per guard.
        self.log = log if log is not None else NULL_LOGGER
        #: Service-wide default :class:`~repro.obs.budget.QueryBudget`
        #: applied to every search (per-call budgets override it); None
        #: means unlimited.
        self.budget = budget
        #: The ring of slow (past ``slow_query_seconds``), degraded and
        #: budget-breached searches behind ``/slowlog`` and ``/traces``
        #: (None disables it).
        self.slow_queries = SlowQueryLog(slow_query_seconds)
        if durable_dir is not None:
            #: Checkpoint + WAL on disk: every acknowledged mutation
            #: survives a crash; recovery replays on open.
            self.directory: UpdatableDirectory = DurableDirectory.open(
                durable_dir,
                instance,
                page_size=page_size,
                buffer_pages=buffer_pages,
                fsync=wal_fsync,
                metrics=self.metrics,
                log=self.log,
            )
        else:
            if instance is None:
                raise ValueError("instance is required without a durable_dir")
            self.directory = UpdatableDirectory.from_instance(
                instance,
                page_size=page_size,
                buffer_pages=buffer_pages,
                metrics=self.metrics,
                log=self.log,
            )
        self._m_search_seconds = self.metrics.histogram(
            "repro_search_seconds", "Search latency, end to end"
        )
        self._m_result_entries = self.metrics.histogram(
            "repro_search_result_entries",
            "Visible result size per search",
            buckets=(0, 1, 10, 100, 1_000, 10_000, 100_000),
        )
        self._m_searches = self.metrics.counter(
            "repro_searches_total", "Searches served", labelnames=("code",)
        )
        self._m_cache_lookups = self.metrics.counter(
            "repro_cache_lookups_total",
            "Semantic-cache lookups",
            labelnames=("outcome",),
        )
        self._m_slow = self.metrics.counter(
            "repro_slow_queries_total", "Searches over the slow-query threshold"
        )
        self._m_buffer_hit_rate = self.metrics.gauge(
            "repro_buffer_hit_rate",
            "Buffer-pool hit rate of the storage pager (lifetime)",
        )
        self._m_search_io = self.metrics.histogram(
            "repro_search_logical_io",
            "Logical page I/O per uncached search",
            buckets=(1, 10, 100, 1_000, 10_000, 100_000),
        )
        self._m_degraded = self.metrics.counter(
            "repro_degraded_searches_total",
            "Searches answered with degradation warnings",
        )
        self._m_budget_exceeded = self.metrics.counter(
            "repro_budget_exceeded_total",
            "Searches cancelled by a resource budget",
            labelnames=("resource",),
        )
        if planner not in ("cost", "none"):
            raise ValueError("planner must be 'cost' or 'none'")
        #: ``"cost"`` (default) gives each search's engine a planner --
        #: rewrites, cost-ordered operands, live statistics, per-run
        #: Q-error -- while ``"none"`` gives it none: the paper-literal
        #: :class:`~repro.engine.engine.QueryEngine`.
        self.planner = planner
        #: Statistics that track the directory through its record and
        #: compaction listeners (only maintained when planning).
        self._live_stats: Optional[LiveDirectoryStatistics] = (
            LiveDirectoryStatistics(self.directory, metrics=self.metrics)
            if planner == "cost"
            else None
        )
        #: Default-open when no ACL is supplied.  (``is None``: a rule-free
        #: ACL is falsy, and a closed one must stay closed.)
        self.acl = acl if acl is not None else AccessControlList(default_allow=True)
        self.credential_attribute = credential_attribute
        self._bound_subject: Optional[str] = None
        self._maintenance: Optional[MaintenanceAgent] = None
        #: Semantic query cache over *pre-ACL* results; visibility is
        #: re-filtered per bound subject on every hit.  ``cache_bytes=0``
        #: disables caching.
        self.cache: Optional[QueryCache] = (
            QueryCache(byte_budget=cache_bytes, log=self.log) if cache_bytes else None
        )
        #: Keeps the cache current from the directory's change records:
        #: touched L0 residents are patched in place, the rest evicted.
        self._maintainer: Optional[IncrementalCacheMaintainer] = (
            IncrementalCacheMaintainer(
                self.directory, self.cache, metrics=self.metrics
            )
            if self.cache is not None
            else None
        )
        #: (federation, coordinator name) once :meth:`attach_federation`
        #: makes this service a federation frontend.
        self._federation: Optional[Tuple[Any, str]] = None
        #: (replicated context, lag alert threshold) once
        #: :meth:`attach_replication` puts this service in front of a
        #: replication group.
        self._replication: Optional[Tuple[Any, int]] = None
        #: Per-query-shape workload digest (pg_stat_statements style),
        #: populated by every finished search; ``digest_capacity=0``
        #: disables it.
        self.digest: Optional[QueryDigestTable] = (
            QueryDigestTable(capacity=digest_capacity) if digest_capacity else None
        )
        #: EWMA-decayed load over reversed-DN subtree prefixes, fed from
        #: engine atomic leaves (reads + pages) and committed mutations
        #: (writes); ``heatmap_depth=0`` disables it.  A federation
        #: attached via :meth:`attach_federation` feeds its shipped-entry
        #: counts in as well when constructed with the same map.
        self.heatmap: Optional[SubtreeHeatMap] = (
            SubtreeHeatMap(depth=heatmap_depth) if heatmap_depth else None
        )
        self._heat_listener = None
        if self.heatmap is not None:
            heat = self.heatmap
            self._heat_listener = lambda record: heat.record_write(record.dn)
            self.directory.add_record_listener(self._heat_listener)
        #: Alert rules over :attr:`metrics` (:meth:`attach_alerts`).
        self.alerts: Optional[AlertEngine] = None
        #: What every finished search's :class:`SearchEvent` is handed to,
        #: in order, fixed here from what is enabled.  The slow-query ring
        #: goes first: it owns the threshold, so it is what marks an event
        #: ``slow`` for the sinks after it.
        self._sinks = []
        if self.slow_queries.enabled:
            self._sinks.append(self.slow_queries.record)
        self._sinks.append(self._count)
        if self.digest is not None:
            self._sinks.append(self.digest.observe)
        if self.log.enabled:
            self._sinks.append(self._log_search)

    # -- federation frontend ------------------------------------------------

    def attach_federation(self, federation, at: str) -> None:
        """Serve searches from a federation, issued at server ``at``.

        The service becomes the deployment's frontend: reads evaluate
        distributedly (through the federation's leaf cache, retries and
        degradation ladder) while binds, compares and mutations keep using
        the locally held directory.  Degradation warnings surface on every
        :class:`SearchResult` and in the slow-query log, and degraded
        searches are counted in ``repro_degraded_searches_total``.
        """
        if at not in federation.servers:
            raise KeyError(at)
        self._federation = (federation, at)
        if federation.heatmap is None and self.heatmap is not None:
            # The frontend's heat map doubles as the federation's: remote
            # shipping lands in the same per-subtree cells as local reads.
            federation.heatmap = self.heatmap

    def attach_replication(self, replicated, lag_alert: int = 8) -> None:
        """Surface a :class:`~repro.dist.replication.ReplicatedContext`
        through this service's admin plane: ``/healthz`` carries the
        group's epoch and per-replica acked lsn / lag, and the service
        reports ``status: degraded`` while any replica lags more than
        ``lag_alert`` records behind the primary (or needs a resync)."""
        if lag_alert < 0:
            raise ValueError("lag_alert must be non-negative")
        self._replication = (replicated, lag_alert)

    # -- connection state --------------------------------------------------

    def bind(self, subject_dn: Union[DN, str], credential: str) -> str:
        """Simple bind: compare the credential against the subject entry's
        credential attribute.  Returns a result code; on success the
        connection is bound to the subject (its dn string)."""
        if isinstance(subject_dn, str):
            subject_dn = DN.parse(subject_dn)
        entry = self.directory.lookup(subject_dn)
        if entry is None:
            return ResultCode.NO_SUCH_OBJECT
        stored = [str(v) for v in entry.values(self.credential_attribute)]
        if credential not in stored:
            return ResultCode.INVALID_CREDENTIALS
        self._bound_subject = str(subject_dn)
        return ResultCode.SUCCESS

    def bind_anonymous(self) -> str:
        self._bound_subject = None
        return ResultCode.SUCCESS

    @property
    def bound_subject(self) -> Optional[str]:
        return self._bound_subject

    # -- read operations -----------------------------------------------------

    def _pinned_engine(self) -> Tuple[QueryEngine, StoreView]:
        """A fresh engine over a *caller-owned* pinned view.  The engine
        reads through the view -- master run and pending overlay merged
        as of the view's lsn -- so no read waits for maintenance; the pin
        keeps a concurrent compaction from freeing the run's pages under
        the scan, and the engine's per-run state (budget tracker, skip
        counts, Q-error) belongs to this one evaluation.  Close the
        returned view when the evaluation is done."""
        view = self.directory.acquire_view()
        options = dict(tracer=self.tracer, log=self.log, heatmap=self.heatmap)
        if self.planner == "cost":
            return PlannedEngine(
                view, stats=self._live_stats, metrics=self.metrics, **options
            ), view
        return QueryEngine(view, **options), view

    @property
    def cache_stats(self):
        """Hit/miss/eviction/invalidation counters and saved I/O of the
        semantic cache (None when caching is disabled)."""
        return self.cache.stats if self.cache is not None else None

    def _visible(self, entries: Iterable[Entry]) -> List[Entry]:
        """The entries the bound subject may read, as a fresh list (the
        caller may own it: it is never a cache resident's)."""
        acl = self.acl
        if len(acl) == 0:
            # No rule can match: every entry gets the default.
            return list(entries) if acl.default_allow else []
        subject = self._bound_subject
        return [e for e in entries if acl.readable(subject, e.dn)]

    def _as_query(self, query: Union[str, Query, QueryBuilder]) -> Query:
        if isinstance(query, QueryBuilder):
            query = query.build()
        if isinstance(query, str):
            query = parse_query(query)
        return query

    def _evaluate(self, query: Query, budget, event: SearchEvent) -> Sequence[Entry]:
        """The query's full pre-ACL result, served from the semantic cache
        when possible.  How it was served is recorded on ``event``:
        ``via``, the normal-form fingerprint when one was computed
        (``key``), the logical page I/O the evaluation cost (``pages``) or
        a hit saved (``saved_io``), degradation warnings, remote retries,
        the applied rewrites and the planner Q-error -- None whenever no
        plan executed (cache hits, federation, ``planner="none"``).
        ``budget`` caps the evaluation; a breach propagates as
        :class:`~repro.obs.budget.BudgetExceeded` (cache hits are never
        charged -- a served result costs no page I/O)."""
        if self._federation is not None:
            # Federation frontend: the distributed evaluation brings its
            # own leaf cache, retries and degradation ladder; the local
            # semantic cache is bypassed (its invalidation only sees local
            # updates, not remote ones).
            federation, at = self._federation
            fed_result = federation.query(at, query, budget=budget)
            event.via = "federation"
            event.pages = fed_result.io.logical_total
            event.warnings = tuple(fed_result.warnings)
            event.retries = fed_result.retries
            return fed_result.entries
        key = None
        if self.cache is not None:
            # As-written lookup first: a hit skips the view and planning
            # entirely (a served result costs nothing).
            with self.tracer.span("cache-lookup") as span:
                event.key = key = fingerprint(query)
                served = self._from_cache(key, event)
                if self.tracer.enabled:
                    span.set(hit=served is not None)
            if served is not None:
                return served
        # Captured before the engine's snapshot is pinned: a write that
        # lands after this point bumps the epoch, and the put below is
        # rejected rather than admitting a result that may predate it.
        epoch = self.cache.invalidation_epoch if self.cache is not None else None
        engine, guard = self._pinned_engine()
        try:
            if engine.planner is not None:
                with self.tracer.span("plan") as span:
                    planned, rewrites = engine.plan(query)
                    if self.tracer.enabled:
                        span.set(rewrites=len(rewrites))
                if self.cache is not None:
                    if rewrites:
                        # The plan may have a different fingerprint than the
                        # as-written form (rewrites change shape; pure
                        # reorderings don't -- fingerprints normalise operand
                        # order), so a second resident can answer.
                        planned_key = fingerprint(planned)
                        if planned_key != key:
                            event.key = key = planned_key
                            served = self._from_cache(key, event)
                            if served is not None:
                                return served
                    served = self._from_superset(planned, event)
                    if served is not None:
                        return served
                result = engine.run_planned(planned, budget=budget)
                event.qerror = engine.last_qerror
                event.rewrites = tuple(rewrites)
                query = planned
            else:
                result = engine.run(query, budget=budget)
        finally:
            guard.close()
        event.via = "engine"
        event.pages = cost = result.io.logical_total
        if self.cache is not None:
            self.cache.put(
                key, str(query), result.entries, query_footprint(query), cost,
                query=query, if_epoch=epoch,
            )
        return result.entries

    def _from_cache(self, key: str, event: SearchEvent) -> Optional[Sequence[Entry]]:
        """Probe the cache for an exact fingerprint, counting the outcome.
        A hit is the resident's own entries: :meth:`_visible` makes the
        one list the caller gets."""
        hit = self.cache.get(key)
        self._m_cache_lookups.inc(outcome="miss" if hit is None else "hit")
        if hit is None:
            return None
        event.via = "cache"
        event.saved_io = hit.cost_io
        return hit.entries

    def _from_superset(
        self, planned: Query, event: SearchEvent
    ) -> Optional[List[Entry]]:
        """Cache-aware planning: serve an atomic sub-scoped plan from a
        resident whose subtree provably contains it, by restricting the
        resident's entries to the narrower base -- no page I/O at all
        (the resident's cost is the I/O saved)."""
        from ..query.ast import AtomicQuery, Scope

        if not (isinstance(planned, AtomicQuery) and planned.scope == Scope.SUB):
            return None
        superset = self.cache.find_superset(planned.base, str(planned.filter))
        if superset is None:
            return None
        self._m_cache_lookups.inc(outcome="superset")
        event.via = "superset"
        event.saved_io = superset.cost_io
        return [
            entry for entry in superset.entries
            if planned.base.is_prefix_of(entry.dn)
        ]

    def search(
        self,
        query: Union[str, Query, QueryBuilder],
        size_limit: Optional[int] = None,
        attributes: Optional[List[str]] = None,
        strict: bool = False,
        budget=None,
    ) -> SearchResult:
        """Evaluate a query; results filtered by the bound subject's
        visibility, optionally size-limited and projected to the named
        attributes.  With ``strict`` the query is type-checked against the
        schema first (protocolError on violation).

        ``total_size`` and the size-limit condition both use the *visible*
        (post-ACL) result: the limit truncates what the subject could see,
        and a denied entry never counts toward the total.

        ``budget`` (or the service-wide default) caps the evaluation's
        resources; a breached search comes back empty with code
        ``adminLimitExceeded`` and the structured error on
        :attr:`SearchResult.budget_error` -- it never raises."""
        if size_limit is not None and size_limit < 1:
            raise ValueError("size_limit must be positive")
        event, visible = self._serve(query, budget, strict, size_limit, attributes)
        return SearchResult(
            event.code,
            visible,
            total_size=event.rows,
            cached=event.cached,
            saved_io=event.saved_io,
            warnings=event.warnings,
            budget_error=event.budget_error,
        )

    def search_paged(
        self, query: Union[str, Query, QueryBuilder], page_entries: int
    ) -> Iterable[List[Entry]]:
        """Paged retrieval.  Accepts the same query forms as :meth:`search`
        (string, builder or AST) and is the same pipeline -- evaluated
        eagerly at call time under the service-wide budget, observed by
        every sink; pages chunk the visibility-filtered result, so every
        page but the last is full.  A page generator has no result code,
        so a budget breach raises the
        :class:`~repro.obs.budget.BudgetExceeded`."""
        if page_entries < 1:
            raise ValueError("page_entries must be positive")
        event, visible = self._serve(query)
        error = event.budget_error
        if error is not None:
            # A copy: raising the event's own error would hang the
            # caller's frames on an object the rings may retain.
            raise BudgetExceeded(
                error.resource, error.limit, error.used,
                query_text=error.query_text, trace_id=error.trace_id,
            )
        return (
            visible[start : start + page_entries]
            for start in range(0, len(visible), page_entries)
        )

    def _serve(
        self,
        query: Union[str, Query, QueryBuilder],
        budget=None,
        strict: bool = False,
        size_limit: Optional[int] = None,
        attributes: Optional[List[str]] = None,
    ) -> Tuple[SearchEvent, List[Entry]]:
        """The one read path: parse, (type-check,) evaluate, ACL-filter,
        limit and project under one ``search`` span, filling one
        :class:`~repro.obs.event.SearchEvent` on the way, then publish it
        -- whichever way the search ended.  Returns the event and the
        visible entries (empty unless the search evaluated)."""
        event = SearchEvent()
        visible: List[Entry] = []
        problems = None
        started = time.perf_counter()
        with self.tracer.span("search") as search_span:
            if self.tracer.enabled:
                event.root = search_span
                event.trace_id = search_span.trace_id
            with self.tracer.span("parse"):
                event.query = query = self._as_query(query)
            if strict:
                from ..query.typecheck import validate_query

                with self.tracer.span("typecheck"):
                    problems = validate_query(query, self.directory.schema)
            if problems:
                event.code = ResultCode.PROTOCOL_ERROR
            else:
                try:
                    entries = self._evaluate(
                        query, budget if budget is not None else self.budget, event
                    )
                except BudgetExceeded as exc:
                    exc.query_text = event.query_text
                    exc.trace_id = event.trace_id
                    # The rings may retain the event: without its
                    # traceback the error pins no engine frame (and no
                    # intermediate result in one).
                    event.budget_error = exc.with_traceback(None)
                    event.code = ResultCode.ADMIN_LIMIT_EXCEEDED
                    event.warnings = ("query cancelled: %s" % exc,)
                    if exc.resource == BudgetExceeded.PAGES:
                        # What the cancelled evaluation had read, as its
                        # own tracker counted it.
                        event.pages = exc.used
                    if self.tracer.enabled:
                        search_span.set(code=event.code)
                else:
                    with self.tracer.span("acl-filter"):
                        visible = self._visible(entries)
                    event.rows = len(visible)
                    if size_limit is not None and event.rows > size_limit:
                        visible = visible[:size_limit]
                        event.code = ResultCode.SIZE_LIMIT_EXCEEDED
                    else:
                        event.code = ResultCode.SUCCESS
                    if attributes:
                        from ..model.projection import project

                        visible = project(visible, attributes)
                    if self.tracer.enabled:
                        search_span.set(
                            code=event.code, rows=event.rows, cached=event.cached,
                            pending=self.directory.pending(),
                        )
                    if event.key is None and self.digest is not None:
                        event.key = fingerprint(query)
        self._publish(event, started)
        return event, visible

    def _publish(self, event: SearchEvent, started: float) -> None:
        """Close the event and hand it to every sink."""
        event.elapsed = time.perf_counter() - started
        for sink in self._sinks:
            sink(event)

    # -- sinks (the ones that are not another object's method) -----------------

    def _count(self, event: SearchEvent) -> None:
        """The metric instruments."""
        self._m_search_seconds.observe(event.elapsed)
        self._m_result_entries.observe(event.rows)
        self._m_searches.inc(code=event.code)
        if event.via == "engine" or event.via == "federation":
            self._m_search_io.observe(event.pages)
        if event.slow:
            self._m_slow.inc()
        if event.degraded:
            self._m_degraded.inc()
        if event.budget:
            self._m_budget_exceeded.inc(resource=event.budget_error.resource)
        self._m_buffer_hit_rate.set(self.directory.store.pager.stats.buffer_hit_rate)

    def _log_search(self, event: SearchEvent) -> None:
        """The structured event log: one ``search`` line per search, plus
        ``slow_query`` / ``budget_exceeded`` warnings."""
        elapsed_s = round(event.elapsed, 6)
        self.log.info(
            "search",
            code=event.code,
            rows=event.rows,
            elapsed_s=elapsed_s,
            pages=event.pages,
            cached=event.cached or None,
            retries=event.retries or None,
            warnings=len(event.warnings) or None,
            trace_id=event.trace_id,
        )
        if event.slow:
            self.log.warning(
                "slow_query",
                query=event.query_text,
                elapsed_s=elapsed_s,
                pages=event.pages,
                trace_id=event.trace_id,
            )
        if event.budget:
            error = event.budget_error
            self.log.warning(
                "budget_exceeded",
                query=event.query_text,
                trace_id=event.trace_id,
                resource=error.resource,
                limit=error.limit,
                used=error.used,
            )

    # -- workload observability ----------------------------------------------

    def attach_alerts(
        self,
        rules: Optional[List[AlertRule]] = None,
        min_interval_s: float = 1.0,
        clock=None,
    ) -> AlertEngine:
        """Put an alert engine over this service's registry (or return the
        attached one).  ``rules`` defaults to
        :func:`~repro.obs.alerts.default_rules`.  The engine is the last
        search sink, so each round reads this search's metrics; it runs at
        most one round per ``min_interval_s``, and ``clock`` injects a
        deterministic time source (tests, the ``repro alerts`` demo).
        Firing rules degrade ``/healthz`` and are logged as
        ``alert.firing`` / ``alert.resolved`` events."""
        if self.alerts is None:
            self.alerts = AlertEngine(
                self.metrics,
                rules if rules is not None else default_rules(),
                clock=clock if clock is not None else time.time,
                min_interval_s=min_interval_s,
                log=self.log,
                metrics=self.metrics,
            )
            self._sinks.append(self.alerts.observe)
        return self.alerts

    def serve_admin(self, host: str = "127.0.0.1", port: int = 0) -> AdminServer:
        """Start the HTTP admin endpoint for this service (daemon thread;
        ``port=0`` picks a free port).  Returns the started
        :class:`~repro.obs.httpd.AdminServer`; the caller stops it.

        The workload endpoints (``/digest``, ``/heatmap``, ``/alerts``)
        expose whatever is attached *at start time* -- call
        :meth:`attach_alerts` first if that pane should be live."""

        def health() -> dict:
            status = {
                "status": "ok",
                "entries": len(self.directory.store),
                "compactions": self.directory.compactions,
                "pending_updates": self.directory.pending(),
                "head_lsn": self.directory.head_lsn,
                "federated": self._federation is not None,
                "maintenance_agent": (
                    self._maintenance is not None and self._maintenance.running
                ),
            }
            if isinstance(self.directory, DurableDirectory):
                status["durability"] = self.directory.durability_status()
            if self._replication is not None:
                replicated, lag_alert = self._replication
                replication = replicated.replication_status()
                replication["lag_alert"] = lag_alert
                status["replication"] = replication
                if any(
                    r["lag"] > lag_alert or r["needs_resync"]
                    for r in replication["replicas"].values()
                ):
                    status["status"] = "degraded"
            if self.alerts is not None:
                firing = self.alerts.firing()
                status["alerts"] = {
                    "rules": len(self.alerts.rules),
                    "firing": [f["name"] for f in firing],
                }
                if firing:
                    status["status"] = "degraded"
            return status

        server = AdminServer(
            registry=self.metrics,
            slow_queries=self.slow_queries,
            health=health,
            host=host,
            port=port,
            log=self.log,
            digest=self.digest,
            heatmap=self.heatmap,
            alerts=self.alerts,
        )
        return server.start()

    def compare(self, dn: Union[DN, str], attribute: str, value: Any) -> str:
        """LDAP compare: does the entry hold (attribute, value)?"""
        if isinstance(dn, str):
            dn = DN.parse(dn)
        if not self.acl.readable(self._bound_subject, dn):
            return ResultCode.INSUFFICIENT_ACCESS
        entry = self.directory.lookup(dn)
        if entry is None:
            return ResultCode.NO_SUCH_OBJECT
        if any(str(v) == str(value) for v in entry.values(attribute)):
            return ResultCode.COMPARE_TRUE
        return ResultCode.COMPARE_FALSE

    # -- write operations -----------------------------------------------------

    #: Structured :class:`UpdateError` codes -> protocol result codes.
    _UPDATE_CODES = {
        UpdateError.ALREADY_EXISTS: ResultCode.ENTRY_ALREADY_EXISTS,
        UpdateError.NO_SUCH_ENTRY: ResultCode.NO_SUCH_OBJECT,
        UpdateError.HAS_CHILDREN: ResultCode.UNWILLING_TO_PERFORM,
        UpdateError.PROTECTED_ATTRIBUTE: ResultCode.UNWILLING_TO_PERFORM,
    }

    def add(self, dn, classes, attributes=None, **kw) -> str:
        try:
            self.directory.add(dn, classes, attributes, **kw)
        except UpdateError as exc:
            return self._UPDATE_CODES.get(exc.code, ResultCode.UNWILLING_TO_PERFORM)
        return ResultCode.SUCCESS

    def delete(self, dn, recursive: bool = False) -> str:
        try:
            self.directory.delete(dn, recursive=recursive)
        except UpdateError as exc:
            return self._UPDATE_CODES.get(exc.code, ResultCode.UNWILLING_TO_PERFORM)
        return ResultCode.SUCCESS

    def modify(self, dn, replace=None, add_values=None, remove_values=None) -> str:
        try:
            self.directory.modify(
                dn, replace=replace, add_values=add_values, remove_values=remove_values
            )
        except UpdateError as exc:
            return self._UPDATE_CODES.get(exc.code, ResultCode.UNWILLING_TO_PERFORM)
        return ResultCode.SUCCESS

    # -- maintenance and lifecycle --------------------------------------------

    def start_maintenance(self) -> MaintenanceAgent:
        """Move compaction off the write path: start (or return) the
        background maintenance agent and route the directory's
        auto-compaction through it."""
        if self._maintenance is None:
            self._maintenance = MaintenanceAgent(
                metrics=self.metrics, log=self.log, tracer=self.tracer
            ).start()
            self.directory.attach_maintenance(self._maintenance)
        return self._maintenance

    def stop_maintenance(self, drain: bool = True) -> None:
        """Detach and stop the maintenance agent (compaction reverts to
        the synchronous fallback)."""
        if self._maintenance is not None:
            self.directory.detach_maintenance()
            self._maintenance.stop(drain=drain)
            self._maintenance = None

    def checkpoint(self) -> Optional[int]:
        """Checkpoint a durable directory (fold + LDIF dump + WAL
        truncation); returns the checkpoint lsn, or None when the service
        is not durable."""
        if isinstance(self.directory, DurableDirectory):
            return self.directory.checkpoint()
        return None

    def close(self) -> None:
        """Stop maintenance, detach the service's listeners, and close the
        WAL (for a durable directory)."""
        self.stop_maintenance()
        if self._heat_listener is not None:
            self.directory.remove_record_listener(self._heat_listener)
            self._heat_listener = None
        if self._live_stats is not None:
            self._live_stats.detach()
            self._live_stats = None
        if self._maintainer is not None:
            self._maintainer.detach()
        if isinstance(self.directory, DurableDirectory):
            self.directory.close()

    def __repr__(self) -> str:
        return "DirectoryService(%r, bound=%r)" % (
            self.directory,
            self._bound_subject,
        )
