"""Distributed query evaluation (Section 8.3).

The paper's strategy, verbatim: "each atomic query, whose base dn is
managed by a directory server different from the queried server, is issued
to the directory server that manages the base dn of the atomic query ...
The results of those atomic queries are shipped to the original queried
directory server, which then computes the query result using the
algorithms described previously."

:class:`FederatedDirectory` implements exactly that:

- a :class:`~repro.dist.locator.ServerLocator` (DNS-style) maps dns to
  owning servers;
- :meth:`FederatedDirectory.query` is issued *at* some server (the
  "closest" one); atomic leaves are routed to their owners -- including
  every server owning a delegated subdomain inside the leaf's scope -- and
  results are shipped back over the counted network;
- the queried server combines the shipped sorted lists with its local
  operator algorithms: the ordinary :class:`~repro.engine.QueryEngine`
  over its own store, given a :class:`_ScatterGather` as its leaf
  provider.

When the network can fail (a :class:`~repro.dist.faults.FaultInjector`),
:meth:`FederatedDirectory.enable_resilience` arms the availability story
(footnote 4): every remote leaf goes through a per-server circuit breaker
and bounded retries with backoff, and on exhaustion degrades down a
ladder -- serve the last known good sublist, fail over to an attached
replica router, or answer with the reachable servers only, marking the
:class:`FederatedResult` partial (``strict`` mode re-raises instead).
With resilience off and a fault-free network the query path is exactly
the historical one.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Union

from ..cache import QueryCache, atomic_fingerprint, query_footprint
from ..engine.common import labeled_merge
from ..engine.engine import QueryEngine, QueryResult
from ..engine.merge import boolean_merge
from ..exec import WorkerPool
from ..model.dn import DN
from ..model.entry import Entry
from ..model.instance import DirectoryInstance
from ..model.schema import DirectorySchema
from ..obs.log import NULL_LOGGER
from ..obs.metrics import get_registry
from ..obs.trace import NULL_TRACER
from ..query.ast import AtomicQuery, Query
from ..query.parser import parse_query
from ..storage.runs import Run, RunWriter
from .errors import NetworkError, ReplicationError
from .locator import ServerLocator
from .network import SimulatedNetwork
from .resilience import CircuitBreaker, ResiliencePolicy, StaleStore
from .server import DirectoryServer

__all__ = ["FederatedDirectory", "FederatedResult"]


class FederatedResult(QueryResult):
    """A query result annotated with the network traffic it caused and,
    under resilience, how degraded the answer is."""

    def __init__(
        self,
        entries,
        io,
        elapsed,
        messages: int,
        entries_shipped: int,
        retries: int = 0,
        missing_servers: Optional[List[str]] = None,
        warnings: Optional[List[str]] = None,
        eval_errors: int = 0,
    ):
        super().__init__(entries, io, elapsed, eval_errors=eval_errors)
        self.messages = messages
        self.entries_shipped = entries_shipped
        #: Remote attempts beyond the first, across all leaves.
        self.retries = retries
        #: Servers whose data is absent from this answer.
        self.missing_servers = list(missing_servers or [])
        #: Human-readable degradation notes (stale serves, failovers,
        #: missing servers), empty for a clean answer.
        self.warnings = list(warnings or [])

    @property
    def partial(self) -> bool:
        """True when at least one owner's data is missing entirely."""
        return bool(self.missing_servers)

    def __repr__(self) -> str:
        extra = ", partial=%s" % sorted(self.missing_servers) if self.partial else ""
        return "FederatedResult(%d entries, messages=%d, shipped=%d%s)" % (
            len(self.entries),
            self.messages,
            self.entries_shipped,
            extra,
        )


class FederatedDirectory:
    """A set of directory servers jointly serving one namespace."""

    def __init__(
        self,
        schema: DirectorySchema,
        network: Optional[SimulatedNetwork] = None,
        leaf_cache_bytes: int = 256 * 1024,
        tracer=None,
        metrics=None,
        max_workers: int = 1,
        log=None,
        heatmap=None,
    ):
        #: Optional :class:`~repro.obs.heatmap.SubtreeHeatMap`; per-server
        #: shipping records under the shipped leaf's base subtree (updated
        #: from scatter workers -- the map is thread-safe).
        self.heatmap = heatmap
        self.schema = schema
        self.network = network or SimulatedNetwork()
        self.locator = ServerLocator()
        self.servers: Dict[str, DirectoryServer] = {}
        #: Structured event logger shared by the resilience ladder (see
        #: :mod:`repro.obs.log`); no-op by default.
        self.log = log if log is not None else NULL_LOGGER
        #: Scatter pool for remote atomic leaves: each leaf's remote
        #: owners fan out across up to ``max_workers`` threads, gathered
        #: back in owner order.  The default single worker runs everything
        #: inline -- the historical sequential path, bit for bit.
        self.pool = WorkerPool(max_workers, name="fed-scatter")
        #: The coordinator-side tracer; spans cross to remote servers via
        #: the trace context carried with each request.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else get_registry()
        self._m_remote_requests = self.metrics.counter(
            "repro_fed_remote_requests_total",
            "Atomic sub-queries routed to a remote owner",
            labelnames=("server",),
        )
        self._m_shipped_sublists = self.metrics.counter(
            "repro_fed_shipped_sublists_total",
            "Result sublists shipped back from remote servers",
            labelnames=("server",),
        )
        self._m_shipped_entries = self.metrics.counter(
            "repro_fed_shipped_entries_total",
            "Entries shipped back from remote servers",
            labelnames=("server",),
        )
        self._m_leaf_cache = self.metrics.counter(
            "repro_fed_leaf_cache_lookups_total",
            "Remote-sublist cache lookups",
            labelnames=("outcome",),
        )
        self._m_retries = self.metrics.counter(
            "repro_fed_retries_total",
            "Remote atomic call retries",
            labelnames=("server",),
        )
        self._m_remote_failures = self.metrics.counter(
            "repro_fed_remote_failures_total",
            "Remote atomic call failures (per attempt)",
            labelnames=("server", "code"),
        )
        self._m_degraded = self.metrics.counter(
            "repro_fed_degraded_total",
            "Remote leaves answered by a degradation rung",
            labelnames=("mode",),
        )
        #: Cache of shipped remote sublists, keyed ``(server, atomic
        #: fingerprint)`` and tagged by the owning server so one origin can
        #: be dropped wholesale.  ``leaf_cache_bytes=0`` disables it.
        self.leaf_cache: Optional[QueryCache] = (
            QueryCache(byte_budget=leaf_cache_bytes) if leaf_cache_bytes else None
        )
        #: Armed by :meth:`enable_resilience`; None means the historical
        #: fail-fast behaviour (a network fault propagates).
        self.resilience: Optional[ResiliencePolicy] = None
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._stale: Optional[StaleStore] = None
        #: Per-server replica routers for failover degradation
        #: (:meth:`attach_replica`).
        self.replicas: Dict[str, "AvailabilityRouter"] = {}

    # -- construction -----------------------------------------------------

    def add_server(self, server: DirectoryServer) -> DirectoryServer:
        self.servers[server.name] = server
        if self.tracer.enabled and not server.tracer.enabled:
            # A tracing federation gives each member its own tracer (one
            # per pager, so I/O probes attribute correctly); remote spans
            # still join the coordinator's trace via the carried context.
            from ..obs.trace import Tracer

            server.tracer = Tracer()
        for context in server.contexts:
            self.locator.register(context, server.name)
        return server

    @classmethod
    def partition(
        cls,
        instance: DirectoryInstance,
        assignments: Dict[str, List[Union[DN, str]]],
        page_size: int = 16,
        buffer_pages: int = 8,
        network: Optional[SimulatedNetwork] = None,
        leaf_cache_bytes: int = 256 * 1024,
        tracer=None,
        metrics=None,
        max_workers: int = 1,
        log=None,
    ) -> "FederatedDirectory":
        """Split one logical instance across servers.

        ``assignments`` maps server name to the naming contexts it owns.
        Each entry goes to the server of its *most specific* registered
        context (delegated subdomains shadow their parents, as in DNS).
        """
        fed = cls(
            instance.schema,
            network,
            leaf_cache_bytes=leaf_cache_bytes,
            tracer=tracer,
            metrics=metrics,
            max_workers=max_workers,
            log=log,
        )
        for name, contexts in assignments.items():
            dn_contexts = [
                context if isinstance(context, DN) else DN.parse(context)
                for context in contexts
            ]
            fed.add_server(
                DirectoryServer(
                    name,
                    instance.schema,
                    dn_contexts,
                    page_size=page_size,
                    buffer_pages=buffer_pages,
                )
            )
        buckets: Dict[str, List] = {name: [] for name in assignments}
        for entry in instance:
            owner = fed.locator.locate(entry.dn)
            buckets[owner].append(entry)
        for name, entries in buckets.items():
            fed.servers[name].load(entries)
        return fed

    def close(self) -> None:
        """Release the scatter pool's threads (idempotent)."""
        self.pool.close()

    # -- resilience --------------------------------------------------------

    def enable_resilience(
        self, policy: Optional[ResiliencePolicy] = None, **kwargs
    ) -> ResiliencePolicy:
        """Arm retry + circuit breaking + degradation for remote leaves.

        Pass a :class:`ResiliencePolicy`, or keyword arguments to build
        one.  Returns the active policy.
        """
        if policy is not None and kwargs:
            raise ValueError("pass a policy or keyword arguments, not both")
        self.resilience = policy if policy is not None else ResiliencePolicy(**kwargs)
        self._breakers = {}
        self._stale = (
            StaleStore(self.resilience.stale_keys)
            if self.resilience.serve_stale
            else None
        )
        return self.resilience

    def attach_replica(self, server_name: str, router: "AvailabilityRouter") -> None:
        """Register a replica router as the failover target for one
        server: when its owner is unreachable past retries, atomic leaves
        are answered by the router (within its staleness bound)."""
        if server_name not in self.servers:
            raise KeyError(server_name)
        self.replicas[server_name] = router

    def breaker_for(self, server_name: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding one server.
        Creation is locked: two scatter workers racing here must get the
        same breaker, not two half-counted ones."""
        if self.resilience is None:
            raise RuntimeError("resilience is not enabled")
        with self._breaker_lock:
            breaker = self._breakers.get(server_name)
            if breaker is None:
                breaker = self.resilience.make_breaker(
                    server_name, metrics=self.metrics, log=self.log
                )
                self._breakers[server_name] = breaker
            return breaker

    @property
    def breakers(self) -> Dict[str, CircuitBreaker]:
        """Live breakers by server name (only servers that failed at
        least once, or were queried through :meth:`breaker_for`)."""
        return dict(self._breakers)

    def _now(self) -> float:
        """The network's simulated clock (0.0 on a clockless network)."""
        return getattr(self.network, "now", 0.0)

    def _sleep(self, seconds: float) -> None:
        sleep = getattr(self.network, "sleep", None)
        if sleep is not None:
            sleep(seconds)

    # -- querying ----------------------------------------------------------

    def query(
        self, at: str, query: Union[Query, str], budget=None
    ) -> FederatedResult:
        """Issue ``query`` at server ``at`` and evaluate it distributedly.

        ``budget`` caps the coordinator-side evaluation (the pages
        materialised and merged on the queried server's pager, wall
        clock, intermediate sizes); a breach frees every partial run and
        raises :class:`~repro.obs.budget.BudgetExceeded`."""
        if isinstance(query, str):
            query = parse_query(query)
        leaves = _ScatterGather(self, self.servers[at])
        engine = QueryEngine(
            leaves.coordinator.engine.store,
            tracer=self.tracer,
            heatmap=self.heatmap,
            leaves=leaves,
        )
        if self.tracer.enabled:
            # Rebind the I/O probe to *this* coordinator's pager (queries
            # may be issued at different servers over the tracer's life).
            self.tracer.add_probe("io", engine.pager.stats)
        messages_before = self.network.messages
        shipped_before = self.network.entries_shipped
        with self.tracer.span("fed-query", at=at):
            result = engine.run(query, budget=budget)
        return FederatedResult(
            result.entries,
            result.io,
            result.elapsed,
            self.network.messages - messages_before,
            self.network.entries_shipped - shipped_before,
            retries=leaves.retries,
            missing_servers=leaves.missing_servers,
            warnings=leaves.warnings,
            eval_errors=result.eval_errors,
        )

    def owners_for_atomic(self, query: AtomicQuery) -> List[str]:
        """Every server whose holdings can intersect the atomic query's
        scope: the owner of the base dn plus, for non-base scopes, the
        owners of delegated contexts inside the base's subtree."""
        owners = [self.locator.locate(query.base)] if not query.base.is_null() else []
        if query.base.is_null():
            owners = sorted(self.servers)
        elif query.scope != "base":
            for name, server in sorted(self.servers.items()):
                if name in owners:
                    continue
                for context in server.contexts:
                    if query.base.is_prefix_of(context):
                        owners.append(name)
                        break
        return owners

    # -- leaf-cache maintenance --------------------------------------------

    def invalidate_dn(self, dn: Union[DN, str], subtree: bool = True) -> int:
        """Drop cached remote sublists whose footprint touches ``dn`` (by
        default its whole subtree -- the unit remote updates arrive in)."""
        if self.leaf_cache is None:
            return 0
        if isinstance(dn, str):
            dn = DN.parse(dn)
        return self.leaf_cache.invalidate(dn, subtree=subtree)

    def refresh_server(self, name: str, entries: Iterable[Entry]) -> None:
        """Replace one server's holdings (replication refresh) and drop
        every cached sublist that server originated."""
        self.servers[name].reload(entries)
        if self.leaf_cache is not None:
            self.leaf_cache.invalidate_tag(name)

    def total_entries(self) -> int:
        return sum(server.entry_count() for server in self.servers.values())

    def __repr__(self) -> str:
        return "FederatedDirectory(%d servers, %d entries)" % (
            len(self.servers),
            self.total_entries(),
        )


class _LeafOutcome:
    """One owner's share of an atomic scatter, filled in by the worker.

    Workers only talk to the network and the remote server and record
    their bookkeeping *here*; the gather loop folds outcomes into the
    query's :class:`_ScatterGather` and the coordinator's pager in owner
    order, so warnings, cache admissions and page I/O sequence
    identically however the threads interleaved."""

    __slots__ = ("owner", "key", "entries", "fresh", "missing", "retries",
                 "warnings")

    def __init__(self, owner: str, key: Optional[str] = None):
        self.owner = owner
        self.key = key
        #: Shipped entries (None while pending, or when degraded to a
        #: partial answer without this owner).
        self.entries: Optional[List[Entry]] = None
        #: Whether ``entries`` came from the live owner (cacheable), as
        #: opposed to the leaf cache / stale store / a replica.
        self.fresh = False
        self.missing = False
        self.retries = 0
        self.warnings: List[str] = []


class _ScatterGather:
    """One federated query's leaf provider (``(AtomicQuery, within) ->
    Run``): each atomic leaf is routed to its owners and gathered on the
    coordinator's pager; the engine above it is the ordinary one."""

    def __init__(self, federation: FederatedDirectory, coordinator: DirectoryServer):
        self.federation = federation
        self.coordinator = coordinator
        self.pager = coordinator.engine.pager
        #: Degradation bookkeeping for this one query, folded into the
        #: :class:`FederatedResult` by :meth:`FederatedDirectory.query`.
        self.retries = 0
        self.missing_servers: List[str] = []
        self.warnings: List[str] = []
        policy = federation.resilience
        deadline_s = policy.retry.deadline_s if policy is not None else None
        self._deadline = (
            federation._now() + deadline_s if deadline_s is not None else None
        )

    def __call__(self, query: AtomicQuery, within=None) -> Run:
        """Scatter the leaf to its owners, gather in owner order.  Read
        windows (``within``) are ignored: the whole leaf is always a
        correct answer.

        The scatter phase fans the *remote* owners out over the
        federation's :class:`~repro.exec.WorkerPool` (inline when the
        pool is single-worker); remote tasks touch only the network and
        the remote servers' pagers.  The gather barrier then walks the
        outcomes in owner order on the calling thread, doing every
        coordinator-pager operation -- the coordinator-local leaf's own
        evaluation, materialising shipped sublists, the union merges --
        exactly where the sequential loop did, so a single-worker pool
        reproduces the historical page-op sequence bit for bit.
        """
        fed = self.federation
        owners = fed.owners_for_atomic(query)
        cache = fed.leaf_cache
        tracer = fed.tracer
        want_key = cache is not None or fed._stale is not None
        scatter_context = tracer.context()

        def scatter(owner: str) -> _LeafOutcome:
            server = fed.servers[owner]
            key = (
                "%s|%s" % (owner, atomic_fingerprint(query)) if want_key else None
            )
            outcome = _LeafOutcome(owner, key)
            if server is self.coordinator:
                return outcome  # evaluated at the gather, on our pager
            token = tracer.adopt(scatter_context)
            try:
                # Served from the sublist cache when possible, otherwise
                # request out + result entries shipped back.
                if cache is not None:
                    hit = cache.get(key)
                    if hit is not None:
                        fed._m_leaf_cache.inc(outcome="hit")
                        outcome.entries = list(hit.entries)
                        return outcome
                    fed._m_leaf_cache.inc(outcome="miss")
                self._fetch_remote(outcome, server, query)
            finally:
                tracer.release(token)
            return outcome

        outcomes = fed.pool.map_ordered(scatter, owners)
        partial_runs: List[Run] = []
        try:
            for outcome in outcomes:
                self.retries += outcome.retries
                self.warnings.extend(outcome.warnings)
                if outcome.missing:
                    self.missing_servers.append(outcome.owner)
                server = fed.servers[outcome.owner]
                if server is self.coordinator:
                    partial_runs.append(
                        server.evaluate_atomic(
                            query, trace_context=tracer.context()
                        )
                    )
                    continue
                if outcome.entries is None:
                    continue  # degraded to a partial answer without this owner
                if outcome.fresh:
                    if cache is not None:
                        # Weight by what a hit saves: the round trip plus the
                        # shipped entries (a network-cost proxy in I/O units).
                        cache.put(
                            outcome.key,
                            str(query),
                            outcome.entries,
                            query_footprint(query),
                            cost_io=2 + len(outcome.entries),
                            tag=outcome.owner,
                        )
                    if fed._stale is not None:
                        fed._stale.put(outcome.key, outcome.entries)
                partial_runs.append(self._materialise(outcome.entries))
            if not partial_runs:
                return RunWriter(self.pager).close()
            # All partial runs now live on the coordinator's pager; shipped
            # lists are sorted and disjoint (ownership partitions the
            # namespace), so union merges keep everything sorted.
            combined = partial_runs.pop(0)
            while partial_runs:
                run = partial_runs.pop(0)
                try:
                    merged = boolean_merge(
                        self.pager, "or", labeled_merge((combined, run))
                    )
                finally:
                    combined.free()
                    run.free()
                combined = merged
            return combined
        except BaseException:
            for run in partial_runs:
                run.free()
            raise

    # -- remote calls -------------------------------------------------------

    def _materialise(self, entries) -> Run:
        writer = RunWriter(self.pager)
        writer.extend(entries)
        return writer.close()

    def _remote_once(self, owner: str, server: DirectoryServer,
                     query: AtomicQuery) -> List[Entry]:
        """One remote round trip: request out, evaluate there, results
        shipped back.  Raises :class:`NetworkError` if either message
        faults."""
        fed = self.federation
        tracer = fed.tracer
        with tracer.span("remote-atomic", server=owner) as span:
            context = tracer.context()
            trace_id = context["trace_id"] if context else None
            fed.network.send(
                self.coordinator.name, owner, "atomic-request",
                trace_id=trace_id,
            )
            fed._m_remote_requests.inc(server=owner)
            remote = server.evaluate_atomic(query, trace_context=context)
            try:
                entries = remote.to_list()
            finally:
                remote.free()
            fed.network.send(
                owner, self.coordinator.name, "atomic-result", len(entries),
                trace_id=trace_id,
            )
            fed._m_shipped_sublists.inc(server=owner)
            fed._m_shipped_entries.inc(len(entries), server=owner)
            if fed.heatmap is not None:
                fed.heatmap.record_shipped(query.base, len(entries))
            span.set(rows=len(entries))
        return entries

    def _fetch_remote(
        self, outcome: _LeafOutcome, server: DirectoryServer,
        query: AtomicQuery,
    ) -> None:
        """Fill ``outcome`` with the remote leaf's entries through retry +
        breaker + degradation.

        Fresh entries (``outcome.fresh``) may be cached; stale or
        replica-served ones may not; ``entries is None`` plus
        ``outcome.missing`` means the owner is absent from a partial
        answer.  Runs on a scatter worker: all bookkeeping goes through
        the outcome, never this object.
        """
        fed = self.federation
        owner = outcome.owner
        policy = fed.resilience
        if policy is None:
            outcome.entries = self._remote_once(owner, server, query)
            outcome.fresh = True
            return
        breaker = fed.breaker_for(owner)
        last_error: Optional[NetworkError] = None
        if not breaker.allow(fed._now()):
            fed._m_remote_failures.inc(server=owner, code=NetworkError.BREAKER_OPEN)
            last_error = NetworkError(
                "circuit breaker open for %s" % owner,
                code=NetworkError.BREAKER_OPEN,
                server=owner,
            )
        else:
            attempts = 0
            while True:
                attempts += 1
                try:
                    entries = self._remote_once(owner, server, query)
                    breaker.record_success(fed._now())
                    outcome.entries = entries
                    outcome.fresh = True
                    return
                except NetworkError as exc:
                    last_error = exc
                    breaker.record_failure(fed._now())
                    fed._m_remote_failures.inc(server=owner, code=exc.code)
                    if not policy.retry.should_retry(
                        attempts, fed._now(), self._deadline
                    ) or not breaker.allow(fed._now()):
                        break
                    outcome.retries += 1
                    fed._m_retries.inc(server=owner)
                    if fed.log.enabled:
                        fed.log.warning(
                            "fed.retry",
                            server=owner,
                            attempt=attempts,
                            code=exc.code,
                        )
                    fed._sleep(policy.retry.backoff(attempts))
        self._degrade(outcome, query, last_error)

    def _degrade(
        self, outcome: _LeafOutcome, query: AtomicQuery,
        error: Optional[NetworkError],
    ) -> None:
        """The degradation ladder once retries are exhausted: stale,
        replica, partial (or raise in strict mode)."""
        fed = self.federation
        owner = outcome.owner
        policy = fed.resilience
        cause = error.code if error is not None else "unknown"
        if fed._stale is not None and outcome.key is not None:
            stale = fed._stale.get(outcome.key)
            if stale is not None:
                fed._m_degraded.inc(mode="stale")
                if fed.log.enabled:
                    fed.log.warning(
                        "fed.degraded", server=owner, mode="stale", cause=cause
                    )
                outcome.warnings.append(
                    "%s unreachable (%s); served last known good sublist"
                    % (owner, cause)
                )
                outcome.entries = list(stale)
                return
        router = fed.replicas.get(owner)
        if router is not None:
            try:
                entries = router.evaluate(query)
            except ReplicationError as exc:
                outcome.warnings.append(
                    "%s unreachable (%s); replica failover failed (%s)"
                    % (owner, cause, exc.code)
                )
            else:
                fed._m_degraded.inc(mode="replica")
                if fed.log.enabled:
                    fed.log.warning(
                        "fed.degraded", server=owner, mode="replica", cause=cause
                    )
                outcome.warnings.append(
                    "%s unreachable (%s); served by replica %s"
                    % (owner, cause, router.served_by[-1])
                )
                outcome.entries = entries
                return
        if policy.mode == "strict":
            raise error if error is not None else NetworkError(
                "%s unreachable" % owner, code=NetworkError.OTHER, server=owner
            )
        fed._m_degraded.inc(mode="partial")
        if fed.log.enabled:
            fed.log.warning(
                "fed.degraded", server=owner, mode="partial", cause=cause
            )
        outcome.missing = True
        outcome.warnings.append(
            "%s unreachable (%s); result is partial without it" % (owner, cause)
        )
