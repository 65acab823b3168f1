"""The query engine: bottom-up, pipelined evaluation of whole query trees
(Section 8.2).

Each query-tree node is evaluated with the operator algorithms of this
package; every operator consumes sorted runs and produces a sorted run, so
"no additional sorting of the result of an intermediate operator is
necessary" -- the property Theorems 8.3/8.4 rest on.  Intermediate runs are
freed as soon as their consumer is done, and all page traffic flows through
one pager, so a query's I/O cost is directly observable as the pager-stats
delta around :meth:`QueryEngine.run`.

There is one engine; what varies is injected, not subclassed.  A **leaf
provider** (``(AtomicQuery, within=None) -> Run``) says where an atomic
leaf is answered -- the local access path by default, the federation's
scatter/gather at a coordinator (Section 8.3 ships atomic sub-queries and
evaluates everything above them at the queried server).  An optional
**planner** (:class:`~repro.engine.optimizer.AccessPlanner`) rewrites and
cost-orders the query first, lets a node's first operands bound the rest,
and reads the atomic operands of a boolean or a hierarchical selection on
one base by one shared scan; without one this is the paper-literal
evaluator (every operand of every node evaluated over its whole range
into its own run -- the experiments' exact page counts depend on it).

A boolean and a hierarchical selection both consume one labelled stream
of their operands -- each entry with its int membership mask, bit
``i - 1`` for operand ``i`` -- and the engine hands them either the
labelled merge of the operands' runs or the provider's shared scan.  The
scan and the leaf paths work a page at a time; the heat map is charged
with the page reads the shared scan counts itself.

The engine's answer is the whole sorted result.  Size limits, paged
retrieval, access control and the default budget are the LDAP server's
controls around that run, applied in one place:
:class:`~repro.server.service.DirectoryService`.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple, Union

from ..model.entry import Entry
from ..model.instance import DirectoryInstance
from ..query.ast import (
    And,
    AtomicQuery,
    Diff,
    EmbeddedRef,
    HierarchySelect,
    Or,
    Query,
    QueryError,
    SimpleAggSelect,
)
from ..obs.budget import BudgetExceeded
from ..obs.trace import NULL_TRACER
from ..query.parser import parse_query
from ..storage.pager import IOStats
from ..storage.runs import Run
from ..storage.store import DirectoryStore
from .atomic import SharedScan, evaluate_atomic
from .atomic import shared_scan as scan_leaves
from .common import Labelled, labeled_merge
from .eragg import embedded_ref_select
from .hsagg import hierarchical_select
from .merge import boolean_merge
from .simpleagg import simple_agg_select

__all__ = ["QueryEngine", "QueryResult"]

#: The span of one shared scan and the stack pass it feeds, in place of
#: the spans of the leaves it reads.
SHARED_SCAN_SPAN = "op:shared-scan"

#: :func:`~repro.engine.merge.boolean_merge`'s name for each boolean node.
_BOOLEAN_OPS = {And: "and", Or: "or", Diff: "diff"}
#: The nodes evaluated over one labelled stream of their operands.
_LABELLED = (And, Or, Diff, HierarchySelect)


class QueryResult:
    """The outcome of one engine run: entries plus observed cost."""

    def __init__(
        self,
        entries: List[Entry],
        io: IOStats,
        elapsed: float,
        eval_errors: int = 0,
    ):
        self.entries = entries
        self.io = io
        self.elapsed = elapsed
        #: Records skipped by operators because a value could not be
        #: evaluated (e.g. an embedded reference failing dn coercion).
        #: Zero for a clean answer; non-zero means the result silently
        #: excludes that many source records -- surfaced here and in
        #: EXPLAIN ``--analyze`` instead of being swallowed.
        self.eval_errors = eval_errors

    def dns(self) -> List[str]:
        """The result dn strings, in order (convenience for tests/examples)."""
        return [str(entry.dn) for entry in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self) -> str:
        return "QueryResult(%d entries, %r)" % (len(self.entries), self.io)


class QueryEngine:
    """External-memory query evaluation over a :class:`DirectoryStore` --
    or over a pinned :class:`~repro.storage.maintenance.StoreView`, which
    offers the same read interface with pending updates merged in."""

    def __init__(
        self,
        store: DirectoryStore,
        use_indices: bool = True,
        tracer=None,
        heatmap=None,
        leaves=None,
        planner=None,
    ):
        self.store = store
        self.pager = store.pager
        #: The leaf provider: a callable ``(AtomicQuery, within=None) ->
        #: Run`` answering every atomic leaf on this engine's pager.
        #: ``within``, when not None, is a list of ``(root dn, max_depth)``
        #: windows outside which the caller needs nothing; a provider may
        #: ignore it (any answer between the leaf restricted to the windows
        #: and the whole leaf is correct).  None means the local access
        #: path, :meth:`atomic_run`.  A provider that can also read the
        #: atomic operands of one base together has a ``shared_scan(leaves)
        #: -> (entry, mask) stream`` method whose stream counts its own page
        #: reads in ``reads`` and each leaf's matches in ``matches``, as the
        #: local path does (:meth:`shared_scan`);
        #: a planned engine reads a boolean's or a selection's operands by
        #: one shared scan only through it, so a provider
        #: without one (the federation's scatter/gather) answers every
        #: leaf itself.
        self.leaves = leaves
        #: The optional plan step, an
        #: :class:`~repro.engine.optimizer.AccessPlanner` over ``store``:
        #: :meth:`plan` applies its rewrites and operand order, leaves
        #: follow its scan-vs-index choice, and every run records its
        #: Q-error.  An empty operand that decides its node ends it --
        #: the first of ``&``, ``-`` and of every selection, the second of
        #: a selection without an aggregate filter.  A hierarchical
        #: selection over scanned atomic leaves on one base reads them by
        #: one shared scan feeding its stack pass when the planner says
        #: windows cannot pay
        #: (:meth:`~repro.engine.optimizer.AccessPlanner.shares_scan`);
        #: otherwise its atomic witness and blocker operands are read over
        #: windows derived from its first operand when the planner finds
        #: that cheaper
        #: (:meth:`~repro.engine.optimizer.AccessPlanner.witness_windows`).
        self.planner = planner
        #: The rules the most recent :meth:`plan` applied.
        self.last_rewrites: List[str] = []
        #: Q-error of the most recent planned evaluation (root estimate
        #: vs actual result size); None before the first, and without a
        #: planner.
        self.last_qerror: Optional[float] = None
        #: Nodes decided by an empty operand: the operands after it and
        #: the node's own operator were skipped.
        self.short_circuits = 0
        #: Optional :class:`~repro.obs.heatmap.SubtreeHeatMap`; when set,
        #: every atomic leaf records one read (plus its logical page cost)
        #: under the leaf's base subtree -- leaves read by one shared scan
        #: one read each, and the scan's pages once.  None keeps the hot
        #: path at a single attribute check.
        self.heatmap = heatmap
        self.use_indices = use_indices
        #: Span tracer (see :mod:`repro.obs.trace`).  The default no-op
        #: tracer keeps the hot path allocation-free; pass a live
        #: :class:`~repro.obs.trace.Tracer` to record one span per
        #: operator with wall time and exact page-I/O attribution.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled and self.tracer.io is None:
            self.tracer.io = self.pager.stats
        #: Records the operators of the current run skipped (summed over
        #: the run's nodes).
        self._eval_errors = 0
        #: Live :class:`~repro.obs.budget.BudgetTracker` while a budgeted
        #: run is in flight (charged after every operator).
        self._budget_tracker = None

    @classmethod
    def from_instance(
        cls,
        instance: DirectoryInstance,
        page_size: int = 16,
        buffer_pages: int = 8,
        indices: tuple = (),
        **engine_options,
    ) -> "QueryEngine":
        """Bulk-load an instance and build a secondary index on each
        attribute in ``indices``."""
        store = DirectoryStore.from_instance(
            instance, page_size=page_size, buffer_pages=buffer_pages
        )
        if indices:
            store.build_indices(indices)
        return cls(store, **engine_options)

    # -- public API ---------------------------------------------------------

    def plan(self, query: Union[Query, str]) -> Tuple[Query, List[str]]:
        """Parse concrete syntax and apply the plan step once; returns
        (planned query, applied rules) -- the query itself and no rules
        without a planner.  Planning a planned query is a no-op."""
        if isinstance(query, str):
            with self.tracer.span("parse"):
                query = parse_query(query)
        rules: List[str] = []
        if self.planner is not None:
            query, rules = self.planner.plan(query)
        self.last_rewrites = rules
        return query, rules

    def run(self, query: Union[Query, str], budget=None) -> QueryResult:
        """Evaluate a query (AST or concrete syntax); return entries plus
        the I/O incurred.

        ``budget`` (a :class:`~repro.obs.budget.QueryBudget`; None means
        unlimited) caps the evaluation; on breach every intermediate run
        is freed and the structured
        :class:`~repro.obs.budget.BudgetExceeded` propagates to the
        caller -- the pager's :attr:`~repro.storage.pager.Pager.live_pages`
        is back at its pre-query value when it does."""
        planned, _rules = self.plan(query)
        return self.run_planned(planned, budget=budget)

    def run_planned(self, query: Query, budget=None) -> QueryResult:
        """:meth:`run` for a query :meth:`plan` already returned (no
        further rewriting): callers that look at the plan before running
        it -- the service probes its cache with the planned form --
        plan once and execute here."""
        before = self.pager.stats.snapshot()
        started = time.perf_counter()
        with self.tracer.span("execute") as span:
            result_run = self.open_planned(query, budget=budget)
            entries = result_run.to_list()
            result_run.free()
            span.set(rows=len(entries))
            eval_errors = self._eval_errors
            if eval_errors:
                span.set(eval_errors=eval_errors)
        elapsed = time.perf_counter() - started
        io = self.pager.stats.since(before)
        return QueryResult(entries, io, elapsed, eval_errors=eval_errors)

    def open_planned(self, query: Query, budget=None) -> Run:
        """The one guarded way into the recursion: arm ``budget`` (None
        -- unlimited -- creates no tracker), evaluate a planned query to
        its result run (caller frees it) and, with a planner, record the
        run-level Q-error.  :meth:`run` and EXPLAIN ``--analyze`` both
        come through here."""
        self._eval_errors = 0
        self._budget_tracker = (
            budget.start(self.pager.stats) if budget is not None else None
        )
        try:
            result = self.evaluate_to_run(query)
        finally:
            self._budget_tracker = None
        if self.planner is not None:
            self.last_qerror = self.planner.run_qerror(query, len(result))
        return result

    # -- recursive evaluation ---------------------------------------------

    def atomic_run(self, query: AtomicQuery, within=None) -> Run:
        """The local access path, and the default leaf provider: the
        scoped clustered scan or -- when ``use_indices`` allows it and,
        with a planner, its cost estimate prefers it -- a secondary
        index; over ``within``'s windows alone when the planner bounded
        the leaf."""
        use_index = self.use_indices
        if use_index and self.planner is not None and within is None:
            use_index = self.planner.plan_leaf(query)[0]
        return evaluate_atomic(self.store, query, use_index, within)

    def shared_scan(self, leaves: List[AtomicQuery]) -> SharedScan:
        """The local path's read of a node's atomic ``leaves`` on one
        base: one clustered scan of the store, labelled
        (:func:`~repro.engine.atomic.shared_scan`)."""
        return scan_leaves(self.store, leaves)

    def evaluate_to_run(self, query: Query, within=None) -> Run:
        """Evaluate ``query`` to a sorted run (caller frees it); an atomic
        ``query`` may be bounded to ``within``'s windows.

        With a live tracer, every query-tree node gets one span (named
        ``op:...``) recording its result size and -- via the tracer's ``io``
        -- the page transfers it caused, children included; the span tree
        mirrors the query tree exactly (minus operands a decided node
        skipped, and with one :data:`SHARED_SCAN_SPAN` in place of the
        leaves a shared scan read), which is what EXPLAIN ``--analyze``
        walks for per-operator actuals.  A bounded leaf's span carries
        ``windows``, the number of window roots it was read over."""
        if not self.tracer.enabled:
            result = self._evaluate_node(query, within)
            self._eval_errors += result.eval_errors
            self._charge(result)
            return result
        with self.tracer.span(_span_name(query)) as span:
            if within is not None:
                span.set(windows=len(within))
            result = self._evaluate_node(query, within)
            span.set(rows=len(result))
            if result.eval_errors:
                self._eval_errors += result.eval_errors
                span.set(eval_errors=result.eval_errors)
            self._charge(result)
            return result

    def _charge(self, result: Run) -> None:
        """Check the run's budget after one operator; on breach free the
        operator's own result before the error propagates (the operand
        runs are already freed by :meth:`_evaluate_node`'s ``finally``
        blocks, and earlier sibling runs by :meth:`_evaluate_operands`),
        keeping the cancellation leak-free end to end."""
        tracker = self._budget_tracker
        if tracker is None:
            return
        try:
            tracker.charge(result_entries=len(result))
        except BudgetExceeded:
            result.free()
            raise

    def _evaluate_operands(self, query: Query, children) -> Optional[List[Run]]:
        """Evaluate the operand subtrees of ``query`` in order.  Results
        come back in child order; on any failure every run evaluated so
        far is freed before the error re-raises.

        With a planner each operand also uses what the earlier ones
        returned: an empty operand that decides ``query``
        (:func:`_decides_when_empty`) ends the evaluation -- None comes
        back, the runs freed -- and once a hierarchical selection's first
        operand is in, its atomic witness and blocker operands are read
        over the planner's windows when that is cheaper."""
        planner = self.planner
        runs: List[Run] = []
        bounds = None
        try:
            for index, child in enumerate(children):
                within = bounds[index - 1] if bounds else None
                runs.append(self.evaluate_to_run(child, within))
                if planner is None:
                    continue
                if len(runs[-1]) == 0 and _decides_when_empty(query, index):
                    for run in runs:
                        run.free()
                    return None
                if index == 0 and isinstance(query, HierarchySelect):
                    bounds = planner.witness_windows(query, runs[0])
        except BaseException:
            for run in runs:
                run.free()
            raise
        return runs

    def _scan_for(self, query: Query):
        """The provider's ``shared_scan`` when ``query`` -- a boolean or a
        hierarchical selection -- reads its operands by one shared scan,
        else None.  Only with a planner, through a provider that has one,
        and where the planner says so
        (:meth:`~repro.engine.optimizer.AccessPlanner.shares_scan`)."""
        if self.planner is None:
            return None
        if self.leaves is None:
            scan = self.shared_scan
        else:
            scan = getattr(self.leaves, "shared_scan", None)
        if scan is None or not self.planner.shares_scan(query, self.use_indices):
            return None
        return scan

    def _shared_pass(self, query: Query, leaves, scan) -> Run:
        """``query`` over ``scan(leaves)``: the labelled stream goes straight
        to the label table of a boolean or to the stack pass of a
        selection.  The leaves get no spans of their own: one
        :data:`SHARED_SCAN_SPAN` holds the pass, with ``filters`` (how many
        leaves) and ``matches`` (each leaf's result size).  The heat map
        records one read per leaf under the shared base and the scan's own
        page reads once (its ``reads``, not the pages the pass writes or
        reads back)."""
        shared = scan(leaves)
        if not self.tracer.enabled:
            result = self._labelled_node(query, shared)
        else:
            with self.tracer.span(SHARED_SCAN_SPAN, filters=len(leaves)) as span:
                result = self._labelled_node(query, shared)
                span.set(rows=len(result), matches=shared.matches)
        if self.heatmap is not None:
            self.heatmap.record_read(
                leaves[0].base, pages=shared.reads, amount=len(leaves)
            )
        return result

    def _labelled_node(self, query: Query, stream: Labelled) -> Run:
        """A boolean or hierarchical node over the labelled stream of its
        operands."""
        op = _BOOLEAN_OPS.get(type(query))
        if op is not None:
            return boolean_merge(self.pager, op, stream)
        return hierarchical_select(self.pager, query.op, stream, query.agg)

    def _evaluate_node(self, query: Query, within=None) -> Run:
        if isinstance(query, AtomicQuery):
            leaves = self.leaves if self.leaves is not None else self.atomic_run
            heatmap = self.heatmap
            if heatmap is None:
                return leaves(query, within)
            before = self.pager.stats.snapshot()
            result = leaves(query, within)
            heatmap.record_read(
                query.base, pages=self.pager.stats.since(before).logical_total
            )
            return result

        children = query.children() if isinstance(query, Query) else ()
        labelled = isinstance(query, _LABELLED)
        if labelled:
            scan = self._scan_for(query)
            if scan is not None:
                return self._shared_pass(query, children, scan)
        runs = self._evaluate_operands(query, children)
        if runs is None:
            self.short_circuits += 1
            return Run(self.pager, (), 0)
        try:
            if labelled:
                return self._labelled_node(query, labeled_merge(runs))
            if isinstance(query, SimpleAggSelect):
                return simple_agg_select(self.pager, runs[0], query.agg)
            if isinstance(query, EmbeddedRef):
                return embedded_ref_select(
                    self.pager,
                    query.op,
                    runs[0],
                    runs[1],
                    query.attribute,
                    query.agg,
                )
            raise QueryError("unknown query node %r" % (query,))
        finally:
            for run in runs:
                run.free()

    def __repr__(self) -> str:
        return "QueryEngine(%r)" % self.store


def _decides_when_empty(query: Query, index: int) -> bool:
    """Does an empty operand ``index`` make ``query``'s result empty?

    The result of ``&``, ``-`` and of every selection is a subset of its
    first operand.  A selection without an aggregate filter also needs a
    witness from its second; with one, ``count($2) = 0`` holds on an empty
    witness set, so the second operand decides nothing."""
    if index == 0:
        return isinstance(query, (And, Diff, HierarchySelect, EmbeddedRef))
    return (
        index == 1
        and isinstance(query, (HierarchySelect, EmbeddedRef))
        and query.agg is None
    )


def _span_name(query: Query) -> str:
    """The span name for one query-tree node (stable operator labels)."""
    if isinstance(query, AtomicQuery):
        return "op:atomic"
    if type(query) in _BOOLEAN_OPS:
        return "op:%s" % _BOOLEAN_OPS[type(query)]
    if isinstance(query, HierarchySelect):
        return "op:hs:%s" % query.op
    if isinstance(query, SimpleAggSelect):
        return "op:agg"
    if isinstance(query, EmbeddedRef):
        return "op:er:%s" % query.op
    return "op:%s" % type(query).__name__.lower()
