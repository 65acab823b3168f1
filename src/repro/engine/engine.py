"""The query engine: bottom-up, pipelined evaluation of whole query trees
(Section 8.2).

Each query-tree node is evaluated with the operator algorithms of this
package; every operator consumes sorted runs and produces a sorted run, so
"no additional sorting of the result of an intermediate operator is
necessary" -- the property Theorems 8.3/8.4 rest on.  Intermediate runs are
freed as soon as their consumer is done, and all page traffic flows through
one pager, so a query's I/O cost is directly observable as the pager-stats
delta around :meth:`QueryEngine.run`.
"""

from __future__ import annotations

import time
from typing import List, Union

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
from ..obs.log import NULL_LOGGER
from ..obs.trace import NULL_TRACER
from ..query.parser import parse_query
from ..storage.pager import IOStats
from ..storage.runs import Run
from ..storage.store import DirectoryStore
from .atomic import evaluate_atomic
from .eragg import embedded_ref_select
from .hsagg import hierarchical_select
from .merge import boolean_merge
from .simpleagg import simple_agg_select

__all__ = ["QueryEngine", "QueryResult"]


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
        memory_pages: int = 4,
        tracer=None,
        pool=None,
        budget=None,
        log=None,
        heatmap=None,
    ):
        self.store = store
        self.pager = store.pager
        #: Optional :class:`~repro.obs.heatmap.SubtreeHeatMap`; when set,
        #: every atomic leaf records one read (plus its logical page cost)
        #: under the leaf's base subtree.  None keeps the hot path at a
        #: single attribute check.
        self.heatmap = heatmap
        self.use_indices = use_indices
        #: Workspace bound for the sorts inside vd/dv (Figure 3).
        self.memory_pages = memory_pages
        #: Engine-level default :class:`~repro.obs.budget.QueryBudget`
        #: applied to every run (a per-call budget overrides it).  None
        #: means unlimited -- the default, and free: no tracker is
        #: created and the per-operator charge check is one attribute
        #: load.
        self.budget = budget
        #: Structured event logger (see :mod:`repro.obs.log`); the no-op
        #: default keeps the hot path free of formatting work.
        self.log = log if log is not None else NULL_LOGGER
        #: Span tracer (see :mod:`repro.obs.trace`).  The default no-op
        #: tracer keeps the hot path allocation-free; pass a live
        #: :class:`~repro.obs.trace.Tracer` to record one span per
        #: operator with wall time and exact page-I/O attribution.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled and "io" not in self.tracer.probes:
            self.tracer.add_probe("io", self.pager.stats)
        #: Optional :class:`~repro.exec.WorkerPool`: when it can run
        #: concurrently, the two operands of a boolean node are evaluated
        #: in parallel (they are independent subtrees; the merge is the
        #: barrier).  None or a single-worker pool keeps evaluation
        #: strictly sequential -- the default.
        self.pool = pool
        #: Per-operator skip counts collected during one run (list of
        #: ints: appends are atomic under the GIL, so parallel subtrees
        #: may report concurrently).
        self._eval_error_counts: List[int] = []
        #: Live :class:`~repro.obs.budget.BudgetTracker` while a budgeted
        #: run is in flight (charged after every operator, also from
        #: pool workers -- reads are lock-protected inside the stats).
        self._budget_tracker = None

    @classmethod
    def from_instance(
        cls,
        instance: DirectoryInstance,
        page_size: int = 16,
        buffer_pages: int = 8,
        int_indices: tuple = (),
        string_indices: tuple = (),
        **engine_options,
    ) -> "QueryEngine":
        """Bulk-load an instance and build the requested secondary indices."""
        store = DirectoryStore.from_instance(
            instance, page_size=page_size, buffer_pages=buffer_pages
        )
        if int_indices or string_indices:
            store.build_indices(tuple(int_indices), tuple(string_indices))
        return cls(store, **engine_options)

    # -- public API ---------------------------------------------------------

    def run(self, query: Union[Query, str], budget=None) -> QueryResult:
        """Evaluate a query (AST or concrete syntax); return entries plus
        the I/O incurred.

        ``budget`` (or the engine-level default) caps the evaluation; on
        breach every intermediate run is freed and the structured
        :class:`~repro.obs.budget.BudgetExceeded` propagates to the
        caller -- the pager's :attr:`~repro.storage.pager.Pager.live_pages`
        is back at its pre-query value when it does."""
        if isinstance(query, str):
            with self.tracer.span("parse"):
                query = parse_query(query)
        self._eval_error_counts = []
        active = budget if budget is not None else self.budget
        self._budget_tracker = (
            active.start(self.pager.stats) if active is not None else None
        )
        before = self.pager.stats.snapshot()
        started = time.perf_counter()
        try:
            with self.tracer.span("execute") as span:
                result_run = self.evaluate_to_run(query)
                entries = result_run.to_list()
                result_run.free()
                span.set(rows=len(entries))
                eval_errors = sum(self._eval_error_counts)
                if eval_errors:
                    span.set(eval_errors=eval_errors)
        finally:
            self._budget_tracker = None
        elapsed = time.perf_counter() - started
        io = self.pager.stats.since(before)
        if self.log.enabled_for("debug"):
            self.log.debug(
                "engine.run",
                rows=len(entries),
                pages=io.logical_total,
                elapsed_s=round(elapsed, 6),
                eval_errors=eval_errors or None,
            )
        return QueryResult(entries, io, elapsed, eval_errors=eval_errors)

    # -- recursive evaluation ---------------------------------------------

    def atomic_run(self, query: AtomicQuery) -> Run:
        """Evaluate one atomic leaf.  Overridden by the distributed
        coordinator (Section 8.3) to route leaves to the owning server."""
        return evaluate_atomic(self.store, query, self.use_indices)

    def evaluate_to_run(self, query: Query) -> Run:
        """Evaluate ``query`` to a sorted run (caller frees it).

        With a live tracer, every query-tree node gets one span (named
        ``op:...``) recording its result size and -- via the ``io`` probe
        -- the page transfers it caused, children included; the span tree
        mirrors the query tree exactly, which is what EXPLAIN
        ``--analyze`` walks for per-operator actuals."""
        if not self.tracer.enabled:
            result = self._evaluate_node(query)
            if result.eval_errors:
                self._eval_error_counts.append(result.eval_errors)
            self._charge(result)
            return result
        with self.tracer.span(_span_name(query)) as span:
            result = self._evaluate_node(query)
            span.set(rows=len(result))
            if result.eval_errors:
                self._eval_error_counts.append(result.eval_errors)
                span.set(eval_errors=result.eval_errors)
            self._charge(result)
            return result

    def _charge(self, result: Run) -> None:
        """Check the run's budget after one operator; on breach free the
        operator's own result before the error propagates (the operand
        runs are already freed by :meth:`_evaluate_node`'s ``finally``
        blocks, and in-flight sibling runs by :meth:`_evaluate_operands`),
        keeping the cancellation leak-free end to end."""
        tracker = self._budget_tracker
        if tracker is None:
            return
        try:
            tracker.charge(result_entries=len(result))
        except BudgetExceeded:
            result.free()
            raise

    def _evaluate_operands(self, children) -> List[Run]:
        """Evaluate independent sibling subtrees, in parallel when the
        engine has a concurrent pool (the caller's merge is the barrier).
        Results come back in child order; on any failure every sibling's
        run is freed before the first error re-raises."""
        pool = self.pool
        if pool is None or not pool.parallel or len(children) <= 1:
            sequential: List[Run] = []
            try:
                for child in children:
                    sequential.append(self.evaluate_to_run(child))
            except BaseException:
                for run in sequential:
                    run.free()
                raise
            return sequential
        context = self.tracer.context()

        def evaluate(child):
            token = self.tracer.adopt(context)
            try:
                return ("ok", self.evaluate_to_run(child))
            except Exception as exc:
                return ("err", exc)
            finally:
                self.tracer.release(token)

        runs: List[Run] = []
        first_error = None
        for status, value in pool.map_ordered(evaluate, list(children)):
            if status == "ok":
                runs.append(value)
            elif first_error is None:
                first_error = value
        if first_error is not None:
            for run in runs:
                run.free()
            raise first_error
        return runs

    def _evaluate_node(self, query: Query) -> Run:
        if isinstance(query, AtomicQuery):
            heatmap = self.heatmap
            if heatmap is None:
                return self.atomic_run(query)
            before = self.pager.stats.snapshot()
            result = self.atomic_run(query)
            heatmap.record_read(
                query.base, pages=self.pager.stats.since(before).logical_total
            )
            return result

        if isinstance(query, (And, Or, Diff)):
            op = {And: "and", Or: "or", Diff: "diff"}[type(query)]
            left, right = self._evaluate_operands((query.left, query.right))
            try:
                return boolean_merge(self.pager, op, left, right)
            finally:
                left.free()
                right.free()

        if isinstance(query, HierarchySelect):
            operands = [query.first, query.second]
            if query.third is not None:
                operands.append(query.third)
            runs = self._evaluate_operands(operands)
            first, second = runs[0], runs[1]
            third = runs[2] if query.third is not None else None
            try:
                return hierarchical_select(
                    self.pager, query.op, first, second, third, query.agg
                )
            finally:
                first.free()
                second.free()
                if third is not None:
                    third.free()

        if isinstance(query, SimpleAggSelect):
            operand = self.evaluate_to_run(query.operand)
            try:
                return simple_agg_select(self.pager, operand, query.agg)
            finally:
                operand.free()

        if isinstance(query, EmbeddedRef):
            first, second = self._evaluate_operands((query.first, query.second))
            try:
                return embedded_ref_select(
                    self.pager,
                    query.op,
                    first,
                    second,
                    query.attribute,
                    query.agg,
                    memory_pages=self.memory_pages,
                )
            finally:
                first.free()
                second.free()

        raise QueryError("unknown query node %r" % (query,))

    def __repr__(self) -> str:
        return "QueryEngine(%r)" % self.store


def _span_name(query: Query) -> str:
    """The span name for one query-tree node (stable operator labels)."""
    if isinstance(query, AtomicQuery):
        return "op:atomic"
    if isinstance(query, (And, Or, Diff)):
        return "op:%s" % {And: "and", Or: "or", Diff: "diff"}[type(query)]
    if isinstance(query, HierarchySelect):
        return "op:hs:%s" % query.op
    if isinstance(query, SimpleAggSelect):
        return "op:agg"
    if isinstance(query, EmbeddedRef):
        return "op:er:%s" % query.op
    return "op:%s" % type(query).__name__.lower()
