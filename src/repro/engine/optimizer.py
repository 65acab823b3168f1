"""Query optimisation: algebraic rewrites, access-path choice, EXPLAIN.

Four pieces, all grounded in the paper:

1. **Rewrites** (:func:`rewrite`):

   - *R1, the Section 8.1 identity in reverse*: the paper shows
     ``(p Q1 Q2) = (ac Q1 Q2 (null-dn ? sub ? objectClass=*))`` and warns
     that the rewriting "would lead to a very expensive evaluation as
     written".  The optimiser recognises an ``ac``/``dc`` node whose third
     operand is the whole instance and replaces it with the cheap ``p``/
     ``c`` -- turning the paper's design argument into an optimisation.
     The whole-instance test accepts both spellings the parser produces
     for the paper-literal string: ``MatchAll`` and the schema-guaranteed
     always-true ``Presence("objectClass")`` (Definition 3.2 (c2) puts
     ``objectClass`` on every entry).
   - *R2, boolean idempotence*: ``(& Q Q) -> Q`` and ``(| Q Q) -> Q``.
   - *R3, scope tightening*: in ``(& A B)`` with sub-scoped atomic
     operands whose bases are nested, the outer base can be narrowed to
     the inner one (the intersection lives inside the smaller subtree),
     shrinking the leaf's scan range.
   - *R4, boolean absorption*: when one operand of ``&``/``|`` is an
     always-true sub-scoped atomic whose subtree provably contains the
     other operand's read footprint, the intersection is the other
     operand and the union is the covering operand -- one whole
     evaluation disappears.
   - *R5, difference tightening*: in ``(- A B)`` only the part of ``B``
     inside ``A``'s footprint can cancel anything, so a wider sub-scoped
     ``B`` narrows to ``A``'s range.
   - *R6, hierarchical scope push-down*: the descendant-directed
     operators (``c``/``d``/``dc``) find witnesses and separators only
     *inside* the subtree of a selected entry, so wider sub-scoped
     second/third operands narrow to the first operand's base.  (Not
     sound for ``p``/``a``/``ac``: ancestors escape the subtree.)

   R3, R5 and R6 are one step, :func:`_narrow`, applied where the rule has
   shown nothing outside a subtree matters.  Every rewriter here and in
   :mod:`repro.query.normalize` rebuilds a node one way,
   :meth:`~repro.query.ast.Query.with_children`.

2. **Cost-based operand ordering** (*R7*, :func:`reorder_operands`):
   ``&`` and ``|`` are commutative, so the planner puts the operand with
   the smaller estimated cardinality first -- cheapest-first for ``&``
   (an empty first operand short-circuits the whole node in a planned
   engine), and short-circuit-aware for ``|`` (the cheaper operand runs
   while R4 absorption handles the provably covering case).  ``-`` is
   never reordered.  Estimates fold bottom-up from one per-node step
   (:func:`_estimate`), so R7 and EXPLAIN estimate each subtree once.

3. **Access-path choice** (:meth:`AccessPlanner.plan_leaf`): per atomic
   leaf, compare the estimated cost of the clustered subtree scan against
   the secondary index :func:`~repro.engine.atomic.index_path` offers for
   the filter, if any, using the
   :class:`~repro.engine.stats.CardinalityEstimator`.  A boolean or a
   hierarchical selection whose operands are scanned leaves on one base
   reads them all by one shared scan (:meth:`AccessPlanner.shares_scan`)
   unless the per-leaf path can stop earlier for less: a selection whose
   first operand is small enough for windows to pay reads its witness
   leaves over windows around its first operand's entries
   (:meth:`AccessPlanner.witness_windows`), and a ``&``/``-`` whose
   first operand is scoped narrower than the other keeps its
   short-circuit.

4. **EXPLAIN and the Q-error loop** (:func:`explain`): a physical-plan
   rendering with estimated cardinalities and chosen access paths; with
   ``analyze=True`` each operator also carries its actual size, its exact
   (exclusive) page I/O, and its **Q-error** ``max(est/actual,
   actual/est)`` -- observed into the ``repro_planner_qerror`` histogram
   -- and nodes whose Q-error crosses :data:`QERROR_ALERT` get a
   replan/rewrite hint from the symptom routing table
   (:data:`QERROR_ROUTES`).

There is one engine, :class:`~repro.engine.engine.QueryEngine`; the
:class:`AccessPlanner` is its optional plan step.  Given one, the engine
applies :meth:`AccessPlanner.plan` (rewrites + cost-based ordering) once
per query, follows the planner's per-leaf decisions, stops a node at an
empty operand that decides it, reads a boolean's or a hierarchical
selection's operands by one shared scan
(:meth:`AccessPlanner.shares_scan`) or a selection's witness leaves over
the windows :meth:`AccessPlanner.witness_windows`
derives from its first operand, and reports the run-level Q-error of
every query it executes; EXPLAIN and ``repro plan`` render the same
``plan()``.  :class:`PlannedEngine` is only a constructor: a
``QueryEngine`` whose planner is built from ``stats=`` / ``metrics=``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..filters.ast import Comparison, Equality, MatchAll, Presence, Substring
from ..model.dn import DN
from ..model.schema import OBJECT_CLASS

from ..query.ast import (
    And,
    AtomicQuery,
    Diff,
    EmbeddedRef,
    HierarchySelect,
    Or,
    Query,
    Scope,
    SimpleAggSelect,
)
from ..storage.runs import Run
from ..storage.store import DirectoryStore
from .atomic import evaluate_atomic  # noqa: F401 -- only bench/shims.py rebinds it here
from .atomic import Window, clip_window, index_path
from .engine import SHARED_SCAN_SPAN, QueryEngine
from .merge import boolean_merge  # noqa: F401 -- only bench/shims.py rebinds it here
from .stackjoin import ABOVE_OPS
from .stats import CardinalityEstimator

__all__ = [
    "rewrite",
    "reorder_operands",
    "estimate_cardinality",
    "qerror",
    "qerror_histogram",
    "route_hints",
    "QERROR_ALERT",
    "QERROR_ROUTES",
    "AccessPlanner",
    "PlannedEngine",
    "explain",
    "ExplainNode",
]


# ---------------------------------------------------------------------------
# Rewrites
# ---------------------------------------------------------------------------


def _always_true_filter(filter_) -> bool:
    """Filters the schema guarantees every entry satisfies: ``MatchAll``
    and the exact-case presence of ``objectClass`` (Definition 3.2 (c2)
    puts it on every entry; presence tests are case-sensitive, so the
    lowercase spelling names a different -- generally absent --
    attribute and must not be treated as always-true)."""
    if isinstance(filter_, MatchAll):
        return True
    return isinstance(filter_, Presence) and filter_.attribute == OBJECT_CLASS


def _sub_atomic(query: Query) -> bool:
    return isinstance(query, AtomicQuery) and query.scope == Scope.SUB


def _is_whole_instance(query: Query) -> bool:
    return (
        _sub_atomic(query) and query.base.is_null() and _always_true_filter(query.filter)
    )


def _footprint_within(base, query: Query) -> bool:
    """Is ``query``'s read footprint provably inside ``subtree(base)``?
    Every operator's result is contained in its footprint (see
    :mod:`repro.cache.footprint`), so this also bounds the result set."""
    from ..cache.footprint import query_footprint

    return all(
        base.is_prefix_of(root) for root, _subtree in query_footprint(query).ranges
    )


def _absorb(node: Query, applied: List[str]):
    """R4: ``(& cover Q) -> Q`` and ``(| cover Q) -> cover`` when
    ``cover`` is an always-true sub-scoped atomic whose subtree contains
    ``Q``'s footprint (so ``cover``'s result provably contains ``Q``'s)."""
    for kept, cover in ((node.right, node.left), (node.left, node.right)):
        if not (_sub_atomic(cover) and _always_true_filter(cover.filter)):
            continue
        if not _footprint_within(cover.base, kept):
            continue
        if isinstance(node, And):
            applied.append("R4: & operand absorbed (always-true cover)")
            return kept
        applied.append("R4: | collapsed to its always-true cover")
        return cover
    return None


def _narrow(operand: Query, base, note: str, applied: List[str]) -> Query:
    """R3/R5/R6: a sub-scoped atomic ``operand`` whose base lies strictly
    above ``base`` narrows to ``subtree(base)`` (the caller has shown
    nothing outside it can matter); records ``note`` and the base."""
    if not (_sub_atomic(operand) and operand.base.is_prefix_of(base)
            and operand.base != base):
        return operand
    applied.append("%s %s" % (note, base))
    return AtomicQuery(base, Scope.SUB, operand.filter)


def rewrite(query: Query) -> Tuple[Query, List[str]]:
    """Apply the rewrite rules bottom-up; returns (query', applied-rules).

    The query is first normalised (associativity/commutativity/duplicate
    elimination of the boolean operators), so R2 also catches commuted
    duplicates like ``(& (& A B) (& B A))``."""
    from ..cache.footprint import query_footprint
    from ..query.normalize import normalize

    normalized = normalize(query)
    applied: List[str] = []
    if normalized != query:
        applied.append("R0: boolean operands normalised")

    def walk(node: Query) -> Query:
        children = node.children()
        if not children:
            return node
        node = node.with_children([walk(child) for child in children])
        if isinstance(node, (And, Or)):
            if node.left == node.right:
                applied.append("R2: idempotent %s collapsed" % type(node).__name__)
                return node.left
            absorbed = _absorb(node, applied)
            if absorbed is not None:
                return absorbed
        if isinstance(node, And) and _sub_atomic(node.left) and _sub_atomic(node.right):
            # R3: the intersection of nested subtrees lies in the inner one.
            left = _narrow(node.left, node.right.base,
                           "R3: scope of left operand tightened to", applied)
            right = _narrow(node.right, left.base,
                            "R3: scope of right operand tightened to", applied)
            return node.with_children((left, right))
        if isinstance(node, Diff) and _sub_atomic(node.right):
            # R5: entries of B outside A's read region cancel nothing; A's
            # side is never touched (the result must stay within A).
            roots = list(query_footprint(node.left).ranges)
            if len(roots) == 1:
                return node.with_children((node.left, _narrow(
                    node.right, roots[0][0],
                    "R5: right operand of - tightened to", applied)))
        if not isinstance(node, HierarchySelect):
            return node
        if node.op in ("ac", "dc") and _is_whole_instance(node.third):
            cheap_op = "p" if node.op == "ac" else "c"
            applied.append(
                "R1: (%s Q1 Q2 whole-instance) -> (%s Q1 Q2)" % (node.op, cheap_op)
            )
            node = HierarchySelect(cheap_op, node.first, node.second, None, node.agg)
        first, *rest = node.children()
        if node.op in ("c", "d", "dc") and isinstance(first, AtomicQuery):
            # R6: witnesses (and dc separators) of a selected entry are its
            # descendants, so they live inside the first operand's subtree.
            rest = [
                _narrow(operand, first.base, "R6: %s operand of %s pushed into scope"
                        % (which, node.op), applied)
                for which, operand in zip(("second", "third"), rest)
            ]
            node = node.with_children([first] + rest)
        return node

    return walk(normalized), applied


# ---------------------------------------------------------------------------
# Cardinality estimation over whole trees, Q-error and its routing table
# ---------------------------------------------------------------------------


def _estimate(
    node: Query, child_estimates: List[float], estimator: CardinalityEstimator
) -> float:
    """Estimated result size of ``node`` given its children's: every
    estimate is folded bottom-up from this one step."""
    if isinstance(node, AtomicQuery):
        return estimator.atomic_cardinality(node)
    if isinstance(node, And):
        return min(child_estimates)
    if isinstance(node, Or):
        return min(sum(child_estimates), estimator.stats.total_entries)
    if isinstance(node, Diff):
        return child_estimates[0]
    return child_estimates[0] * 0.5


def estimate_cardinality(node: Query, estimator: CardinalityEstimator) -> float:
    """Estimated result size of a whole query tree (the cost spine the
    reorderer, EXPLAIN and the run-level Q-error all share)."""
    children = [estimate_cardinality(child, estimator) for child in node.children()]
    return _estimate(node, children, estimator)


def qerror(estimate: float, actual: float) -> float:
    """The Q-error ``max(est/actual, actual/est)``, floored at one entry
    on both sides so empty results stay finite.  1.0 is a perfect
    estimate; the factor is symmetric in over- and under-estimation."""
    est = max(float(estimate), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


#: Histogram buckets for Q-error (1 = perfect; each bucket doubles).
QERROR_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Q-error at or above which EXPLAIN flags a node and routes a hint.
QERROR_ALERT = 4.0


def qerror_histogram(registry):
    """The shared ``repro_planner_qerror`` histogram (idempotent)."""
    return registry.histogram(
        "repro_planner_qerror",
        "Planner Q-error max(est/actual, actual/est), per planned run and "
        "per analyzed operator",
        buckets=QERROR_BUCKETS,
    )


#: The symptom -> rewrite/replan routing table: a persistently
#: mis-estimated node shape maps to the action that usually repairs it
#: (the DuckDB/PostgreSQL playbook: find the cost spine, measure
#: per-operator Q-error, route the symptom to a fix).
QERROR_ROUTES = {
    "leaf-substring": (
        "substring selectivity is a default guess; build a string index on "
        "the attribute or rebuild statistics"
    ),
    "leaf-equality": (
        "value frequency missed by the tracked common values; rebuild "
        "statistics (stale after updates?) or add an index on the attribute"
    ),
    "leaf-range": (
        "int histogram no longer matches the data; rebuild statistics"
    ),
    "leaf-presence": (
        "attribute carry-rate drifted; rebuild statistics"
    ),
    "leaf": (
        "leaf estimate off; rebuild statistics"
    ),
    "boolean-and": (
        "operands look correlated (independence assumption misfires); "
        "tighten scopes (R3/R6) or check the operand order with `repro plan`"
    ),
    "boolean-or": (
        "union overlap differs from the disjointness assumption; consider "
        "the absorbing form (R4) if one operand covers the other"
    ),
    "boolean-diff": (
        "difference cancels more/less than assumed; tighten the right "
        "operand's scope (R5)"
    ),
    "hierarchy": (
        "witness fanout differs from the 0.5 default; prefer the cheap "
        "p/c form (R1) and push scopes into the operands (R6)"
    ),
    "aggregate": (
        "aggregate selectivity defaulted; no statistics exist for "
        "aggregate filters yet"
    ),
    "embedded": (
        "embedded-reference fanout is unknowable from local statistics; "
        "consider materialising the reference closure"
    ),
}


def _symptom(node: Query) -> str:
    """The routing-table key for one query-tree node."""
    if isinstance(node, AtomicQuery):
        if isinstance(node.filter, Substring):
            return "leaf-substring"
        if isinstance(node.filter, Equality):
            return "leaf-equality"
        if isinstance(node.filter, Comparison):
            return "leaf-range"
        if isinstance(node.filter, Presence):
            return "leaf-presence"
        return "leaf"
    if isinstance(node, And):
        return "boolean-and"
    if isinstance(node, Or):
        return "boolean-or"
    if isinstance(node, Diff):
        return "boolean-diff"
    if isinstance(node, HierarchySelect):
        return "hierarchy"
    if isinstance(node, EmbeddedRef):
        return "embedded"
    return "aggregate"


def route_hints(node: Query, estimate: float, actual: Optional[int]) -> List[str]:
    """Replan/rewrite hints for one analyzed node: empty while the
    estimate holds, the routed symptom fix once Q-error crosses
    :data:`QERROR_ALERT`."""
    if actual is None:
        return []
    factor = qerror(estimate, actual)
    if factor < QERROR_ALERT:
        return []
    hint = QERROR_ROUTES.get(_symptom(node))
    return [hint] if hint else []


# ---------------------------------------------------------------------------
# Cost-based operand ordering (R7)
# ---------------------------------------------------------------------------


def reorder_operands(
    query: Query, estimator: CardinalityEstimator, applied: Optional[List[str]] = None
) -> Query:
    """R7: order the operands of every ``&``/``|`` cheapest (most
    selective) first, by estimated cardinality.  Both operators are
    commutative so results are bit-identical; the payoff is a planned
    engine's empty-first-operand short-circuit for ``&`` and smaller
    intermediate runs held live.  ``-`` is left alone (not commutative)."""
    return _reorder(query, estimator, applied if applied is not None else [])[0]


def _reorder(
    node: Query, estimator: CardinalityEstimator, notes: List[str]
) -> Tuple[Query, float]:
    """:func:`reorder_operands` of ``node`` and its estimate, each
    subtree estimated once, from its children's."""
    operands = node.children()
    if not operands:
        return node, _estimate(node, [], estimator)
    # An ac/dc node's third operand is ordered first, so its notes lead.
    order = (2, 0, 1) if len(operands) == 3 else range(len(operands))
    done = {i: _reorder(operands[i], estimator, notes) for i in order}
    children = [done[i][0] for i in range(len(operands))]
    estimates = [done[i][1] for i in range(len(operands))]
    if isinstance(node, (And, Or)) and estimates[1] < estimates[0]:
        notes.append(
            "R7: %s operands reordered (est %.1f before %.1f)"
            % (node.op, estimates[1], estimates[0])
        )
        children.reverse()
        estimates.reverse()
    node = node.with_children(children)
    return node, _estimate(node, estimates, estimator)


# ---------------------------------------------------------------------------
# Access-path choice
# ---------------------------------------------------------------------------


def _window_roots(op: str, first: Run) -> Iterator[Window]:
    """Where ``op``'s witnesses (and ``ac``/``dc`` blockers) of the
    entries of ``first`` can be, as distinct read windows, streamed as
    ``first`` is read: the subtree of each maximal entry for ``d``/``dc``,
    each entry and its children for ``c``, each parent for ``p``, and
    each proper ancestor for ``a``/``ac``."""
    if op in ("d", "dc"):
        last: Optional[DN] = None
        for entry in first:
            if last is None or not last.is_ancestor_of(entry.dn):
                last = entry.dn
                yield last, None
        return
    if op == "c":
        for entry in first:
            yield entry.dn, 1
        return
    seen = set()
    for entry in first:
        # Nearest first; ``seen`` is closed upwards, so the first repeat
        # ends the chain.
        for point in entry.dn.ancestors():
            if point in seen:
                break
            seen.add(point)
            yield point, 0
            if op == "p":
                break


class AccessPlanner:
    """The engine's plan step: rewrites and orders a query once
    (:meth:`plan`), chooses scan vs index per atomic leaf, cost-estimated
    in pages (:meth:`plan_leaf`), and scores every run's root estimate
    (:meth:`run_qerror`; ``metrics``, a registry, enables the
    ``repro_planner_qerror`` histogram)."""

    def __init__(
        self,
        store: DirectoryStore,
        estimator: Optional[CardinalityEstimator] = None,
        metrics=None,
    ):
        self.store = store
        self.estimator = estimator or CardinalityEstimator(store)
        self._m_qerror = qerror_histogram(metrics) if metrics is not None else None

    def plan(self, query: Query) -> Tuple[Query, List[str]]:
        """Rewrite + cost-order ``query``; returns (planned query, applied
        rules).  Idempotent: planning a planned query is a no-op."""
        query, applied = rewrite(query)
        return reorder_operands(query, self.estimator, applied), applied

    def run_qerror(self, query: Query, rows: int) -> float:
        """Close the feedback loop for one executed plan: the Q-error of
        its root estimate against the ``rows`` it actually returned."""
        factor = qerror(estimate_cardinality(query, self.estimator), rows)
        if self._m_qerror is not None:
            self._m_qerror.observe(factor)
        return factor

    def _scan_pages(self, base: DN, max_depth: Optional[int]) -> int:
        """Estimated pages ``scan_pages(base, max_depth)`` reads: the
        subtree's page range when unbounded, one page for the base alone,
        and one level down a page per estimated child (the scan seeks past
        each child's subtree) but never more than the range."""
        if max_depth == 0:
            return 1
        start, end = self.store.page_range_for_subtree(base)
        pages = max(end - start, 1)
        if max_depth == 1:
            pages = min(pages, self.estimator.scope_size(base, Scope.ONE))
        return pages

    def _access_path(self, query: AtomicQuery) -> Tuple[bool, str, float]:
        """(use_index, access-path label, estimated pages) of the cheaper
        of the scoped scan and the index :func:`index_path` offers."""
        scan_pages = self._scan_pages(query.base, Scope.MAX_DEPTH[query.scope])
        path = index_path(self.store, query.filter)
        if path is None:
            return False, "scan[%d pages]" % scan_pages, scan_pages
        # Index cost: read matching postings (selectivity * index pages for
        # wildcards/presence; t/B for equality and ranges) + fetch ~t data
        # pages (unclustered).
        page_size = self.store.pager.page_size
        selectivity = self.estimator.filter_selectivity(query.filter)
        matches = selectivity * self.estimator.stats.total_entries
        if isinstance(query.filter, (Substring, Presence)):
            index_pages = max(self.estimator.stats.total_entries / page_size, 1)
        else:
            index_pages = max(matches / page_size, 1)
        index_cost = index_pages + matches  # one data-page fault per match
        if index_cost < scan_pages:
            return True, "%s[~%d matches]" % (path[0], int(matches)), index_cost
        return False, "scan[%d pages]" % scan_pages, scan_pages

    def plan_leaf(self, query: AtomicQuery) -> Tuple[bool, str, float]:
        """Returns (use_index, access-path label, estimated result size)."""
        use_index, label, _pages = self._access_path(query)
        return use_index, label, self.estimator.atomic_cardinality(query)

    def shares_scan(self, query: Query, use_indices: bool = True) -> bool:
        """Should one :func:`~repro.engine.atomic.shared_scan` read every
        operand of ``query``, a boolean or a hierarchical selection?  Only
        when they are atomic leaves on one base, each planned as the
        clustered scan.  Then one scan at the widest scope replaces k
        scans, k runs written and read back, and their merge -- unless
        the per-leaf path can stop early for less:

        - a selection whose first operand is estimated to hold fewer
          entries than the witness leaf's scan costs pages may read its
          witnesses over windows instead (:meth:`witness_windows` spends a
          page or more per window, so past that point no window list can
          pay);
        - a ``&`` or ``-`` whose first operand is scoped narrower than
          the widest operand reads that operand by its own scan first:
          fewer pages than the shared scan, and if it comes back empty
          it decides the node there.  Whether it will is not left to
          the estimate, which near zero is not to be trusted either way
          (an estimated 1.1 entries can be none)."""
        operands = query.children()
        first = operands[0]
        if not all(
            isinstance(operand, AtomicQuery) and operand.base == first.base
            for operand in operands
        ):
            return False
        if isinstance(query, HierarchySelect):
            second = operands[1]
            witness_pages = self._scan_pages(second.base, Scope.MAX_DEPTH[second.scope])
            if self.estimator.atomic_cardinality(first) < witness_pages:
                return False
        elif not isinstance(query, Or):
            reaches = [Scope.MAX_DEPTH[operand.scope] for operand in operands]
            reach = reaches[0]
            if reach is not None and (None in reaches or reach < max(reaches)):
                return False
        return not (use_indices and any(self._access_path(operand)[0] for operand in operands))

    def witness_windows(
        self, query: HierarchySelect, first: Run
    ) -> List[Optional[List[Window]]]:
        """Sideways bounds for a selection whose first operand has been
        materialised as ``first``: for each later operand, the windows to
        read it over (:func:`~repro.engine.atomic.clip_window` already
        applied), or None to read it whole.

        Only the entries of ``first`` are selected, so a witness or
        blocker matters only where it can relate to one of them
        (:func:`_window_roots`).  An atomic operand is bounded when
        reading ``first`` back plus its windows' estimated pages costs
        less than its own access path.  ``first`` is read back only while
        that can still hold for some operand: no further than the
        window that tips the last one over."""
        operands = query.children()[1:]
        read_back = first.page_count
        # The windows of c/d/dc hold every entry of ``first``, so they
        # cost at least as many pages as reading it back.
        least = 2 * read_back if query.op in ABOVE_OPS else read_back
        # Window pages each operand may still spend and stay cheaper.
        allowance = []
        for operand in operands:
            cost = self._access_path(operand)[2] if isinstance(operand, AtomicQuery) else 0
            allowance.append(cost - read_back if cost > least else 0)
        bounds: List[Optional[List[Window]]] = [
            [] if pages > 0 else None for pages in allowance
        ]
        live = [i for i, windows in enumerate(bounds) if windows is not None]
        roots = _window_roots(query.op, first) if live else ()
        for root, depth in roots:
            for i in live:
                window = clip_window(operands[i], root, depth)
                if window is None:
                    continue
                allowance[i] -= self._scan_pages(*window)
                if allowance[i] > 0:
                    bounds[i].append(window)
                else:
                    bounds[i] = None
            live = [i for i in live if bounds[i] is not None]
            if not live:
                break
        return bounds


# ---------------------------------------------------------------------------
# The planned engine and EXPLAIN
# ---------------------------------------------------------------------------


class PlannedEngine(QueryEngine):
    """A :class:`~repro.engine.engine.QueryEngine` whose planner is built
    here -- a constructor and nothing else; every method is the one
    engine's.

    ``stats`` may be a static :class:`~repro.engine.stats.
    DirectoryStatistics` snapshot or a :class:`~repro.engine.stats.
    LiveDirectoryStatistics` (estimates then track the directory).
    ``metrics`` (a registry) enables the ``repro_planner_qerror``
    histogram; extra keyword arguments (``tracer``, ``heatmap``, ...) pass
    through to the engine.
    """

    def __init__(
        self, store: DirectoryStore, stats=None, metrics=None, **engine_options
    ):
        self.estimator = CardinalityEstimator(store, stats)
        # Touch the statistics now: a lazy first collection would land its
        # scan inside the first query's measured I/O window.
        self.estimator.stats
        super().__init__(
            store,
            planner=AccessPlanner(store, self.estimator, metrics=metrics),
            **engine_options,
        )


class ExplainNode:
    """One node of an EXPLAIN tree.

    With ``analyze`` the node carries actuals measured on a single traced
    evaluation of the whole query: the operator's result size
    (``actual``), its *own* page transfers (``actual_io`` physical /
    ``actual_logical_io`` logical -- children's costs subtracted out, so
    the tree's values sum to the pager's global delta for the run), its
    inclusive wall time, its Q-error ``max(est/actual, actual/est)`` and
    -- when the Q-error crosses :data:`QERROR_ALERT` -- the routed
    replan hints.
    """

    def __init__(self, label: str, estimate: float, children: List["ExplainNode"],
                 actual: Optional[int] = None,
                 actual_io: Optional[int] = None,
                 actual_logical_io: Optional[int] = None,
                 elapsed: Optional[float] = None,
                 eval_errors: int = 0,
                 qerror: Optional[float] = None,
                 hints: Tuple[str, ...] = ()):
        self.label = label
        self.estimate = estimate
        self.children = children
        self.actual = actual
        self.actual_io = actual_io
        self.actual_logical_io = actual_logical_io
        self.elapsed = elapsed
        #: Source records this operator skipped because a value failed to
        #: evaluate (see :attr:`repro.engine.engine.QueryResult.eval_errors`).
        self.eval_errors = eval_errors
        self.qerror = qerror
        self.hints = tuple(hints)

    def total_io(self) -> int:
        """Sum of per-operator physical transfers over the subtree."""
        own = self.actual_io or 0
        return own + sum(child.total_io() for child in self.children)

    def total_logical_io(self) -> int:
        """Sum of per-operator logical page accesses over the subtree."""
        own = self.actual_logical_io or 0
        return own + sum(child.total_logical_io() for child in self.children)

    def max_qerror(self) -> Optional[float]:
        """The worst Q-error in the subtree (None without analyze)."""
        candidates = [self.qerror] if self.qerror is not None else []
        candidates += [
            child_max
            for child in self.children
            for child_max in [child.max_qerror()]
            if child_max is not None
        ]
        return max(candidates) if candidates else None

    def render(self, indent: int = 0) -> str:
        actual = "" if self.actual is None else "  actual=%d" % self.actual
        if self.actual_io is not None:
            actual += " io=%d lio=%d" % (self.actual_io, self.actual_logical_io or 0)
        if self.qerror is not None:
            actual += " qerr=%.1f" % self.qerror
        if self.eval_errors:
            actual += " eval_errors=%d" % self.eval_errors
        line = "%s%s  (est=%.1f%s)" % ("  " * indent, self.label, self.estimate, actual)
        lines = [line]
        lines += [
            "%s^ hint: %s" % ("  " * (indent + 1), hint) for hint in self.hints
        ]
        lines += [child.render(indent + 1) for child in self.children]
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-ready form (used by ``explain --json``)."""
        node = {"label": self.label, "estimate": self.estimate}
        if self.actual is not None:
            node["actual"] = self.actual
        if self.actual_io is not None:
            node["actual_io"] = self.actual_io
            node["actual_logical_io"] = self.actual_logical_io
        if self.elapsed is not None:
            node["elapsed_s"] = self.elapsed
        if self.eval_errors:
            node["eval_errors"] = self.eval_errors
        if self.qerror is not None:
            node["qerror"] = self.qerror
        if self.hints:
            node["hints"] = list(self.hints)
        node["children"] = [child.as_dict() for child in self.children]
        return node

    def __str__(self) -> str:
        return self.render()


def explain(
    store: DirectoryStore,
    query: Query,
    analyze: bool = False,
    planner: Optional[AccessPlanner] = None,
    metrics=None,
) -> ExplainNode:
    """Build the EXPLAIN tree for ``query`` (post-rewrite, post-reorder:
    the tree shows the plan an engine with this planner would execute).
    With ``analyze=True`` the planned query is evaluated **once** through
    a span-traced engine sharing the planner; each node then carries the
    actual result size, its own (exclusive) page I/O and its Q-error,
    harvested from the span tree -- which mirrors the query tree exactly
    -- so the per-operator actuals sum to the pager's global delta for
    the run, and every per-operator Q-error is observed into the
    ``repro_planner_qerror`` histogram (``metrics`` overrides the
    process-wide registry).  An operand the engine skipped because an
    empty operand decided its node has no actuals and says so
    (``skipped: decided by empty first operand``); a leaf read over
    windows is labelled ``via window[k roots]``, and the leaves a shared
    scan read ``via shared scan[k filters]`` -- each with its own result
    size and no pages or time of its own: the scan and the pass it fed
    are the node's."""
    from ..obs.trace import Tracer

    planner = planner or AccessPlanner(store)
    query, applied = planner.plan(query)
    root_span = None
    if analyze:
        # The same planner, its statistics already collected: the traced
        # window holds the evaluation's I/O and nothing else, so the
        # per-operator actuals sum exactly to the pager delta of the run.
        tracer = Tracer()
        QueryEngine(store, tracer=tracer, planner=planner).open_planned(query).free()
        root_span = tracer.last_root()

    def build(node: Query, span, shared=None, index: int = 0) -> ExplainNode:
        """``span`` is the node's own; a leaf read by a shared scan has
        none and takes its actuals from ``shared``, the scan's span."""
        child_spans = span.children if span is not None else []
        if [child.name for child in child_spans] == [SHARED_SCAN_SPAN]:
            scan = child_spans[0]
            children = [
                build(child, None, scan, i) for i, child in enumerate(node.children())
            ]
        else:
            scan = None
            children = [
                build(child, child_spans[i] if i < len(child_spans) else None)
                for i, child in enumerate(node.children())
            ]
            if span is not None and len(child_spans) < len(children):
                # The engine stopped at an empty operand that decided the node.
                decider = ("first", "second")[len(child_spans) - 1]
                for skipped in children[len(child_spans):]:
                    skipped.label += "  skipped: decided by empty %s operand" % decider
        # A leaf read over windows returns only part of what its estimate
        # is for: it gets no Q-error.
        windowed = span is not None and "windows" in span.attrs
        if isinstance(node, AtomicQuery):
            _use_index, label, node_estimate = planner.plan_leaf(node)
            if shared is not None:
                label = "shared scan[%d filters]" % shared.attrs["filters"]
            elif windowed:
                label = "window[%d roots]" % span.attrs["windows"]
            text = "atomic %s via %s" % (node, label)
        else:
            node_estimate = _estimate(
                node, [child.estimate for child in children], planner.estimator
            )
            if isinstance(node, (And, Or, Diff)):
                text = "boolean %s" % type(node).__name__.lower()
            elif isinstance(node, HierarchySelect):
                text = "hierarchy %s%s" % (node.op, " +agg" if node.agg else "")
            elif isinstance(node, SimpleAggSelect):
                text = "aggregate g [%s]" % node.agg
            else:
                text = "embedded %s(%s)%s" % (
                    node.op, node.attribute, " +agg" if node.agg else "")
        actual = actual_io = actual_logical = elapsed = None
        eval_errors = 0
        if span is not None:
            actual = span.attrs.get("rows")
            actual_io = span.exclusive("io", "total")
            actual_logical = span.exclusive("io", "logical_total")
            elapsed = span.elapsed
            eval_errors = span.attrs.get("eval_errors", 0)
            if scan is not None:
                # The pass the shared scan fed is this node's own work.
                actual_io += scan.exclusive("io", "total")
                actual_logical += scan.exclusive("io", "logical_total")
        elif shared is not None:
            # The leaf's entries were counted as the scan passed them; its
            # pages and its time are the node's.
            actual = shared.attrs["matches"][index]
            actual_io = actual_logical = 0
            elapsed = 0.0
        node_qerror = None
        hints: Tuple[str, ...] = ()
        if actual is not None and not windowed:
            node_qerror = qerror(node_estimate, actual)
            hints = tuple(route_hints(node, node_estimate, actual))
        return ExplainNode(
            text,
            node_estimate,
            children,
            actual,
            actual_io=actual_io,
            actual_logical_io=actual_logical,
            elapsed=elapsed,
            eval_errors=eval_errors,
            qerror=node_qerror,
            hints=hints,
        )

    root = build(query, root_span)
    if applied:
        root.label += "  [rewrites: %s]" % "; ".join(applied)
    if analyze:
        from ..obs.metrics import get_registry

        histogram = qerror_histogram(metrics if metrics is not None else get_registry())

        def observe(node: ExplainNode) -> None:
            if node.qerror is not None:
                histogram.observe(node.qerror)
            for child in node.children:
                observe(child)

        observe(root)
    return root
