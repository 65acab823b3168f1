"""One scan feeds one pass, held to the paper-literal engine.

A planned hierarchical selection whose operands are scanned atomic leaves
on one base -- with a first operand the planner expects to be too large
for witness windows to pay -- reads all of them by one shared scan and
hands each ``(entry, mask)`` straight to the stack pass, which selects
every entry of the first operand as its witness state resolves.  A
planned ``&``/``|``/``-`` over two scanned leaves on one base reads them
by one shared scan too, and its label table keeps or drops each labelled
entry.  None of that may change an answer: on every seeded query here the
planned engine, the plan-less engine (operand runs, labelled merge, the
same pass or table) and the definitional semantics agree entry for entry
and in order -- every operator, plain and with count, ``$2.weight`` and
entry-set aggregate filters, operands at ``base``, ``one`` and ``sub``
scope, blockers, and through a pinned view whose pending writes touch the
scanned range.  The shared scan is accounted like the leaves it replaces:
one heat-map read per leaf, the scan's own page reads once, the budget
checked after the node, and no page or pin left behind when the scan is
cut short.

CI repeats this module (``pytest-repeat``) in the planner-differential
job.
"""

import random

import pytest

from repro.engine import QueryEngine
from repro.engine.engine import SHARED_SCAN_SPAN
from repro.engine.optimizer import AccessPlanner, explain
from repro.model.instance import DirectoryInstance
from repro.obs.budget import BudgetExceeded, QueryBudget
from repro.obs.heatmap import SubtreeHeatMap
from repro.obs.trace import Tracer
from repro.query.parser import parse_query
from repro.query.semantics import evaluate
from repro.storage.maintenance import UpdatableDirectory
from repro.storage.store import DirectoryStore
from repro.workload import random_instance

from .test_sideways import _add, _atomic, _bases

SEEDS = range(6)
OPS = ("p", "c", "a", "d", "ac", "dc")
#: Plain; ``count($2)`` against a constant, either way; each ``$2.weight``
#: aggregate; and an entry-set aggregate, which keeps two phases.
AGGS = (
    None,
    "count($2) >= 2",
    "count($2) = 0",
    "count($2) < 3",
    "min($2.weight) < 40",
    "max($2.weight) > 50",
    "sum($2.weight) > 90",
    "average($2.weight) >= 50",
    "count($2) = max(count($2))",
)
#: Many pages per subtree, and one page for the whole instance (where a
#: one-entry first operand already pays for the shared scan).
PAGE_SIZES = (8, 256)
NEVER = 10 ** 9  # an auto_compact_at nothing here reaches


def make_store(seed, page_size):
    instance = random_instance(seed, size=160)
    return instance, DirectoryStore.from_instance(instance, page_size=page_size, buffer_pages=6)


def first_operands(mid):
    return {
        "base": _atomic(mid, "base", "objectClass=*"),
        "one": _atomic(mid, "one", "objectClass=*"),
        "sub": _atomic(mid, "sub", "weight<70"),
    }


def selections(instance):
    """(first operand's scope, query) for every operator x aggregate x
    first-operand scope, all operands on one base; ``ac``/``dc`` blockers
    sit on the chains between witnesses and selected entries."""
    _top, mid, _narrow = _bases(instance)
    witnesses = ("weight<50", "kind=alpha", "level>=3")
    out = []
    for scope, first in first_operands(mid).items():
        for op in OPS:
            for index, agg in enumerate(AGGS):
                operands = [first, _atomic(mid, "sub", witnesses[index % len(witnesses)])]
                if op in ("ac", "dc"):
                    operands.append(_atomic(mid, "sub", "level<4"))
                text = "(%s %s%s)" % (op, " ".join(operands), " " + agg if agg else "")
                out.append((scope, parse_query(text)))
    return out


def shared_spans(tracer):
    return [span for span in tracer.last_root().walk() if span.name == SHARED_SCAN_SPAN]


def planned_engine(store, **options):
    return QueryEngine(store, planner=AccessPlanner(store), **options)


@pytest.mark.parametrize("page_size", PAGE_SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_planned_literal_and_semantics_agree(seed, page_size):
    instance, store = make_store(seed, page_size)
    literal = QueryEngine(store)
    tracer = Tracer()
    planned = planned_engine(store, tracer=tracer)
    live = store.pager.live_pages
    shared = set()
    for scope, query in selections(instance):
        want = [str(entry.dn) for entry in evaluate(query, instance)]
        expected = literal.run(query)
        assert expected.dns() == want, str(query)
        got = planned.run(query)
        assert got.entries == expected.entries, str(query)
        assert store.pager.live_pages == live, str(query)
        if shared_spans(tracer):
            shared.add((scope, query.op))
    # The suite exercises what it is about: every operator shared a scan,
    # and so did every first-operand scope on the one-page store.
    assert {op for _scope, op in shared} == set(OPS)
    if page_size == 256:
        assert {scope for scope, _op in shared} == {"base", "one", "sub"}


@pytest.mark.parametrize("seed", range(4))
def test_overlay_touching_the_scanned_range(seed):
    """The shared scan reads through a pinned view: entries added,
    deleted and re-added under the base are witnesses, blockers and
    selected entries like any other."""
    instance, store = make_store(seed, 8)
    _top, mid, narrow = _bases(instance)
    directory = UpdatableDirectory(store, auto_compact_at=NEVER)
    directory.delete(narrow, recursive=True)
    _add(directory, narrow)
    _add(directory, narrow.child("name=again%d" % seed))
    _add(directory, mid.child("name=added%d" % seed))
    _add(directory, mid.child("name=added%d" % seed).child("name=deeper%d" % seed))
    with directory.acquire_view() as view:
        model = DirectoryInstance(instance.schema)
        for entry in view.scan_all():
            model.add_entry(entry)
    live = store.pager.live_pages
    shared = 0
    for op in OPS:
        third = " " + _atomic(mid, "sub", "level<9") if op in ("ac", "dc") else ""
        for agg in (None, "count($2) >= 2", "sum($2.weight) > 9"):
            text = "(%s %s %s%s%s)" % (
                op, _atomic(mid, "sub", "objectClass=*"), _atomic(mid, "sub", "kind=alpha"),
                third, " " + agg if agg else "",
            )
            query = parse_query(text)
            want = [str(entry.dn) for entry in evaluate(query, model)]
            with directory.acquire_view() as view:
                assert QueryEngine(view).run(query).dns() == want, text
                tracer = Tracer()
                assert planned_engine(view, tracer=tracer).run(query).dns() == want, text
                shared += len(shared_spans(tracer))
            assert store.pager.live_pages == live, text
    assert directory.pending() > 0 and directory.compactions == 0
    assert shared == len(OPS) * 3


def _fused(seed, op="dc", filters=("weight<70", "kind=alpha", "level<4")):
    """A store and a selection the planner reads by one shared scan."""
    instance, store = make_store(seed, 8)
    _top, mid, _narrow = _bases(instance)
    operands = [_atomic(mid, "sub", filter_) for filter_ in filters]
    if op not in ("ac", "dc"):
        operands.pop()
    query = parse_query("(%s %s)" % (op, " ".join(operands)))
    planner = AccessPlanner(store)
    assert planner.shares_scan(planner.plan(query)[0])
    return instance, store, query


class TestExplain:
    def test_shared_leaves_are_labelled_and_reconcile(self):
        instance, store, query = _fused(0)
        node = explain(store, query, analyze=True)
        assert len(node.children) == 3, node.render()
        for leaf, operand in zip(node.children, query.children()):
            assert leaf.label.endswith(" via shared scan[3 filters]"), node.render()
            assert "skipped" not in leaf.label
            # Each leaf's own result size, counted as the scan passed it.
            assert leaf.actual == len(evaluate(operand, instance))
            assert leaf.actual_io == leaf.actual_logical_io == 0
            assert leaf.qerror is not None
        # The scan and the pass it fed are the selection's own pages, and
        # the tree sums to what the same plan costs on its own.
        assert node.actual_logical_io == node.total_logical_io() > 0
        engine = planned_engine(store)
        before = store.pager.stats.snapshot()
        engine.open_planned(engine.plan(query)[0]).free()
        assert node.total_logical_io() == store.pager.stats.since(before).logical_total
        assert node.total_io() == sum(
            n.actual_io for n in [node] + node.children
        )

    def test_the_span_carries_filters_and_matches(self):
        instance, store, query = _fused(1, op="d")
        tracer = Tracer()
        result = planned_engine(store, tracer=tracer).run(query)
        (span,) = shared_spans(tracer)
        assert span.attrs["filters"] == 2
        assert span.attrs["rows"] == len(result)
        assert span.attrs["matches"] == [
            len(evaluate(operand, instance)) for operand in query.children()
        ]
        node = tracer.last_root().find("op:hs:d")
        assert [child.name for child in node.children] == [SHARED_SCAN_SPAN]


#: Operand filters whose first operand holds every entry, so that ``c``,
#: ``d`` and ``dc`` survivors wait for the base and fill spilled pages.
EVERYTHING_FIRST = ("objectClass=*", "weight<70", "level<2")


class TestAccounting:
    @pytest.mark.parametrize("filters", [None, EVERYTHING_FIRST], ids=["default", "spilling"])
    @pytest.mark.parametrize("op", OPS)
    def test_heat_map_reads_per_leaf_and_pages_once(self, op, filters):
        instance, store, query = _fused(2, op, *([filters] if filters else []))
        literal_heat, planned_heat = SubtreeHeatMap(depth=8), SubtreeHeatMap(depth=8)
        literal_tracer, tracer = Tracer(), Tracer()
        QueryEngine(store, heatmap=literal_heat, tracer=literal_tracer).run(query)
        planned_engine(store, heatmap=planned_heat, tracer=tracer).run(query)
        (literal_cell,) = literal_heat.hottest(10)
        (planned_cell,) = planned_heat.hottest(10)
        # One read per operand leaf, under the one base ...
        assert planned_cell["subtree"] == literal_cell["subtree"]
        assert planned_cell["reads_total"] == literal_cell["reads_total"] == len(query.children())
        # ... and the scan's pages charged once: what one of the literal
        # engine's leaves -- all scan the same range -- reads, not the
        # pages the pass writes or reads back.
        leaf_reads = {
            span.stats["io"].logical_reads
            for span in literal_tracer.last_root().walk() if span.name == "op:atomic"
        }
        assert planned_cell["pages_total"] in leaf_reads and len(leaf_reads) == 1
        assert planned_cell["pages_total"] < literal_cell["pages_total"]
        (span,) = shared_spans(tracer)
        assert planned_cell["pages_total"] < span.stats["io"].logical_total
        if op in ("c", "d", "dc"):
            # These defer survivors and read them back during the pass.
            assert planned_cell["pages_total"] < span.stats["io"].logical_reads

    def test_budget_is_checked_after_the_node(self):
        _instance, store, query = _fused(3)
        tracer = Tracer()
        engine = planned_engine(store, tracer=tracer)
        full = engine.run(query)
        pages = tracer.last_root().find("op:hs:dc").stats["io"].logical_total
        live = store.pager.live_pages
        for max_pages in range(pages):
            with pytest.raises(BudgetExceeded):
                engine.run(query, budget=QueryBudget(max_pages=max_pages))
            assert store.pager.live_pages == live, max_pages
            # The breach surfaces at the selection, after its pass: the
            # shared scan itself ran to the end.
            failing = [s for s in tracer.last_root().walk() if "error" in s.attrs]
            assert [s.name for s in failing] == ["execute", "op:hs:dc"], max_pages
        assert engine.run(query, budget=QueryBudget(max_pages=pages)).entries == full.entries

    @pytest.mark.parametrize("op", OPS)
    def test_a_breach_mid_scan_leaks_nothing(self, op):
        """Cut the shared scan short at every entry: whatever the pass
        held -- output pages, deferred survivors, spilled stack frames --
        is released.  Every entry is in the first operand, so survivors
        wait for the base and fill pages."""
        _instance, store, query = _fused(4, op, EVERYTHING_FIRST)
        want = planned_engine(store).run(query).entries
        live = store.pager.live_pages
        scanned = len(list(store.scan_subtree(query.first.base)))
        for after in range(scanned):
            tracer = Tracer()
            with pytest.raises(BudgetExceeded):
                planned_engine(_BreachingStore(store, after), tracer=tracer).run(query)
            assert "error" in shared_spans(tracer)[0].attrs
            assert store.pager.live_pages == live, after
        assert planned_engine(store).run(query).entries == want


class _BreachingStore:
    """``store`` whose scans raise a budget breach after ``after`` entries
    (the page holding the next one is cut there)."""

    def __init__(self, store, after):
        self._store = store
        self._after = after

    def __getattr__(self, name):
        return getattr(self._store, name)

    def scan_pages(self, base, max_depth=None):
        left = self._after
        for page in self._store.scan_pages(base, max_depth):
            if len(page) > left:
                if left:
                    yield page[:left]
                raise BudgetExceeded(BudgetExceeded.WALL_CLOCK, 0.0, 0.1)
            left -= len(page)
            yield page


# -- booleans over one shared scan -----------------------------------------

BOOLEAN_OPS = {"&": "and", "|": "or", "-": "diff"}
SCOPES = ("base", "one", "sub")
#: No filter here implies another, so no rewrite folds a node away.
LEAF_FILTERS = (
    "weight<50", "weight>=30", "kind=alpha", "level>=3", "level<2", "name=*1*",
)


def booleans(mid, seed):
    """``(op, first scope, second scope, query)``: every operator over
    every pair of scopes, on one base, with two distinct filters drawn
    from ``seed``."""
    rng = random.Random(seed)
    out = []
    for symbol, op in BOOLEAN_OPS.items():
        for first in SCOPES:
            for second in SCOPES:
                left, right = rng.sample(LEAF_FILTERS, 2)
                text = "(%s %s %s)" % (
                    symbol, _atomic(mid, first, left), _atomic(mid, second, right)
                )
                out.append((op, first, second, parse_query(text)))
    return out


def _identical(got, want):
    """Entry for entry and in order, and the very objects: a fused ``&``
    hands out the left operand's copy, as the merge does."""
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


class TestFusedBoolean:
    @pytest.mark.parametrize("page_size", PAGE_SIZES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_planned_literal_and_semantics_agree(self, seed, page_size):
        instance, store = make_store(seed, page_size)
        _top, mid, _narrow = _bases(instance)
        literal = QueryEngine(store)
        tracer = Tracer()
        planned = planned_engine(store, tracer=tracer)
        live = store.pager.live_pages
        shared = set()
        for op, first, second, query in booleans(mid, seed):
            want = [str(entry.dn) for entry in evaluate(query, instance)]
            expected = literal.run(query)
            assert expected.dns() == want, str(query)
            got = planned.run(query)
            assert _identical(got.entries, expected.entries), str(query)
            assert store.pager.live_pages == live, str(query)
            spans = shared_spans(tracer)
            if spans:
                assert len(spans) == 1, str(query)
                shared.add((op, first, second))
        # Every operator read one shared scan but where a ``&``/``-``
        # first operand kept its own narrower scan; a ``|`` always shares.
        assert {op for op, _first, _second in shared} == set(BOOLEAN_OPS.values())
        assert {(first, second) for op, first, second in shared if op == "or"} == {
            (first, second) for first in SCOPES for second in SCOPES
        }

    @pytest.mark.parametrize("seed", range(4))
    def test_overlay_touching_the_scanned_range(self, seed):
        instance, store = make_store(seed, 8)
        _top, mid, narrow = _bases(instance)
        directory = UpdatableDirectory(store, auto_compact_at=NEVER)
        directory.delete(narrow, recursive=True)
        _add(directory, narrow)
        _add(directory, mid.child("name=added%d" % seed))
        _add(directory, mid.child("name=added%d" % seed).child("name=deeper%d" % seed))
        with directory.acquire_view() as view:
            model = DirectoryInstance(instance.schema)
            for entry in view.scan_all():
                model.add_entry(entry)
        live = store.pager.live_pages
        shared = 0
        for _op, _first, _second, query in booleans(mid, seed):
            want = [str(entry.dn) for entry in evaluate(query, model)]
            with directory.acquire_view() as view:
                expected = QueryEngine(view).run(query)
                assert expected.dns() == want, str(query)
                tracer = Tracer()
                got = planned_engine(view, tracer=tracer).run(query)
                assert _identical(got.entries, expected.entries), str(query)
                shared += len(shared_spans(tracer))
            assert store.pager.live_pages == live, str(query)
        assert directory.pending() > 0 and directory.compactions == 0
        assert shared >= len(SCOPES) ** 2  # every ``|`` at least

    @pytest.mark.parametrize("symbol", ["&", "-"])
    def test_an_empty_narrower_first_operand_keeps_its_short_circuit(self, symbol):
        """Empty and scoped narrower than the other operand: its own scan
        decides the node, and the other leaf is never read.  As wide as
        the other, it reads no fewer pages than the shared scan, which
        reads both."""
        instance, store = make_store(0, 8)
        _top, mid, _narrow = _bases(instance)
        other = _atomic(mid, "sub", "kind=alpha")
        for scope, fused in (("one", False), ("base", False), ("sub", True)):
            query = parse_query("(%s %s %s)" % (symbol, _atomic(mid, scope, "name=nosuch"), other))
            tracer = Tracer()
            engine = planned_engine(store, tracer=tracer)
            got = engine.run(query)
            assert got.entries == QueryEngine(store).run(query).entries == []
            assert bool(shared_spans(tracer)) == fused, scope
            assert engine.short_circuits == (0 if fused else 1), scope
            leaves = [s for s in tracer.last_root().walk() if s.name == "op:atomic"]
            assert len(leaves) == (0 if fused else 1), scope

    @pytest.mark.parametrize("symbol", ["&", "|", "-"])
    def test_a_breach_mid_scan_leaks_no_pages_or_pins(self, symbol):
        """Cut the shared scan short at every entry, through a pinned view
        with pending writes: the output run, the scan and the view's pin
        are all released."""
        instance, store = make_store(5, 8)
        _top, mid, narrow = _bases(instance)
        directory = UpdatableDirectory(store, auto_compact_at=NEVER)
        _add(directory, mid.child("name=added"))
        _add(directory, narrow.child("name=added"))
        query = parse_query("(%s %s %s)" % (
            symbol, _atomic(mid, "sub", "weight<70"), _atomic(mid, "sub", "kind=alpha")
        ))
        with directory.acquire_view() as view:
            want = planned_engine(view).run(query).entries
            scanned = len(list(view.scan_subtree(mid)))
        live = store.pager.live_pages
        for after in range(scanned):
            tracer = Tracer()
            with directory.acquire_view() as view:
                with pytest.raises(BudgetExceeded):
                    planned_engine(_BreachingStore(view, after), tracer=tracer).run(query)
            assert "error" in shared_spans(tracer)[0].attrs
            assert store.pager.live_pages == live, after
            assert not directory._pins, after
        with directory.acquire_view() as view:
            assert planned_engine(view).run(query).entries == want

    @pytest.mark.parametrize("seed", range(3))
    def test_a_provider_without_a_shared_scan_stays_per_leaf(self, seed):
        """An injected provider with no ``shared_scan`` answers both
        leaves of every boolean itself, with the default engine's
        answers."""
        instance, store = make_store(seed, 8)
        _top, mid, _narrow = _bases(instance)
        asked = []

        def leaf_only(query, within=None):
            asked.append(query)
            return QueryEngine(store).atomic_run(query, within=within)

        tracer = Tracer()
        injected = QueryEngine(store, planner=AccessPlanner(store), leaves=leaf_only, tracer=tracer)
        default = planned_engine(store)
        for _op, _first, _second, query in booleans(mid, seed):
            del asked[:]
            assert injected.run(query).entries == default.run(query).entries, str(query)
            assert not shared_spans(tracer), str(query)
            spans = [s.name for s in tracer.last_root().walk()]
            assert len(asked) == spans.count("op:atomic") >= 1, str(query)

    @pytest.mark.parametrize("symbol", ["&", "|", "-"])
    def test_explain_labels_the_leaves_and_reconciles(self, symbol):
        instance, store = make_store(1, 8)
        _top, mid, _narrow = _bases(instance)
        query = parse_query("(%s %s %s)" % (
            symbol, _atomic(mid, "sub", "weight<70"), _atomic(mid, "sub", "kind=alpha")
        ))
        node = explain(store, query, analyze=True)
        for leaf in node.children:
            assert leaf.label.endswith(" via shared scan[2 filters]"), node.render()
            assert leaf.actual_io == leaf.actual_logical_io == 0
        assert sorted(leaf.actual for leaf in node.children) == sorted(
            len(evaluate(operand, instance)) for operand in query.children()
        )
        assert node.actual_logical_io == node.total_logical_io() > 0
        assert node.total_io() == sum(n.actual_io for n in [node] + node.children)

    @pytest.mark.parametrize("symbol", ["&", "|", "-"])
    def test_heat_map_reads_per_leaf_and_pages_once(self, symbol):
        instance, store = make_store(2, 8)
        _top, mid, _narrow = _bases(instance)
        query = parse_query("(%s %s %s)" % (
            symbol, _atomic(mid, "sub", "weight<70"), _atomic(mid, "sub", "kind=alpha")
        ))
        literal_heat, planned_heat = SubtreeHeatMap(depth=8), SubtreeHeatMap(depth=8)
        literal_tracer, tracer = Tracer(), Tracer()
        QueryEngine(store, heatmap=literal_heat, tracer=literal_tracer).run(query)
        planned_engine(store, heatmap=planned_heat, tracer=tracer).run(query)
        (literal_cell,) = literal_heat.hottest(10)
        (planned_cell,) = planned_heat.hottest(10)
        assert planned_cell["subtree"] == literal_cell["subtree"]
        assert planned_cell["reads_total"] == literal_cell["reads_total"] == 2
        leaf_reads = {
            span.stats["io"].logical_reads
            for span in literal_tracer.last_root().walk() if span.name == "op:atomic"
        }
        assert planned_cell["pages_total"] in leaf_reads and len(leaf_reads) == 1
        (span,) = shared_spans(tracer)
        assert span.attrs["filters"] == 2
        # Each leaf's result size (R7 may have put the smaller first).
        assert sorted(span.attrs["matches"]) == sorted(
            len(evaluate(operand, instance)) for operand in query.children()
        )
