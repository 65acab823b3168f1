"""Sideways bounds and decided nodes, held to the paper-literal engine.

A planned hierarchical selection picks entries from its first operand
only, so the engine (a) stops at an empty operand that decides the node
-- the first, or the second of a selection without an aggregate filter
-- and (b) reads each atomic witness or blocker operand over windows
around the first operand's entries when the planner prices that cheaper
(``AccessPlanner.witness_windows``).  Neither may change an answer: on
every seeded query here the planned engine, the plan-less engine and the
definitional semantics agree entry for entry and in order, over the
master store and through a pinned view with pending writes inside the
windows.  No query leaves a pager page behind, and a budget breach at a
bounded leaf leaks nothing.

CI repeats this module (``pytest-repeat``) in the planner-differential
job.
"""

import random

import pytest

from repro.engine import QueryEngine
from repro.engine.atomic import clip_windows, evaluate_atomic
from repro.engine.optimizer import AccessPlanner, explain
from repro.filters.parser import parse_filter
from repro.model.instance import DirectoryInstance
from repro.obs.budget import BudgetExceeded, QueryBudget
from repro.obs.trace import Tracer
from repro.query.ast import AtomicQuery, Scope
from repro.query.parser import parse_query
from repro.query.semantics import evaluate
from repro.storage.maintenance import UpdatableDirectory
from repro.storage.store import DirectoryStore
from repro.workload import random_instance

SEEDS = range(8)
OPS = ("p", "c", "a", "d", "ac", "dc")
#: None is the plain operator; ``count($2) = 0`` holds on an empty witness
#: set (an empty second operand must not decide it), and
#: ``max(count($2))`` is an entry-set aggregate over the whole population.
AGGS = (
    None,
    "count($2) = 0",
    "count($2) >= 2",
    "count($2) = max(count($2))",
    "sum($2.weight) > 60",
)
WITNESS_FILTERS = ("weight<60", "kind=alpha", "name=nosuch")
NEVER = 10 ** 9  # an auto_compact_at nothing here reaches


def make_store(seed):
    instance = random_instance(seed, size=160)
    store = DirectoryStore.from_instance(instance, page_size=8, buffer_pages=6)
    if seed % 2:
        store.build_indices(("weight", "kind"))
    return instance, store


def _subtree_sizes(instance):
    sizes = {}
    for entry in instance:
        for dn in (entry.dn,) + tuple(entry.dn.ancestors()):
            sizes[dn] = sizes.get(dn, 0) + 1
    return sizes


def _bases(instance):
    """(top, mid, narrow): the largest root, the largest proper
    descendant of it with children, and the smallest proper descendant
    of that with children (else ``mid`` again)."""
    sizes = _subtree_sizes(instance)
    top = max((dn for dn in sizes if dn.depth() == 1), key=lambda dn: (sizes[dn], dn.key()))
    inner = [dn for dn in sizes if top.is_ancestor_of(dn) and sizes[dn] > 1]
    mid = max(inner, key=lambda dn: (sizes[dn], dn.key()))
    below = [dn for dn in inner if mid.is_ancestor_of(dn)]
    narrow = min(below, key=lambda dn: (sizes[dn], dn.key())) if below else mid
    return top, mid, narrow


def _atomic(base, scope, filter_):
    return "(%s ? %s ? %s)" % (base, scope, filter_)


def first_operands(instance):
    """A first operand that is empty, ``base``, ``one``, and a narrow
    ``sub``: over a small subtree, and sparse in a large one."""
    _top, mid, narrow = _bases(instance)
    return (
        _atomic(mid, "sub", "name=nosuch"),
        _atomic(mid, "base", "objectClass=*"),
        _atomic(mid, "one", "objectClass=*"),
        _atomic(narrow, "sub", "objectClass=*"),
        _atomic(mid, "sub", "weight<8"),
    )


def selections(instance):
    """Every operator x aggregate x first operand.  Witnesses range over
    the whole tree (so ``p``/``a``/``ac`` windows reach above the first
    operand's base), over ``mid``'s subtree (windows above it are clipped
    away) or one level of it (windows lose depth); blockers sit on the
    chain between witness and selected entry."""
    top, mid, _narrow = _bases(instance)
    ranges = ((top, "sub"), (mid, "sub"), (mid, "one"))
    queries = []
    for shift, first in enumerate(first_operands(instance)):
        for op in OPS:
            for index, agg in enumerate(AGGS):
                base, scope = ranges[index % len(ranges)]
                filter_ = WITNESS_FILTERS[(index + shift) % len(WITNESS_FILTERS)]
                second = _atomic(base, scope, filter_)
                operands = [first, second]
                if op in ("ac", "dc"):
                    operands.append(_atomic(top if op == "ac" else mid, "sub", "level<4"))
                text = "(%s %s%s)" % (op, " ".join(operands), " " + agg if agg else "")
                queries.append(parse_query(text))
    return queries


def bounded_leaves(tracer):
    """Window-root counts of the leaves the last traced run bounded."""
    return [
        span.attrs["windows"]
        for span in tracer.last_root().walk()
        if "windows" in span.attrs
    ]


def planned_engine(store, tracer=None):
    return QueryEngine(store, planner=AccessPlanner(store), tracer=tracer)


@pytest.mark.parametrize("seed", SEEDS)
def test_planned_literal_and_semantics_agree(seed):
    instance, store = make_store(seed)
    literal = QueryEngine(store)
    tracer = Tracer()
    planned = planned_engine(store, tracer)
    pager = store.pager
    live = pager.live_pages
    bounded = set()
    for query in selections(instance):
        want = [str(entry.dn) for entry in evaluate(query, instance)]
        assert literal.run(query).dns() == want, str(query)
        assert pager.live_pages == live, str(query)
        got = planned.run(query)
        assert got.dns() == want, str(query)
        assert got.entries == literal.run(query).entries, str(query)
        assert pager.live_pages == live, str(query)
        if bounded_leaves(tracer):
            bounded.add(query.op)
    # The suite exercises what it is about: every operator took the
    # bounded path somewhere, and some nodes were decided early.
    assert bounded == set(OPS)
    assert planned.short_circuits > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_an_empty_second_operand_decides_only_a_plain_selection(seed):
    instance, store = make_store(seed)
    _top, mid, _narrow = _bases(instance)
    first = _atomic(mid, "one", "objectClass=*")
    empty = _atomic(mid, "sub", "name=nosuch")
    for op in OPS:
        third = " " + _atomic(mid, "sub", "level<4") if op in ("ac", "dc") else ""
        plain = parse_query("(%s %s %s%s)" % (op, first, empty, third))
        none = parse_query("(%s %s %s%s count($2) = 0)" % (op, first, empty, third))
        engine = planned_engine(store)
        assert engine.run(plain).dns() == []
        assert engine.short_circuits == 1
        # count($2) = 0 holds on every entry of the first operand.
        kept = engine.run(none).dns()
        assert kept == [str(e.dn) for e in evaluate(none, instance)] and kept
        assert engine.short_circuits == 1


def _add(directory, dn):
    name = dn.rdn.canonical().split("=", 1)[1]
    directory.add(dn, ["node"], {"name": [name], "kind": ["alpha"], "level": [1], "weight": [5]})


@pytest.mark.parametrize("seed", range(4))
def test_overlay_inside_a_window(seed):
    """Windows read through a pinned view with pending writes: a child
    added under a first-operand entry is a ``c``/``d`` witness, and an
    ancestor deleted with its subtree and re-added (with a new child) is
    an ``a``/``ac``/``p`` window root whose master image is gone."""
    instance, store = make_store(seed)
    top, mid, narrow = _bases(instance)
    directory = UpdatableDirectory(store, auto_compact_at=NEVER)
    doomed = narrow
    directory.delete(doomed, recursive=True)
    _add(directory, doomed)
    _add(directory, doomed.child("name=again%d" % seed))
    _add(directory, doomed.child("name=again%d" % seed).child("name=deeper%d" % seed))
    _add(directory, mid.child("name=added%d" % seed))
    with directory.acquire_view() as view:
        model = DirectoryInstance(instance.schema)
        for entry in view.scan_all():
            model.add_entry(entry)
    pager = store.pager
    live = pager.live_pages
    texts = []
    for op in OPS:
        third = " " + _atomic(top, "sub", "level<9") if op in ("ac", "dc") else ""
        for first in (
            _atomic(doomed, "sub", "objectClass=*"),
            _atomic(mid, "one", "objectClass=*"),
        ):
            texts.append("(%s %s %s%s)" % (op, first, _atomic(top, "sub", "kind=alpha"), third))
    bounded = 0
    for text in texts:
        query = parse_query(text)
        want = [str(entry.dn) for entry in evaluate(query, model)]
        with directory.acquire_view() as view:
            assert QueryEngine(view).run(query).dns() == want, text
            tracer = Tracer()
            assert planned_engine(view, tracer).run(query).dns() == want, text
            bounded += len(bounded_leaves(tracer))
        assert pager.live_pages == live, text
    assert directory.pending() > 0 and directory.compactions == 0
    assert bounded > 0


def _in_window(dn, root, depth):
    return root.is_prefix_of(dn) and (depth is None or dn.depth() - root.depth() <= depth)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_leaf_over_windows_is_the_leaf_restricted_to_them(seed):
    """``evaluate_atomic(within=)`` against its definition, for windows
    above, inside, beside and overlapping every scope."""
    instance, store = make_store(seed)
    rng = random.Random(seed)
    dns = [entry.dn for entry in instance]
    live = store.pager.live_pages
    for _ in range(40):
        base = rng.choice(dns)
        for scope in (Scope.BASE, Scope.ONE, Scope.SUB):
            leaf = AtomicQuery(base, scope, parse_filter(rng.choice(("weight<60", "objectClass=*"))))
            within = [
                (rng.choice(dns + list(base.ancestors())), rng.choice((0, 1, 2, None)))
                for _ in range(rng.randint(0, 4))
            ]
            want = [
                str(entry.dn) for entry in evaluate(leaf, instance)
                if any(_in_window(entry.dn, root, depth) for root, depth in within)
            ]
            run = evaluate_atomic(store, leaf, True, within)
            assert [str(entry.dn) for entry in run] == want, (str(leaf), within)
            run.free()
            assert store.pager.live_pages == live


@pytest.mark.parametrize("seed", SEEDS)
def test_a_bound_is_taken_only_when_it_pays(seed):
    """Every window list the planner hands out is clipped to its leaf and
    prices (with reading the first operand back) below the leaf's own
    access path."""
    instance, store = make_store(seed)
    planner = AccessPlanner(store)
    for query in selections(instance):
        if query.op in ("c", "d", "dc"):
            query, _rules = planner.plan(query)  # R6 narrows these first
        first = evaluate_atomic(store, query.first, False)
        if len(first):
            bounds = planner.witness_windows(query, first)
            for operand, windows in zip(query.children()[1:], bounds):
                if windows is None:
                    continue
                assert clip_windows(operand, windows) == windows
                pages = sum(planner._scan_pages(root, depth) for root, depth in windows)
                assert first.page_count + pages < planner._access_path(operand)[2]
        first.free()


@pytest.mark.parametrize("seed", range(4))
def test_budget_breach_at_a_bounded_leaf_leaks_nothing(seed):
    instance, store = make_store(seed)
    top, mid, narrow = _bases(instance)
    query = parse_query("(a %s %s)" % (
        _atomic(narrow, "base", "objectClass=*"), _atomic(top, "sub", "weight<60")
    ))
    want = [str(entry.dn) for entry in evaluate(query, instance)]
    pager = store.pager
    live = pager.live_pages
    tracer = Tracer()
    engine = planned_engine(store, tracer)
    full = engine.run(query)
    assert full.dns() == want and bounded_leaves(tracer)
    breached_at_window = False
    for max_pages in range(full.io.logical_total + 1):
        try:
            engine.run(query, budget=QueryBudget(max_pages=max_pages))
        except BudgetExceeded:
            # The innermost span that saw the error is where it was raised.
            failing = [s for s in tracer.last_root().walk() if "error" in s.attrs][-1]
            breached_at_window |= "windows" in failing.attrs
        assert pager.live_pages == live, max_pages
    assert breached_at_window


class TestExplainSaysWhatRan:
    def test_a_skipped_operand_names_its_decider(self):
        instance, store = make_store(0)
        _top, mid, _narrow = _bases(instance)
        empty = _atomic(mid, "sub", "name=nosuch")
        wide = _atomic(mid, "sub", "kind=alpha")
        for text, decider in (
            ("(& %s %s)" % (empty, wide), "first"),
            ("(d %s %s)" % (empty, wide), "first"),
            ("(dc %s %s %s)" % (_atomic(mid, "one", "objectClass=*"), empty, wide), "second"),
        ):
            node = explain(store, parse_query(text), analyze=True)
            skipped = node.children[-1]
            assert skipped.label.endswith(
                "skipped: decided by empty %s operand" % decider
            ), node.render()
            assert skipped.actual is None
            assert "skipped" not in node.children[0].label

    def test_a_bounded_leaf_says_window_with_its_actuals(self):
        instance, store = make_store(0)
        top, _mid, narrow = _bases(instance)
        query = parse_query("(a %s %s)" % (
            _atomic(narrow, "base", "objectClass=*"), _atomic(top, "sub", "weight<60")
        ))
        node = explain(store, query, analyze=True)
        leaf = node.children[1]
        assert " via window[" in leaf.label and leaf.label.endswith(" roots]"), node.render()
        assert leaf.actual is not None and leaf.actual_logical_io is not None
        assert leaf.qerror is None  # its estimate is for the whole leaf
        assert node.children[0].label.count("via scan[") == 1
