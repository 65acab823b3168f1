"""The access-path contract: an index never changes an answer.

A secondary index is keyed by the schema's type of its attribute, and one
function (:func:`repro.engine.atomic.index_path`) decides which filters it
answers.  Two suites hold that to the definitional semantics:

- **the value-domain regressions**: a string attribute, an int attribute
  queried as ``weight=069`` and a dn-valued attribute queried in a
  non-canonical spelling, each indexed, must read the same entries with
  and without the index -- through the plan-less engine, a planned one and
  a pinned view with pending writes on the indexed attribute.  (When the
  caller restated the attribute's type by hand, each of the three returned
  nothing under the wrong restatement.)
- **the access-path differential**: seeded forests x every simple filter
  class x every schema type x every scope x indexed/unindexed -- entries
  and order identical on both paths, the label ``plan_leaf`` reports is
  the path ``evaluate_atomic`` takes when told to follow it, and no pager
  page outlives the query.

CI repeats this module (``pytest-repeat``) in the planner-differential
job; every repetition draws fresh instance seeds, and a failing assertion
names the seed that replays it.
"""

import random

import pytest

from repro.engine import QueryEngine
from repro.engine.atomic import evaluate_atomic, index_path
from repro.engine.optimizer import AccessPlanner
from repro.filters.ast import Comparison, Equality, MatchAll, Presence, Substring
from repro.model.dn import DN, ROOT_DN
from repro.model.instance import DirectoryInstance
from repro.query.ast import AtomicQuery, Scope
from repro.query.semantics import evaluate
from repro.storage.maintenance import UpdatableDirectory
from repro.storage.store import DirectoryStore
from repro.workload import balanced_instance

SEEDS = range(3)
#: One or two attributes of every type the synthetic schema declares.
INDICES = ("name", "kind", "weight", "level", "ref")
NEVER = 10 ** 9  # an auto_compact_at no test reaches


def signature(entries):
    """dn-for-dn, value-for-value, in order."""
    return [
        (
            str(entry.dn),
            tuple(
                (attr, tuple(str(v) for v in entry.values(attr)))
                for attr in sorted(entry.attributes())
            ),
        )
        for entry in entries
    ]


def make_store(instance, indexed=True):
    store = DirectoryStore.from_instance(instance, page_size=8, buffer_pages=6)
    if indexed:
        store.build_indices(INDICES)
    return store


def respell(dn):
    """A spelling of ``dn`` no canonical form has: no space after the
    commas, padding around the whole."""
    return "  %s " % str(dn).replace(", ", ",")


def read(store, query, use_indices):
    run = evaluate_atomic(store, query, use_indices)
    try:
        return signature(run.to_list())
    finally:
        run.free()


# -- the value-domain regressions ---------------------------------------------


def probes(instance):
    """The three queries a hand-restated index type used to get wrong,
    each with at least one match in ``instance``."""
    entries = list(instance)
    target = next(e.values("ref")[0] for e in entries if e.has("ref"))
    weight = next(e.values("weight")[0] for e in entries if e.values("weight")[0] > 9)
    return [
        AtomicQuery(ROOT_DN, Scope.SUB, Equality("kind", "alpha")),
        AtomicQuery(ROOT_DN, Scope.SUB, Equality("weight", "0%d" % weight)),
        AtomicQuery(ROOT_DN, Scope.SUB, Equality("ref", respell(target))),
    ]


def test_indexed_equality_is_typed_by_the_schema():
    instance = balanced_instance(200, fanout=4, seed=3)
    store = make_store(instance)
    assert [store.indices[attr].type_name for attr in ("kind", "weight", "ref")] == [
        "string", "int", "distinguishedName",
    ]
    engines = {
        "plan-less": QueryEngine(store),
        "planned": QueryEngine(store, planner=AccessPlanner(store)),
        "from_instance": QueryEngine.from_instance(instance, page_size=8, indices=INDICES),
    }
    for query in probes(instance):
        want = signature(evaluate(query, instance))
        assert want, str(query)
        assert index_path(store, query.filter) is not None, str(query)
        assert read(store, query, True) == want, str(query)
        assert read(store, query, False) == want, str(query)
        for name, engine in engines.items():
            assert signature(engine.run(query).entries) == want, (name, str(query))


def test_indexed_equality_through_a_view_with_pending_writes():
    instance = balanced_instance(200, fanout=4, seed=3)
    directory = UpdatableDirectory(make_store(instance), auto_compact_at=NEVER)
    kind_q, weight_q, ref_q = probes(instance)
    target = ref_q.filter.value.strip()
    weight = int(weight_q.filter.value)
    # Pending writes on every indexed attribute: entries that start to
    # match, entries that stop matching, a new entry, a deleted one.
    model = {entry.dn: entry for entry in instance}
    victims = random.Random(3).sample(sorted(model, key=DN.key)[1:], 11)
    for dn in victims[:5]:
        model[dn] = directory.modify(
            dn, replace={"kind": ["alpha"], "weight": [weight], "ref": [target]}
        )
    for dn in victims[5:10]:
        model[dn] = directory.modify(
            dn, replace={"kind": ["omega"], "weight": [weight + 1], "ref": []}
        )
    fresh = victims[10].child("name=fresh")
    model[fresh] = directory.add(
        fresh, ["node"], name="fresh", kind="alpha", weight=weight, ref=[target]
    )
    leaf = max((dn for dn in model if dn != fresh), key=DN.depth)
    directory.delete(leaf)
    del model[leaf]
    oracle = DirectoryInstance(instance.schema)
    for dn in sorted(model, key=DN.key):
        oracle.add_entry(model[dn])
    assert directory.pending() > 0 and directory.compactions == 0
    with directory.acquire_view() as view:
        for query in (kind_q, weight_q, ref_q):
            want = signature(evaluate(query, oracle))
            assert str(fresh) in [dn for dn, _values in want], str(query)
            assert read(view, query, True) == want, str(query)
            assert read(view, query, False) == want, str(query)
            for planner in (None, AccessPlanner(view)):
                engine = QueryEngine(view, planner=planner)
                assert signature(engine.run(query).entries) == want, str(query)
    assert directory.compactions == 0


@pytest.mark.parametrize("pattern, value, expected", [
    ("*x*", "line1\nline2x", True),
    ("*2x", "line1\nline2x", True),
    ("*c", "abc\n", False),
])
def test_substring_spans_newlines(pattern, value, expected):
    # An LDIF value can carry newlines (base64): ``*`` spans them and the
    # pattern covers the whole value, on every path and in the semantics.
    source = balanced_instance(40, fanout=3, seed=5)
    entries = list(source)
    carrier = entries[7].with_values(kind=[value])
    instance = DirectoryInstance(source.schema)
    for entry in entries:
        instance.add_entry(carrier if entry.dn == carrier.dn else entry)
    store = make_store(instance)
    query = AtomicQuery(ROOT_DN, Scope.SUB, Substring("kind", pattern))
    assert index_path(store, query.filter) is not None
    assert (carrier in evaluate(query, instance)) is expected
    for use_indices in (True, False):
        run = evaluate_atomic(store, query, use_indices)
        assert (carrier in run.to_list()) is expected, use_indices
        run.free()
    run = evaluate_atomic(store, query, within=[(entries[0].dn, None)])
    assert (carrier in run.to_list()) is expected
    run.free()


# -- the access-path differential ----------------------------------------------


def simple_filters(instance, rng):
    """Every simple filter class against every schema type (``string``,
    ``int``, ``distinguishedName``), well-typed and not: the values come
    from the instance, in spellings the value domain equates."""
    entries = list(instance)
    some = rng.choice(entries)
    referenced = rng.choice([e for e in entries if e.has("ref")]).values("ref")[0]
    weight = some.values("weight")[0]
    name = some.values("name")[0]
    return [
        MatchAll(),
        # equality
        Equality("kind", some.values("kind")[0]),
        Equality("name", name),
        Equality("name", "no-such-name"),
        Equality("weight", weight),
        Equality("weight", "00%d" % weight),
        Equality("weight", " %d " % weight),
        Equality("weight", "heavy"),
        Equality("level", "3"),
        Equality("ref", referenced),
        Equality("ref", str(referenced)),
        Equality("ref", respell(referenced)),
        Equality("ref", "not a dn"),
        Equality("tag", "red"),
        # comparison
        Comparison("weight", "<", weight),
        Comparison("weight", "<=", weight),
        Comparison("weight", ">", weight),
        Comparison("weight", ">=", weight),
        Comparison("level", "<", 0),
        Comparison("level", ">=", 0),
        Comparison("kind", "<", 5),
        Comparison("ref", ">=", 0),
        # substring
        Substring("name", name[:2] + "*"),
        Substring("name", "*" + name[-1]),
        Substring("name", "e*" + name[-1]),
        Substring("kind", "*a*"),
        Substring("weight", "1*"),
        Substring("ref", "name=*"),
        # presence
        Presence("kind"),
        Presence("weight"),
        Presence("ref"),
        Presence("tag"),
    ]


def bases_of(instance, rng):
    entries = list(instance)
    root = entries[0].dn
    deepest = max(entries, key=lambda e: e.dn.depth()).dn
    return [ROOT_DN, root, rng.choice(entries).dn, deepest.parent, deepest]


@pytest.fixture
def fetch_spy(monkeypatch):
    """Counts ``DirectoryStore.fetch_positions`` calls (rebound on the
    class, the way ``bench/shims.py`` reaches it)."""
    calls = []
    original = DirectoryStore.fetch_positions

    def spy(self, positions):
        calls.append(self)
        return original(self, positions)

    monkeypatch.setattr(DirectoryStore, "fetch_positions", spy)
    return calls


@pytest.mark.parametrize("seed", SEEDS)
def test_access_path_differential(seed, repeat_step, fetch_spy):
    seed += 1000 * repeat_step
    rng = random.Random(seed)
    instance = balanced_instance(90 + 13 * (seed % 4), fanout=2 + seed % 3, seed=seed)
    indexed = make_store(instance)
    plain = make_store(instance, indexed=False)
    planner = AccessPlanner(indexed)
    planner.estimator.stats  # collect now, outside the live-page windows
    indexed_paths = 0
    for filter_ in simple_filters(instance, rng):
        for base in bases_of(instance, rng):
            for scope in Scope.ALL:
                query = AtomicQuery(base, scope, filter_)
                context = "seed=%d query=%s" % (seed, query)
                want = signature(evaluate(query, instance))
                # (a) entries and order identical on every path.
                for store in (indexed, plain):
                    live = store.pager.live_pages
                    assert read(store, query, True) == want, context
                    assert read(store, query, False) == want, context
                    # (c) nothing the query allocated is left behind.
                    assert store.pager.live_pages == live, context
                # (b) the planner's label is the path the evaluator takes.
                use_index, label, _estimate = planner.plan_leaf(query)
                assert use_index == (not label.startswith("scan[")), context
                del fetch_spy[:]
                assert read(indexed, query, use_index) == want, context
                assert bool(fetch_spy) == use_index, (context, label)
                path = index_path(indexed, filter_)
                if use_index:
                    assert label.startswith(path[0] + "["), (context, label)
                    indexed_paths += 1
                # ...and an index exists exactly where the evaluator, left
                # to itself, uses one.
                del fetch_spy[:]
                read(indexed, query, True)
                assert bool(fetch_spy) == (path is not None), context
                assert index_path(plain, filter_) is None, context
    assert indexed_paths  # the planner did choose an index somewhere
