"""The prefix index against the linear walk it replaced.

:class:`~repro.model.prefix_index.PrefixIndex` answers "which scopes
contain dn k?" and "which lie under k?" by probing k's prefixes and
bisecting a sorted root list.  The linear walks below -- one footprint
at a time, every resident at a time -- are what the cache did before,
kept here as the oracle:

- over random scope sets (points, subtrees, nested and duplicate roots,
  the null dn) and random dns, both index questions equal the walk;
- over random add / modify / delete / recursive-delete sequences with
  puts, superset probes and invalidations in between, a cache that asks
  its index leaves the same residents, entries, bytes, counters and
  maintainer actions as one that walks every resident (``WalkCache``),
  patches that outgrow the byte budget included, and ``find_superset``
  returns the same resident, ties included.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache import (
    IncrementalCacheMaintainer,
    QueryCache,
    query_footprint,
)
from repro.cache.store import CachedResult
from repro.engine import QueryEngine
from repro.model.dn import DN, ROOT_DN
from repro.model.entry import Entry
from repro.model.prefix_index import PrefixIndex
from repro.query.ast import AtomicQuery, Scope
from repro.query.parser import parse_query

from tests.cache.test_call_counts import make_directory
from tests.meter import Meter

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- the linear-walk oracle ---------------------------------------------------


def covers(footprint, dn) -> bool:
    """Can an update of the single entry at ``dn`` be read by
    ``footprint``?"""
    dn = DN.parse(dn) if isinstance(dn, str) else dn
    for root, subtree in footprint.ranges:
        if subtree:
            if root.is_prefix_of(dn):
                return True
        elif root == dn:
            return True
    return False


def intersects_subtree(footprint, dn) -> bool:
    """Does ``footprint`` intersect the whole subtree at ``dn`` (the
    region a recursive delete updates)?"""
    dn = DN.parse(dn) if isinstance(dn, str) else dn
    for root, subtree in footprint.ranges:
        if dn.is_prefix_of(root):
            return True
        if subtree and root.is_prefix_of(dn):
            return True
    return False


def touches(footprint, dn, subtree=False) -> bool:
    return intersects_subtree(footprint, dn) if subtree else covers(footprint, dn)


class WalkCache(QueryCache):
    """The cache as it answered before the index: every question walks
    every resident in residence order."""

    def touching(self, dn, subtree=False):
        with self._lock:
            return [
                entry for entry in self._entries.values()
                if touches(entry.footprint, dn, subtree)
            ]

    def find_superset(self, base, filter_text):
        with self._lock:
            best = None
            for entry in self._entries.values():
                query = entry.query
                if not (
                    isinstance(query, AtomicQuery)
                    and query.scope == Scope.SUB
                    and str(query.filter) == filter_text
                    and query.base.is_prefix_of(base)
                    and query.base != base
                ):
                    continue
                if best is None or best.query.base.is_prefix_of(query.base):
                    best = entry
            if best is None:
                return None
            self.stats.hits += 1
            self.stats.superset_hits += 1
            self.stats.saved_logical_io += best.cost_io
            best.hits += 1
            self._reprioritise(best)
            return best


def state(index):
    """Everything a :class:`PrefixIndex` holds, comparable with ``==``."""
    return index._points, index._subtrees, index._roots


def indexes_match_a_rebuild(cache) -> bool:
    """Whether the cache's two indexes equal a fresh build from its
    residents: no stale root, and every resident indexed."""
    scopes, supersets = PrefixIndex(), PrefixIndex()
    for entry in cache._entries.values():
        for root, subtree in entry.footprint.ranges:
            scopes.add(entry, root.key(), subtree)
        if entry.superset_key is not None:
            supersets.add(entry, entry.superset_key, True)
    return (state(cache._scopes), state(cache._supersets)) == (
        state(scopes), state(supersets)
    )


# -- the index alone ----------------------------------------------------------

#: Sibling names where one extends the other (``ou=a`` / ``ou=ab``): a key
#: cut must not let ``ou=ab`` fall inside ``subtree(ou=a)``.
_NAMES = ("a", "ab", "b")
dns = st.lists(st.sampled_from(_NAMES), max_size=4).map(
    lambda path: DN.parse(", ".join("ou=%s" % name for name in reversed(path)))
)
scopes = st.lists(st.tuples(dns, st.booleans()), max_size=24)


def _walk_containing(items, dn):
    return {i for i, (root, subtree) in items if (
        root.is_prefix_of(dn) if subtree else root == dn
    )}


def _walk_under(items, dn):
    return {i for i, (root, _subtree) in items if dn.is_prefix_of(root)}


def _walk_innermost(items, dn):
    above = [
        (root.depth(), i) for i, (root, subtree) in items
        if subtree and root != dn and root.is_prefix_of(dn)
    ]
    if not above:
        return set()
    deepest = max(depth for depth, _ in above)
    return {i for depth, i in above if depth == deepest}


@given(scopes, st.lists(dns, min_size=1, max_size=8), st.data())
@settings(**_SETTINGS)
def test_both_questions_match_the_linear_walk(scope_list, probes, data):
    items = list(enumerate(scope_list))
    index = PrefixIndex()
    for i, (root, subtree) in items:
        index.add(i, root.key(), subtree)
    # Forget a random part again: what is left must answer like the rest.
    gone = data.draw(
        st.sets(st.sampled_from(range(len(items)))) if items else st.just(set())
    )
    for i in gone:
        root, subtree = scope_list[i]
        index.discard(i, root.key(), subtree)
    items = [(i, scope) for i, scope in items if i not in gone]
    rebuilt = PrefixIndex()
    for i, (root, subtree) in items:
        rebuilt.add(i, root.key(), subtree)
    assert state(index) == state(rebuilt)
    for dn in probes + [ROOT_DN]:
        key = dn.key()
        assert index.containing(key) == _walk_containing(items, dn), dn
        assert index.under(key) == _walk_under(items, dn), dn
        assert set(index.innermost(key)) == _walk_innermost(items, dn), dn


def test_discarding_every_item_leaves_an_empty_index():
    index = PrefixIndex()
    pairs = [(ROOT_DN, True), (DN.parse("ou=a"), False), (DN.parse("ou=a"), True)]
    for i, (root, subtree) in enumerate(pairs):
        index.add(i, root.key(), subtree)
        index.add(i, root.key(), subtree)  # a repeat registers once
    for i, (root, subtree) in enumerate(pairs):
        index.discard(i, root.key(), subtree)
    assert state(index) == state(PrefixIndex())
    assert index.containing(DN.parse("ou=b, ou=a").key()) == set()


# -- the cache and its maintainer against the walk ----------------------------

_FILTERS = ("kind=alpha", "kind=beta", "level>=1", "objectClass=*")


def _anchor(dns_now, n):
    """The base a query drawing ``n`` reads under: often the null dn."""
    return dns_now[n % len(dns_now)] if n % 4 and dns_now else ROOT_DN


def _query_text(shape, dns_now, a, b):
    """One query of the drawn shape over the live dns (L0 shapes patch,
    the hierarchical one is evicted)."""
    def atomic(n, scope):
        base = _anchor(dns_now, n)
        return "(%s ? %s ? %s)" % (base, scope, _FILTERS[n % len(_FILTERS)])

    if shape == "sub":
        return atomic(a, "sub")
    if shape == "base":
        return atomic(a, "base")
    if shape == "one":
        return atomic(a, "one")
    if shape == "bool":
        return "(%s %s %s)" % ("|&-"[b % 3], atomic(a, "sub"), atomic(b, "one"))
    return "(d %s %s)" % (atomic(a, "sub"), atomic(b, "base"))


_SHAPES = ("sub", "sub", "sub", "base", "one", "bool", "hier")
ops = st.lists(
    st.tuples(
        st.sampled_from(("put", "put", "put", "add", "modify", "delete",
                         "rdelete", "superset", "invalidate")),
        st.integers(0, 20),
        st.integers(0, 60),
    ),
    max_size=40,
)


def _replay(cache_class, budget, script):
    """Run ``script`` against a fresh directory and cache; return one
    snapshot per step, the superset answers and the maintainer's actions."""
    directory = make_directory()
    cache = cache_class(byte_budget=budget)
    IncrementalCacheMaintainer(directory, cache)
    meter = Meter()
    live = sorted((e.dn for e in directory.engine().run(
        parse_query("( ? sub ? objectClass=*)")).entries), key=DN.key)
    fresh = 0
    snapshots = []
    for kind, a, b in script:
        if kind == "put":
            shape = _SHAPES[b % len(_SHAPES)]
            text = _query_text(shape, live, a, b)
            query = parse_query(text)
            with directory.acquire_view() as view:
                entries = QueryEngine(view).run(query).entries
            key = "%s#%d" % (text, b // len(_SHAPES) % 2)  # ties: two keys
            cache.put(key, text, entries, query_footprint(query),
                      cost_io=1 + b % 9, query=query)
        elif kind == "add" and live:
            parent = live[a % len(live)]
            fresh += 1
            dn = parent.child("name=n%d" % fresh)
            directory.add(dn, ["node"], name="n%d" % fresh,
                          kind=("alpha", "beta")[b % 2], level=b % 3)
            live = sorted(live + [dn], key=DN.key)
        elif kind == "modify" and live:
            dn = live[a % len(live)]
            if directory.lookup(dn).classes & {"node"}:
                directory.modify(dn, replace={"level": [b % 4]})
            else:
                directory.modify(dn, replace={"kind": [("alpha", "beta")[b % 2]]})
        elif kind in ("delete", "rdelete") and live:
            dn = live[a % len(live)]
            below = [d for d in live if dn.is_prefix_of(d)]
            if kind == "delete" and len(below) > 1:
                dn = below[-1]  # a leaf under it
                below = [dn]
            directory.delete(dn, recursive=kind == "rdelete")
            live = [d for d in live if d not in below]
        elif kind == "superset" and live:
            # Below the base a ``sub`` put drawing ``a`` used.
            anchor = _anchor(live, a)
            below = [d for d in live if anchor.is_prefix_of(d) and d != anchor]
            base = below[b % len(below)] if below else anchor
            for text in _FILTERS:
                hit = cache.find_superset(base, text)
                snapshots.append(("superset", None if hit is None else hit.key))
        elif kind == "invalidate" and live:
            cache.invalidate(live[a % len(live)], subtree=bool(b % 2))
        snapshots.append(_snapshot(cache))
        if cache_class is QueryCache:
            assert indexes_match_a_rebuild(cache)
            for resident in cache:  # patched rows and bytes are exact
                with directory.acquire_view() as view:
                    fresh_rows = QueryEngine(view).run(resident.query).entries
                assert len(resident.entries) == len(fresh_rows)
                assert all(map(Entry.same_content, resident.entries, fresh_rows))
                assert resident.size_bytes == sum(
                    row.approx_bytes() for row in resident.entries
                )
    actions = {
        action: meter("repro_cache_maintainer_actions_total", action=action)
        for action in ("patched", "kept", "evicted")
    }
    return snapshots, actions


def _snapshot(cache):
    stats = cache.stats
    return (
        [(e.key, [str(x.dn) for x in e.entries], e.size_bytes) for e in cache],
        cache.resident_bytes,
        sum(e.size_bytes for e in cache),
        (stats.insertions, stats.patched, stats.invalidations,
         stats.evictions, stats.hits, stats.superset_hits),
    )


@given(ops, st.sampled_from((2_500, 6_000, 12_000, 1 << 20)))
@settings(**_SETTINGS)
def test_indexed_maintenance_equals_the_walk(script, budget):
    indexed, indexed_actions = _replay(QueryCache, budget, script)
    walked, walked_actions = _replay(WalkCache, budget, script)
    assert indexed == walked
    assert indexed_actions == walked_actions
    for _residents, resident_bytes, summed, _stats in (
        s for s in indexed if s[0] != "superset"
    ):
        assert resident_bytes == summed  # byte accounting stays exact


def test_superset_ties_go_to_the_later_resident():
    cache = QueryCache()
    query = parse_query("(name=r1 ? sub ? kind=alpha)")
    for key in ("first", "second"):
        cache.put(key, str(query), [], query_footprint(query), 1, query=query)
    narrow = DN.parse("name=r1-c0, name=r1")
    assert cache.find_superset(narrow, "kind=alpha").key == "second"
    cache.put("first", str(query), [], query_footprint(query), 1, query=query)
    assert cache.find_superset(narrow, "kind=alpha").key == "first"
    # The base itself is not a superset of itself, and another filter is
    # another question.
    assert cache.find_superset(DN.parse("name=r1"), "kind=alpha") is None
    assert cache.find_superset(narrow, "kind=beta") is None


def test_touching_returns_residents_in_residence_order():
    cache = QueryCache()
    for key, text in (("b", "(name=r1 ? sub ? kind=alpha)"),
                      ("a", "( ? sub ? kind=alpha)"),
                      ("c", "(name=r1-c0, name=r1 ? base ? kind=alpha)")):
        query = parse_query(text)
        cache.put(key, text, [], query_footprint(query), 1, query=query)
    touched = cache.touching(DN.parse("name=r1-c0, name=r1"))
    assert [entry.key for entry in touched] == ["b", "a", "c"]
    assert all(isinstance(entry, CachedResult) for entry in touched)
    assert [e.key for e in cache.touching(DN.parse("name=r2"))] == ["a"]
    assert [e.key for e in cache.touching(DN.parse("name=r1"), subtree=True)] == [
        "b", "a", "c"
    ]
