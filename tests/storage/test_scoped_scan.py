"""The scoped clustered scan against the definition.

``scan_subtree(base, max_depth)`` decides membership by key bisection and,
for a depth bound, seeks past subtrees it wants nothing of.  For seeded
random instances laid out at page sizes 1, 2, 3, 16 and 64 -- decorated
with the shapes that break string-prefix reasoning -- and for every base
that names an entry, plus the null dn and bases that name none, it must

- return exactly the full scan filtered by :func:`scope_admits`, in order;
- read, for ``sub`` and ``base``, the pages the per-entry scan it replaced
  read (:func:`reference_scan`, kept here as the reference), which for
  ``sub`` are the pages ``page_range_for_subtree`` names;
- read, for ``one``, no more than ``sub`` and at most two pages per child.

Under ``pytest-repeat`` (the planner-differential CI job) every repetition
draws fresh seeds; a failing assertion names the seed that replays it.
"""

import pytest

from repro.engine.atomic import evaluate_atomic, scope_admits
from repro.filters.ast import MatchAll
from repro.ldapx.query import LDAPQuery, evaluate_ldap
from repro.model.dn import DN, ROOT_DN
from repro.query.ast import AtomicQuery, Scope
from repro.storage.maintenance import UpdatableDirectory
from repro.storage.store import DirectoryStore
from repro.workload import random_instance

PAGE_SIZES = (1, 2, 3, 16, 64)
SEEDS = range(4)
DEPTH_OF = Scope.MAX_DEPTH


@pytest.fixture
def repeat_step(request):
    """The pytest-repeat repetition this run is (0 without ``--count``)."""
    callspec = getattr(request.node, "callspec", None)
    return callspec.params.get("__pytest_repeat_step_number", 0) if callspec else 0


def decorated_instance(seed):
    """A random forest plus: siblings whose RDN strings extend one another
    (with children, so their subtrees would interleave under a string
    prefix test), multi-valued RDNs, and entries whose parent is missing."""
    instance = random_instance(seed, size=60 + 7 * (seed % 5), max_children=5)
    entries = list(instance)
    host = entries[seed % len(entries)].dn
    for name in ("a", "ab", "a b", "abc"):
        sibling = host.child("name=%s" % name)
        instance.add(sibling, ["node"], name=name, kind="alpha")
        for i in range(3):
            instance.add(sibling.child("name=k%d" % i), ["node"], name="k%d" % i)
    multi = host.child("kind=beta+name=m")
    instance.add(multi, ["node"], name="m", kind="beta")
    instance.add(multi.child("kind=alpha+name=m"), ["node"], name="m", kind="alpha")
    instance.add(multi.child("name=m"), ["node"], name="m")
    # Orphans: ``ghost`` itself is never added, nor is ``ghost/deep``.
    ghost = host.child("name=ghost")
    instance.add(ghost.child("name=o1"), ["node"], name="o1")
    instance.add(ghost.child("name=deep").child("name=o2"), ["node"], name="o2")
    instance.add(DN.parse("name=o3, name=nowhere"), ["node"], name="o3")
    return instance, ghost


def absent_bases(instance, ghost):
    entries = list(instance)
    return [
        ghost,                                  # absent, with orphans below
        ghost.child("name=deep"),
        DN.parse("name=nowhere"),               # an absent forest root
        DN.parse("name=zzzz-after-everything"),
        DN.parse("name=!before-everything"),
        entries[-1].dn.child("name=none"),      # below the last entry
        entries[0].dn.child("name=a").child("name=none"),
    ]


def reference_scan(store, base, max_depth):
    """The scan this suite replaced: every page of the subtree's range,
    one prefix test per entry, the scope as a filter over the output (a
    ``base`` probe stops at the first entry of the range)."""
    scope = {depth: scope for scope, depth in DEPTH_OF.items()}[max_depth]
    start, end = store.page_range_for_subtree(base)
    out = []
    for page_index in range(start, end):
        for entry in store.pager.read(store.master.page_ids[page_index]):
            if not base.is_prefix_of(entry.dn):
                continue
            if max_depth == 0:
                return [entry] if entry.dn == base else []
            if scope_admits(base, scope, entry.dn):
                out.append(entry)
    return out


def logical_reads(pager, thunk):
    before = pager.stats.snapshot()
    result = thunk()
    return result, pager.stats.since(before).logical_reads


@pytest.mark.parametrize("page_size", PAGE_SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_scan_equals_the_definition_and_reads_the_same_pages(
    seed, page_size, repeat_step
):
    seed += 1000 * repeat_step
    instance, ghost = decorated_instance(seed)
    store = DirectoryStore.from_instance(instance, page_size=page_size, buffer_pages=4)
    pager = store.pager
    everything = list(store.scan_all())
    bases = [ROOT_DN] + [entry.dn for entry in everything] + absent_bases(instance, ghost)
    for base in bases:
        context = "seed=%d page_size=%d base=%r" % (seed, page_size, str(base))
        start, end = store.page_range_for_subtree(base)
        cost = {}
        for scope, max_depth in DEPTH_OF.items():
            want = [e for e in everything if scope_admits(base, scope, e.dn)]
            got, cost[scope] = logical_reads(
                pager, lambda: list(store.scan_subtree(base, max_depth))
            )
            assert [str(e.dn) for e in got] == [str(e.dn) for e in want], (context, scope)
            old, old_cost = logical_reads(
                pager, lambda: reference_scan(store, base, max_depth)
            )
            assert [e.dn for e in old] == [e.dn for e in want], (context, scope)
            if scope == Scope.SUB:
                assert cost[scope] == old_cost == end - start, context
            elif scope == Scope.BASE:
                # The base can only be on the first page of its range; the
                # replaced scan read on to the first orphan when it was
                # absent and that page held none of its subtree.
                assert cost[scope] == min(1, end - start), context
                assert cost[scope] <= old_cost, context
                if want or old_cost <= 1:
                    assert cost[scope] == old_cost, context
        # Children present, or implied by an orphan below an absent one:
        # each is one subtree the scan lands in and seeks out of.
        depth = base.depth() + 1
        children = len({
            e.dn.key()[:depth] for e in everything if base.is_ancestor_of(e.dn)
        })
        assert cost[Scope.ONE] <= cost[Scope.SUB], context
        assert cost[Scope.ONE] <= 2 * (children + 1), context


@pytest.mark.parametrize("page_size", (2, 3, 16))
def test_bases_at_page_boundaries(page_size, repeat_step):
    """The first and the last entry of a page, as bases: the cut of the
    boundary page must neither drop nor leak a neighbour."""
    seed = 5 + 1000 * repeat_step
    instance, _ghost = decorated_instance(seed)
    store = DirectoryStore.from_instance(instance, page_size=page_size, buffer_pages=4)
    everything = list(store.scan_all())
    boundary = []
    for page_id in store.master.page_ids:
        records = store.pager.read(page_id)
        boundary += [records[0].dn, records[-1].dn]
    assert len(boundary) >= 8
    for base in boundary:
        for scope, max_depth in DEPTH_OF.items():
            want = [str(e.dn) for e in everything if scope_admits(base, scope, e.dn)]
            got = [str(e.dn) for e in store.scan_subtree(base, max_depth)]
            assert got == want, (seed, page_size, str(base), scope)
            assert got[0] == str(base)


def test_one_scope_skips_the_grandchildren_pages():
    """The point of the seek: listing one level of a deep tree touches a
    couple of pages per child, not the subtree."""
    from repro.workload import balanced_instance

    instance = balanced_instance(4000, fanout=4, seed=3)
    store = DirectoryStore.from_instance(instance, page_size=16, buffer_pages=8)
    root = next(iter(instance.roots())).dn
    children, one_cost = logical_reads(
        store.pager, lambda: list(store.scan_subtree(root, 1))
    )
    assert [e.dn for e in children[1:]] == [e.dn for e in instance.children_of(root)]
    assert one_cost <= 2 * len(children)
    assert store.page_range_for_subtree(root) == (0, store.page_count)
    assert store.page_count >= 25 * one_cost


@pytest.mark.parametrize("seed", SEEDS)
def test_every_consumer_takes_the_one_scan(seed, repeat_step):
    """The engine's atomic leaf, the LDAP baseline and the view's point
    reads all go through ``scan_subtree(base, max_depth)``."""
    seed += 1000 * repeat_step
    instance, ghost = decorated_instance(seed)
    directory = UpdatableDirectory.from_instance(instance, page_size=3, buffer_pages=4)
    everything = list(instance)
    bases = [ROOT_DN, ghost] + [entry.dn for entry in everything[:: 5]]
    with directory.acquire_view() as view:
        for base in bases:
            for scope in Scope.ALL:
                want = [str(e.dn) for e in everything if scope_admits(base, scope, e.dn)]
                context = (seed, str(base), scope)
                atomic = evaluate_atomic(view, AtomicQuery(base, scope, MatchAll()))
                assert [str(e.dn) for e in atomic] == want, context
                atomic.free()
                ldap = evaluate_ldap(view.store, LDAPQuery(base, scope, "name=*"))
                assert [str(e.dn) for e in ldap] == want, context
                ldap.free()
            kids = [str(e.dn) for e in everything if base.is_parent_of(e.dn)]
            assert [str(dn) for dn in view.children(base)] == kids, (seed, str(base))
            found = view.lookup(base)
            assert (found is not None) == (base in instance), (seed, str(base))
            assert found is None or found.dn == base
    assert directory._pins == {}
