"""Tripwire: a write, a superset probe and an index lookup cost
O(depth + hits), not O(residents), and a patch costs O(log rows), not
O(rows).

Each count is the interpreter's function calls (``_calls`` of
``tests/server/test_hit_path.py``) of one operation, taken at several
cache, index or result sizes that differ only in residents or rows the
operation does not touch.  The counts must stay within 10 % of each other
across the sweep.  A linear walk over the residents or rows grows with
every size step and fails here before any benchmark runs.  E24 records
the maintainer row.
"""

import pytest

from repro.cache import IncrementalCacheMaintainer, QueryCache, query_footprint
from repro.engine import QueryEngine
from repro.model.dn import DN, ROOT_DN
from repro.model.instance import DirectoryInstance
from repro.model.prefix_index import PrefixIndex
from repro.query.parser import parse_query
from repro.storage.maintenance import UpdatableDirectory
from repro.workload import balanced_instance, synthetic_schema

from tests.server.test_hit_path import _calls


def make_directory() -> UpdatableDirectory:
    """Two roots, three children each, two grandchildren per child."""
    instance = DirectoryInstance(synthetic_schema())
    for root in ("r1", "r2"):
        instance.add("name=%s" % root, ["container"], name=root, kind="alpha")
        for i in range(3):
            child = "name=%s-c%d, name=%s" % (root, i, root)
            instance.add(child, ["node"], name="%s-c%d" % (root, i),
                         kind=("alpha", "beta")[i % 2], level=i)
            for j in range(2):
                instance.add(
                    "name=%s-c%d-g%d, %s" % (root, i, j, child), ["node"],
                    name="%s-c%d-g%d" % (root, i, j), kind="alpha", level=j,
                )
    return UpdatableDirectory.from_instance(instance, page_size=4, buffer_pages=4)


#: The written entry: a leaf three RDNs deep.
VICTIM = DN.parse("name=r1-c0-g0, name=r1-c0, name=r1")

#: Residents whose footprint holds the victim, one per maintainer outcome:
#: three patches (the modified row is replaced), a keep (a modify the
#: query neither held nor admits) and an eviction (a hierarchical query).
TOUCHED = (
    "( ? sub ? kind=alpha)",
    "(name=r1-c0, name=r1 ? one ? level>=0)",
    "(%s ? base ? objectClass=*)" % VICTIM,
    "(name=r1 ? sub ? kind=beta)",
    "(d (name=r1 ? sub ? kind=alpha) (name=r1 ? base ? kind=alpha))",
)


def _put(cache, text, entries=()):
    query = parse_query(text)
    cache.put(text, text, entries, query_footprint(query), 1, query=query)


def _untouched(n):
    """``n`` ``sub`` residents' texts on bases beside the victim's tree."""
    return ["(name=u%d, name=r2 ? sub ? kind=alpha)" % i for i in range(n)]


def maintainer_calls(residents):
    """Calls the maintainer makes applying one single-entry modify of
    :data:`VICTIM` to a cache of ``residents`` residents, of which the
    :data:`TOUCHED` ones hold the victim.  Returns (calls, outcome)."""
    directory = make_directory()
    cache = QueryCache(byte_budget=1 << 30)
    for text in TOUCHED:
        with directory.acquire_view() as view:
            _put(cache, text, QueryEngine(view).run(parse_query(text)).entries)
    for text in _untouched(residents - len(TOUCHED)):
        _put(cache, text)
    maintainer = IncrementalCacheMaintainer(directory, cache)
    maintainer.detach()  # the count below applies the record itself
    records = []
    directory.add_record_listener(records.append)
    directory.modify(VICTIM, replace={"level": [7]})
    (record,) = records
    calls = _calls(lambda: maintainer._on_record(record))
    stats = cache.stats
    return calls, (len(cache), stats.patched, stats.invalidations)


def patch_calls(size):
    """Calls the maintainer makes patching one single-entry modify into
    the one resident ``( ? sub ? objectClass=*)`` over
    ``balanced_instance(size)``, whose ``size`` rows it holds.  The
    modified entry is the last one three RDNs deep at every size, so the
    dn's depth (which the prefix index probes) stays put."""
    directory = UpdatableDirectory.from_instance(balanced_instance(size, seed=3))
    text = "( ? sub ? objectClass=*)"
    with directory.acquire_view() as view:
        rows = QueryEngine(view).run(parse_query(text)).entries
    cache = QueryCache(byte_budget=1 << 30)
    _put(cache, text, rows)
    maintainer = IncrementalCacheMaintainer(directory, cache)
    maintainer.detach()  # the count below applies the record itself
    records = []
    directory.add_record_listener(records.append)
    position = max(i for i, row in enumerate(rows) if len(row.dn.key()) == 3)
    directory.modify(rows[position].dn, replace={"weight": [7]})
    (record,) = records
    calls = _calls(lambda: maintainer._on_record(record))
    (resident,) = cache
    assert cache.stats.patched == 1 and len(resident.entries) == size
    assert resident.entries[position] is record.entry
    return calls


def superset_calls(residents, covering):
    """Calls of one ``find_superset`` probe at :data:`VICTIM` for
    ``kind=alpha`` in a cache of ``residents`` ``sub`` residents: half on
    the same filter beside the victim's tree, half on other filters at its
    ancestors.  With ``covering`` one more resident covers the probe."""
    cache = QueryCache(byte_budget=1 << 30)
    half = residents // 2
    for text in _untouched(half):
        _put(cache, text)
    for i in range(residents - half):
        _put(cache, "(name=r1 ? sub ? weight>=%d)" % i)
    if covering:
        _put(cache, "(name=r1 ? sub ? kind=alpha)")
    found = []
    calls = _calls(lambda: found.append(cache.find_superset(VICTIM, "kind=alpha")))
    assert (found[0] is not None) == covering
    return calls


def index_calls(scopes):
    """Calls of one ``containing`` plus one ``under`` lookup at
    :data:`VICTIM` in an index of ``scopes`` scopes; the same six contain
    the victim or lie under it at every size."""
    index = PrefixIndex()
    near = [
        (ROOT_DN, True), (DN.parse("name=r1"), True), (VICTIM, False),
        (VICTIM, True), (VICTIM.child("name=x"), False),
        (VICTIM.child("name=y"), True),
    ]
    far = [
        (DN.parse("name=u%d, name=r2" % i), bool(i % 2))
        for i in range(scopes - len(near))
    ]
    for i, (root, subtree) in enumerate(near + far):
        index.add(i, root.key(), subtree)
    key = VICTIM.key()
    hits = []
    calls = _calls(lambda: hits.append((index.containing(key), index.under(key))))
    assert hits == [({0, 1, 2, 3}, {2, 3, 4, 5})]
    return calls


def _flat(counts):
    return max(counts) <= 1.1 * min(counts)


def test_maintainer_calls_per_write_are_flat_in_residents():
    results = {n: maintainer_calls(n) for n in (64, 256, 1024, 4096)}
    counts = [calls for calls, _ in results.values()]
    assert _flat(counts), results
    for n, (_calls_made, (resident, patched, evicted)) in results.items():
        assert (resident, patched, evicted) == (n - 1, 3, 1), results


def test_patch_calls_per_write_are_flat_in_rows():
    counts = {n: patch_calls(n) for n in (100, 1_000, 4_000)}
    assert _flat(list(counts.values())), counts


@pytest.mark.parametrize("covering", [False, True], ids=["miss", "hit"])
def test_superset_probe_calls_are_flat_in_residents(covering):
    counts = {n: superset_calls(n, covering) for n in (0, 100, 1_000, 10_000)}
    assert _flat(list(counts.values())), counts


def test_index_lookup_calls_are_flat_in_scopes():
    counts = {n: index_calls(n) for n in (10, 100, 1_000, 10_000)}
    assert _flat(list(counts.values())), counts
