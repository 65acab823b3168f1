"""Update-log invalidation: precise, and survives compaction.

The maintainer's evict fallback is the only invalidation path: residents
whose membership is not locally decidable (hierarchical and aggregate
queries here) are dropped exactly when a write touches their footprint.
The patch arm, residents admitted without a query AST and the budget
fallback are covered by ``test_incremental.py``.
"""

from repro.cache import (
    IncrementalCacheMaintainer,
    QueryCache,
    fingerprint,
    query_footprint,
)
from repro.model.instance import DirectoryInstance
from repro.query.parser import parse_query
from repro.storage.maintenance import UpdatableDirectory
from repro.workload import synthetic_schema

#: Hierarchical (children of r-nodes) and aggregate shapes over one root.
CHILDREN = "(c (name=%s ? sub ? kind=alpha) (name=%s ? sub ? level>=1))"
AGGREGATE = "(g (name=%s ? sub ? kind=alpha) min(level)=min(min(level)))"


def make_directory() -> UpdatableDirectory:
    instance = DirectoryInstance(synthetic_schema())
    instance.add("name=r1", ["container"], name="r1", kind="alpha")
    instance.add("name=r2", ["container"], name="r2", kind="beta")
    for root in ("r1", "r2"):
        for i in range(4):
            instance.add(
                "name=%s-c%d, name=%s" % (root, i, root),
                ["node"],
                name="%s-c%d" % (root, i),
                kind="alpha",
                level=i,
            )
    return UpdatableDirectory.from_instance(instance, page_size=4, buffer_pages=4)


def seed_cache(cache: QueryCache, directory: UpdatableDirectory, text: str) -> str:
    query = parse_query(text)
    key = fingerprint(query)
    result = directory.engine().run(query)
    cache.put(
        key, text, result.entries, query_footprint(query), cost_io=10, query=query
    )
    return key


class TestUpdateLogInvalidator:
    def test_add_evicts_only_intersecting(self):
        directory = make_directory()
        cache = QueryCache()
        IncrementalCacheMaintainer(directory, cache)
        r1 = seed_cache(cache, directory, CHILDREN % ("r1", "r1"))
        r2 = seed_cache(cache, directory, CHILDREN % ("r2", "r2"))
        directory.add("name=new, name=r1", ["node"], name="new", kind="alpha")
        assert r1 not in cache
        assert r2 in cache
        assert cache.stats.invalidations == 1
        assert cache.stats.patched == 0

    def test_modify_evicts_point_cover(self):
        directory = make_directory()
        cache = QueryCache()
        IncrementalCacheMaintainer(directory, cache)
        r1 = seed_cache(cache, directory, AGGREGATE % "r1")
        r2 = seed_cache(cache, directory, AGGREGATE % "r2")
        directory.modify("name=r1-c0, name=r1", replace={"level": [7]})
        assert r1 not in cache
        assert r2 in cache

    def test_recursive_delete_uses_subtree_region(self):
        directory = make_directory()
        cache = QueryCache()
        IncrementalCacheMaintainer(directory, cache)
        # The resident's footprint lies strictly *below* the deleted dn:
        # only the subtree-shaped region reaches it.
        deep = seed_cache(
            cache,
            directory,
            "(c (name=r1-c0, name=r1 ? base ? kind=*) ( ? sub ? kind=*))",
        )
        other = seed_cache(cache, directory, AGGREGATE % "r2")
        directory.delete("name=r1", recursive=True)
        assert deep not in cache
        assert other in cache

    def test_survivors_remain_valid_across_compaction(self):
        directory = make_directory()
        cache = QueryCache()
        IncrementalCacheMaintainer(directory, cache)
        text = CHILDREN % ("r2", "r2")
        r2 = seed_cache(cache, directory, text)
        expected = [e.dn for e in cache.peek(r2).entries]
        directory.add("name=new, name=r1", ["node"], name="new", kind="alpha")
        directory.compact()  # nothing flushed wholesale
        assert r2 in cache
        # the surviving entry still matches a fresh evaluation
        fresh = directory.engine().run(text)
        assert [e.dn for e in fresh.entries] == expected

    def test_detach_stops_eviction(self):
        directory = make_directory()
        cache = QueryCache()
        hook = IncrementalCacheMaintainer(directory, cache)
        r1 = seed_cache(cache, directory, CHILDREN % ("r1", "r1"))
        hook.detach()
        directory.add("name=new, name=r1", ["node"], name="new", kind="alpha")
        assert r1 in cache  # stale by design once detached
        hook.detach()  # idempotent


class TestEpochFence:
    def test_write_touching_no_resident_still_fences_inflight_put(self):
        directory = make_directory()
        cache = QueryCache()
        IncrementalCacheMaintainer(directory, cache)
        query = parse_query("(name=r2 ? sub ? kind=alpha)")
        # A search captures the epoch, then evaluates on its snapshot...
        captured = cache.invalidation_epoch
        result = directory.engine().run(query)
        # ...while a write commits that touches no resident at all.
        directory.add("name=late, name=r2", ["node"], name="late", kind="alpha")
        admitted = cache.put(
            fingerprint(query), str(query), result.entries,
            query_footprint(query), 10, query=query, if_epoch=captured,
        )
        assert admitted is None, "pre-write result admitted after the write"
        assert cache.stats.rejected == 1
        assert fingerprint(query) not in cache
