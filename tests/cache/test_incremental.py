"""Incremental cache maintenance: patch in place instead of evicting.

Every patched result must stay *exact*: after any sequence of updates,
the cached entry list is bit-identical to a fresh evaluation of the same
query against the post-update directory.
"""

import threading

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


def seed_cache(cache, directory, text, cost_io=10):
    query = parse_query(text)
    key = fingerprint(query)
    result = directory.engine().run(query)
    cache.put(
        key, text, result.entries, query_footprint(query), cost_io, query=query
    )
    return key, query


def assert_exact(cache, directory, key, text):
    """The resident result matches a fresh evaluation, byte for byte."""
    resident = cache.peek(key)
    assert resident is not None
    fresh = directory.engine().run(text)
    assert [str(e.dn) for e in resident.entries] == [
        str(e.dn) for e in fresh.entries
    ]
    for cached, live in zip(resident.entries, fresh.entries):
        for name in live.attributes():
            assert cached.values(name) == live.values(name)


class TestPatch:
    def test_add_patches_matching_row_in(self):
        directory = make_directory()
        cache = QueryCache()
        IncrementalCacheMaintainer(directory, cache)
        key, _ = seed_cache(cache, directory, "(name=r1 ? sub ? kind=alpha)")
        before = len(cache.peek(key).entries)
        directory.add(
            "name=new, name=r1", ["node"], name="new", kind="alpha", level=9
        )
        assert key in cache
        assert len(cache.peek(key).entries) == before + 1
        assert_exact(cache, directory, key, "(name=r1 ? sub ? kind=alpha)")
        assert cache.stats.patched >= 1
        assert cache.stats.invalidations == 0

    def test_rows_insert_in_result_order(self):
        directory = make_directory()
        cache = QueryCache()
        IncrementalCacheMaintainer(directory, cache)
        key, _ = seed_cache(cache, directory, "(name=r1 ? sub ? kind=alpha)")
        # Several adds landing at different positions in reverse-dn order.
        for name in ("aa", "mm", "zz"):
            directory.add(
                "name=%s, name=r1" % name, ["node"], name=name, kind="alpha"
            )
        assert_exact(cache, directory, key, "(name=r1 ? sub ? kind=alpha)")

    def test_delete_patches_row_out(self):
        directory = make_directory()
        cache = QueryCache()
        IncrementalCacheMaintainer(directory, cache)
        key, _ = seed_cache(cache, directory, "(name=r1 ? sub ? kind=alpha)")
        before = len(cache.peek(key).entries)
        directory.delete("name=r1-c2, name=r1")
        assert key in cache
        assert len(cache.peek(key).entries) == before - 1
        assert_exact(cache, directory, key, "(name=r1 ? sub ? kind=alpha)")

    def test_subtree_delete_patches_all_rows_beneath(self):
        directory = make_directory()
        cache = QueryCache()
        IncrementalCacheMaintainer(directory, cache)
        key, _ = seed_cache(cache, directory, "( ? sub ? kind=alpha)")
        directory.delete("name=r1", recursive=True)
        assert key in cache
        assert_exact(cache, directory, key, "( ? sub ? kind=alpha)")
        assert all(
            not str(e.dn).endswith("name=r1") for e in cache.peek(key).entries
        )

    def test_modify_replaces_row_payload(self):
        directory = make_directory()
        cache = QueryCache()
        IncrementalCacheMaintainer(directory, cache)
        key, _ = seed_cache(cache, directory, "(name=r1 ? sub ? kind=alpha)")
        directory.modify("name=r1-c1, name=r1", replace={"level": [42]})
        assert key in cache
        resident = cache.peek(key)
        patched = next(
            e for e in resident.entries if str(e.dn).startswith("name=r1-c1")
        )
        assert patched.values("level") == (42,)
        assert_exact(cache, directory, key, "(name=r1 ? sub ? kind=alpha)")

    def test_modify_that_breaks_predicate_removes_row(self):
        directory = make_directory()
        cache = QueryCache()
        IncrementalCacheMaintainer(directory, cache)
        key, _ = seed_cache(cache, directory, "(name=r1 ? sub ? level<3)")
        directory.modify("name=r1-c0, name=r1", replace={"level": [7]})
        assert key in cache
        assert all(
            not str(e.dn).startswith("name=r1-c0")
            for e in cache.peek(key).entries
        )
        assert_exact(cache, directory, key, "(name=r1 ? sub ? level<3)")


class TestKeep:
    def test_rejected_add_keeps_resident_untouched(self):
        directory = make_directory()
        cache = QueryCache()
        maintainer = IncrementalCacheMaintainer(directory, cache)
        key, _ = seed_cache(cache, directory, "(name=r1 ? sub ? kind=alpha)")
        before = [str(e.dn) for e in cache.peek(key).entries]
        # Touches the footprint (under name=r1) but fails the predicate.
        directory.add("name=off, name=r1", ["node"], name="off", kind="beta")
        assert key in cache
        assert [str(e.dn) for e in cache.peek(key).entries] == before
        assert cache.stats.patched == 0
        assert cache.stats.invalidations == 0
        assert_exact(cache, directory, key, "(name=r1 ? sub ? kind=alpha)")

    def test_delete_outside_result_is_a_keep(self):
        directory = make_directory()
        cache = QueryCache()
        IncrementalCacheMaintainer(directory, cache)
        key, _ = seed_cache(cache, directory, "(name=r1 ? sub ? kind=alpha)")
        directory.add("name=off, name=r1", ["node"], name="off", kind="beta")
        before = [str(e.dn) for e in cache.peek(key).entries]
        directory.delete("name=off, name=r1")
        assert [str(e.dn) for e in cache.peek(key).entries] == before
        assert cache.stats.invalidations == 0


class TestEvictFallback:
    def test_non_local_query_still_evicts(self):
        directory = make_directory()
        cache = QueryCache()
        IncrementalCacheMaintainer(directory, cache)
        # HierarchySelect cannot be patched row-locally: membership of one
        # entry depends on other entries.
        text = "(c (name=r1 ? sub ? kind=alpha) ( ? sub ? level>=1))"
        key, _ = seed_cache(cache, directory, text)
        directory.add("name=h, name=r1", ["node"], name="h", kind="alpha")
        assert key not in cache
        assert cache.stats.invalidations == 1

    def test_result_without_query_ast_still_evicts(self):
        directory = make_directory()
        cache = QueryCache()
        IncrementalCacheMaintainer(directory, cache)
        query = parse_query("(name=r1 ? sub ? kind=alpha)")
        key = fingerprint(query)
        result = directory.engine().run(query)
        # Legacy put without the AST: no patch eligibility.
        cache.put(key, "legacy", result.entries, query_footprint(query), 10)
        directory.add("name=l, name=r1", ["node"], name="l", kind="alpha")
        assert key not in cache

    def test_untouched_results_are_left_alone(self):
        directory = make_directory()
        cache = QueryCache()
        IncrementalCacheMaintainer(directory, cache)
        key, _ = seed_cache(cache, directory, "(name=r2 ? sub ? kind=alpha)")
        before = [str(e.dn) for e in cache.peek(key).entries]
        directory.add("name=n, name=r1", ["node"], name="n", kind="alpha")
        assert [str(e.dn) for e in cache.peek(key).entries] == before

    def test_patch_outgrowing_budget_falls_back_to_invalidation(self):
        directory = make_directory()
        cache = QueryCache(byte_budget=2048)
        IncrementalCacheMaintainer(directory, cache)
        key, _ = seed_cache(cache, directory, "(name=r1 ? sub ? kind=alpha)")
        grew = False
        for i in range(64):
            directory.add(
                "name=pad%02d, name=r1" % i,
                ["node"],
                name="pad%02d" % i,
                kind="alpha",
                tag="x" * 40,
            )
            if key not in cache:
                grew = True
                break
        assert grew, "result never outgrew the byte budget"
        assert cache.stats.invalidations >= 1


class TestComposite:
    def test_boolean_queries_patch_exactly(self):
        directory = make_directory()
        cache = QueryCache()
        IncrementalCacheMaintainer(directory, cache)
        text = "(& (name=r1 ? sub ? kind=alpha) (name=r1 ? sub ? level<3))"
        key, _ = seed_cache(cache, directory, text)
        directory.add(
            "name=b1, name=r1", ["node"], name="b1", kind="alpha", level=1
        )
        directory.add(
            "name=b2, name=r1", ["node"], name="b2", kind="alpha", level=5
        )
        assert key in cache
        assert_exact(cache, directory, key, text)
        dns = [str(e.dn) for e in cache.peek(key).entries]
        assert any(d.startswith("name=b1") for d in dns)
        assert not any(d.startswith("name=b2") for d in dns)

    def test_detach_stops_maintenance(self):
        directory = make_directory()
        cache = QueryCache()
        maintainer = IncrementalCacheMaintainer(directory, cache)
        key, _ = seed_cache(cache, directory, "(name=r1 ? sub ? kind=alpha)")
        maintainer.detach()
        before = len(cache.peek(key).entries)
        directory.add("name=d, name=r1", ["node"], name="d", kind="alpha")
        assert len(cache.peek(key).entries) == before  # now stale, untouched

    def test_patched_results_survive_compaction(self):
        directory = make_directory()
        cache = QueryCache()
        IncrementalCacheMaintainer(directory, cache)
        key, _ = seed_cache(cache, directory, "(name=r1 ? sub ? kind=alpha)")
        directory.add("name=s, name=r1", ["node"], name="s", kind="alpha")
        directory.compact()
        assert key in cache
        assert_exact(cache, directory, key, "(name=r1 ? sub ? kind=alpha)")


class TestConcurrentRecords:
    """Writers notify listeners outside the directory's write lock: records
    reach the maintainer from several threads, possibly out of lsn order."""

    TEXT = "(name=r1 ? sub ? kind=alpha)"

    def test_overlapping_records_do_not_lose_a_patch(self):
        directory = make_directory()
        cache = QueryCache()
        maintainer = IncrementalCacheMaintainer(directory, cache)
        key, _ = seed_cache(cache, directory, self.TEXT)
        real = maintainer._delta
        a_in_delta, b_done = threading.Event(), threading.Event()

        def gated(cached, record):
            delta = real(cached, record)  # computed from the rows before B
            if threading.current_thread().name == "writer-a":
                a_in_delta.set()
                # B finishes first only if records are not serialised;
                # when they are, this times out and A goes first.
                b_done.wait(0.3)
            return delta

        maintainer._delta = gated

        def write(name):
            directory.add(
                "name=%s, name=r1" % name, ["node"], name=name, kind="alpha"
            )

        def write_b():
            write("b")
            b_done.set()

        a = threading.Thread(target=write, args=("a",), name="writer-a")
        b = threading.Thread(target=write_b, name="writer-b")
        a.start()
        assert a_in_delta.wait(10)
        b.start()
        a.join(10)
        b.join(10)
        assert not a.is_alive() and not b.is_alive()
        assert cache.stats.patched == 2
        assert_exact(cache, directory, key, self.TEXT)

    def test_late_record_evicts_instead_of_patching_over_newer_state(self):
        directory = make_directory()
        cache = QueryCache()
        maintainer = IncrementalCacheMaintainer(directory, cache)
        maintainer.detach()  # deliver by hand, in the wrong order
        records = []
        directory.add_record_listener(records.append)
        key, _ = seed_cache(cache, directory, self.TEXT)
        directory.modify("name=r1-c0, name=r1", replace={"level": [5]})
        directory.modify("name=r1-c0, name=r1", replace={"level": [9]})
        first, second = records
        maintainer._on_record(second)
        assert_exact(cache, directory, key, self.TEXT)
        maintainer._on_record(first)  # must not roll the row back to level=5
        assert key not in cache
