"""Threaded hammers and seeded interleavings for the shared mutable
state the parallel scatter-gather exposes: metrics, the GreedyDual-Size
cache, the slow-query ring, and bracketed pager-stat snapshots.

Every test here failed (or could fail, given the right interleaving) on
the unlocked seed implementations; the invariants below are exactly the
ones the locks exist to protect.
"""

import random
import threading

from repro.cache import Footprint, QueryCache, query_footprint
from repro.model.dn import DN
from repro.model.entry import Entry
from repro.obs.event import SearchEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import CAPACITY, SlowQueryLog
from repro.query.parser import parse_query
from repro.storage.pager import Pager

from tests.cache.test_prefix_index import indexes_match_a_rebuild
from tests.meter import Meter

THREADS = 8
COM_SUB = Footprint.subtree("dc=com")


def _hammer(worker, count=THREADS):
    """Run ``worker(index)`` on ``count`` threads, propagating the first
    worker exception to the caller."""
    errors = []

    def guarded(index):
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _entries(n, prefix):
    return [
        Entry(DN.parse("name=%s%d, dc=com" % (prefix, i)), ["node"], {})
        for i in range(n)
    ]


class TestMetricsHammer:
    def test_counter_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", "hammered")
        per_thread = 10_000
        _hammer(lambda _i: [counter.inc() for _ in range(per_thread)])
        assert counter.value() == THREADS * per_thread

    def test_labelled_counter_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops", "hammered", labelnames=("kind",))
        per_thread = 5_000
        _hammer(
            lambda i: [
                counter.inc(kind="k%d" % (i % 2)) for _ in range(per_thread)
            ]
        )
        total = THREADS * per_thread
        assert counter.value(kind="k0") + counter.value(kind="k1") == total

    def test_get_or_create_race_returns_one_instrument(self):
        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(THREADS)

        def worker(_i):
            barrier.wait()
            seen.append(registry.counter("raced", "created concurrently"))

        _hammer(worker)
        assert len(seen) == THREADS
        assert all(instrument is seen[0] for instrument in seen)


class TestCacheHammer:
    def test_seeded_interleavings_preserve_accounting(self):
        cache = QueryCache(byte_budget=4_000)
        payloads = {
            "k%d" % i: _entries(1 + i % 5, "p%d" % i) for i in range(16)
        }

        def worker(index):
            rng = random.Random(index)  # seeded: rerunnable interleavings
            keys = list(payloads)
            for _ in range(2_000):
                key = rng.choice(keys)
                action = rng.random()
                if action < 0.5:
                    cache.get(key)
                elif action < 0.9:
                    cache.put(
                        key, "(q)", payloads[key], COM_SUB,
                        cost_io=rng.randrange(1, 50),
                        tag="t%d" % (index % 2),
                    )
                elif action < 0.95:
                    cache.invalidate_tag("t%d" % (index % 2))
                else:
                    cache.invalidate(DN.parse("dc=com"), subtree=True)

        _hammer(worker)
        # The accounting survived: resident bytes equal the residents'
        # sizes (no double-counted admissions), within budget, and the
        # stats ledger balances.
        assert cache.resident_bytes == sum(e.size_bytes for e in cache)
        assert cache.resident_bytes <= 4_000
        stats = cache.stats
        assert stats.hits + stats.misses == stats.lookups
        departed = stats.evictions + stats.invalidations
        assert stats.insertions - departed >= len(cache) >= 0
        # The structure is still live, not wedged.
        cache.put("after", "(q)", _entries(1, "z"), COM_SUB, cost_io=1)
        assert cache.get("after") is not None


class TestCacheIndexHammer:
    def test_index_equals_a_rebuild_after_racing_puts_patches_and_drops(self):
        """Readers admit results while writers patch (often past the byte
        budget, which evicts the patched resident), drop and invalidate,
        and admissions evict to make room.  Afterwards both prefix indexes
        hold exactly the residents: no stale root, none missing."""
        cache = QueryCache(byte_budget=3_000)
        bases = ("", "dc=com", "dc=att, dc=com", "dc=org", "name=p1, dc=com")
        queries = [
            parse_query("(%s ? %s ? kind=%s)" % (base, scope, kind))
            for base in bases
            for scope in ("base", "sub")
            for kind in ("alpha", "beta")
        ]
        queries.append(parse_query(
            "(d (dc=com ? sub ? kind=alpha) (dc=att, dc=com ? base ? kind=beta))"
        ))

        def worker(index):
            rng = random.Random(index)  # seeded: rerunnable interleavings
            for _ in range(1_500):
                query = rng.choice(queries)
                key = "%s#%d" % (query, rng.randrange(2))
                if index % 2 == 0:  # a reader
                    cache.put(
                        key, str(query), _entries(rng.randrange(1, 6), "r"),
                        query_footprint(query), cost_io=rng.randrange(1, 50),
                        query=query,
                    )
                    cache.find_superset(DN.parse("name=p1, dc=com"), "kind=alpha")
                    continue
                action = rng.random()  # a writer
                if action < 0.5:  # splice rows at random, past the end too
                    low = rng.randrange(0, 3)
                    cache.patch(key, low, low + rng.randrange(0, 4),
                                _entries(rng.randrange(0, 12), "w"))
                elif action < 0.7:
                    cache.drop(key)
                elif action < 0.9:
                    touched = cache.touching(
                        DN.parse(rng.choice(bases)), subtree=rng.random() < 0.5
                    )
                    for cached in touched:  # replace every row
                        cache.patch(cached.key, 0, len(cached.entries),
                                    _entries(rng.randrange(0, 3), "t"))
                else:
                    cache.invalidate(
                        DN.parse(rng.choice(bases)), subtree=rng.random() < 0.5
                    )

        _hammer(worker)
        assert indexes_match_a_rebuild(cache)
        assert cache.resident_bytes == sum(e.size_bytes for e in cache)
        assert cache.resident_bytes <= 3_000
        assert cache.stats.evictions > 0 and len(cache) > 0


class TestSlowLogHammer:
    def test_ring_total_is_exact_and_bounded(self):
        log = SlowQueryLog(threshold_seconds=0.0)
        per_thread = 3_000
        _hammer(
            lambda i: [
                log.record(SearchEvent(query_text="q%d" % i, elapsed=1.0, pages=j))
                for j in range(per_thread)
            ]
        )
        assert log.total == THREADS * per_thread
        assert len(log) == CAPACITY
        assert len(log.records()) == CAPACITY


class TestPagerSnapshotBracketing:
    def test_since_is_never_torn_under_parallel_traffic(self):
        pager = Pager(page_size=4, buffer_pages=2)
        pages = [pager.append_page([i]) for i in range(16)]
        stop = threading.Event()

        def reader(index):
            rng = random.Random(index)
            while not stop.is_set():
                pager.read(rng.choice(pages))

        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            # Every bracketed delta must be internally consistent: a
            # physical read only ever happens inside a logical read, so a
            # torn snapshot (one counter from before an op, one from
            # after) would eventually show reads > logical_reads.
            for _ in range(500):
                before = pager.stats.snapshot()
                delta = pager.stats.since(before)
                assert 0 <= delta.reads <= delta.logical_reads
                assert delta.writes >= 0 and delta.logical_writes >= 0
        finally:
            stop.set()
            for thread in threads:
                thread.join()


class TestAdminScrapeUnderLoad:
    def test_concurrent_metrics_scrapes_during_parallel_federated_queries(self):
        """The admin endpoint is a read-only view: hammering /metrics
        while a parallel federation answers queries must never tear the
        exposition, block the queries, or skew the counters."""
        import urllib.request

        from repro.dist import FederatedDirectory
        from repro.server import DirectoryService
        from repro.workload import random_instance

        instance = random_instance(31, size=120, forest_roots=2)
        roots = sorted({e.dn for e in instance.roots()}, key=lambda dn: dn.key())
        assignments = {"server%d" % i: [root] for i, root in enumerate(roots)}
        fed = FederatedDirectory.partition(
            instance, assignments, page_size=8, leaf_cache_bytes=0,
            max_workers=4,
        )
        service = DirectoryService(instance)
        service.attach_federation(fed, "server0")
        service.bind_anonymous()
        queries = ["(%s ? sub ? objectClass=*)" % root for root in roots]
        server = service.serve_admin()
        meter = Meter()
        scrapes = []
        searches_per_thread = 12
        try:
            url = server.url + "/metrics"

            def worker(index):
                if index < 4:  # query threads
                    for i in range(searches_per_thread):
                        result = service.search(queries[(index + i) % len(queries)])
                        assert result.code == "success"
                else:  # scrape threads
                    for _ in range(20):
                        with urllib.request.urlopen(url, timeout=10) as response:
                            assert response.status == 200
                            scrapes.append(response.read().decode("utf-8"))

            _hammer(worker)
        finally:
            server.stop()
            fed.close()
        # Every scrape was a complete, well-formed exposition document.
        assert len(scrapes) == (THREADS - 4) * 20
        for text in scrapes:
            assert text == "" or text.endswith("\n")
            for line in text.splitlines():
                assert line.startswith(("#", "repro_")) or " " in line
        # The counters never lost an increment to a concurrent scrape.
        assert meter("repro_searches_total", code="success") == 4 * searches_per_thread


class TestSnapshotIsolation:
    """Threaded writers against paged readers over the MVCC overlay.

    The write path keeps ``tag`` and ``weight`` in lockstep (tag "t<i>"
    always rides with weight ``i``): a reader observing a mismatched pair
    has seen a torn write, which snapshots make impossible.
    """

    def _directory(self):
        from repro.storage.maintenance import UpdatableDirectory
        from repro.workload import random_instance

        instance = random_instance(41, size=60)
        directory = UpdatableDirectory.from_instance(
            instance, page_size=8, auto_compact_at=64
        )
        root = next(iter(instance.roots())).dn
        return instance, directory, root

    def test_no_torn_reads_and_monotone_lsns(self):
        instance, directory, root = self._directory()
        writers = 3
        readers = THREADS - writers
        rounds = 40
        stop = threading.Event()

        def writer(index):
            dn = root.child("name=w%d" % index)
            directory.add(
                dn, ["node"], name="w%d" % index, tag="t0", weight=0
            )
            for i in range(1, rounds):
                directory.modify(
                    dn, replace={"tag": ["t%d" % i], "weight": [i]}
                )

        def reader(index):
            rng = random.Random(index)
            last_lsn = -1
            while not stop.is_set():
                with directory.acquire_view() as view:
                    # Views sampled over time never go backwards.
                    assert view.lsn >= last_lsn
                    last_lsn = view.lsn
                    for w in range(writers):
                        entry = view.lookup(root.child("name=w%d" % w))
                        if entry is None:
                            continue  # not added yet in this snapshot
                        (tag,) = entry.values("tag")
                        (weight,) = entry.values("weight")
                        assert tag == "t%d" % weight, (
                            "torn read: %s with weight %d" % (tag, weight)
                        )
                    # Re-reading inside the same view is stable even while
                    # writers advance the chain (repeatable read).
                    probe = root.child("name=w%d" % rng.randrange(writers))
                    first = view.lookup(probe)
                    again = view.lookup(probe)
                    assert (first is None) == (again is None)
                    if first is not None:
                        assert first.values("weight") == again.values("weight")

        def worker(index):
            if index < writers:
                writer(index)
            else:
                reader(index)

        reader_threads = []
        try:
            # Readers free-run while the writers hammer; _hammer joins the
            # writers, then we stop the readers.
            for i in range(writers, writers + readers):
                thread = threading.Thread(target=worker, args=(i,))
                thread.start()
                reader_threads.append(thread)
            _hammer(worker, count=writers)
        finally:
            stop.set()
            for thread in reader_threads:
                thread.join()
        # Every write got a distinct, dense lsn: nothing was lost or
        # double-assigned under contention.
        assert directory.head_lsn == writers * rounds

    def test_paged_scans_are_stable_under_writes(self):
        from repro.server import DirectoryService
        from repro.workload import random_instance

        instance = random_instance(43, size=80)
        service = DirectoryService(instance, page_size=8)
        service.bind_anonymous()
        root = next(iter(instance.roots())).dn
        stop = threading.Event()

        def writer(index):
            for i in range(30):
                code = service.add(
                    root.child("name=pg%d-%d" % (index, i)),
                    ["node"],
                    name="pg%d-%d" % (index, i),
                    kind="alpha",
                )
                assert code == "success"

        def reader(index):
            while not stop.is_set():
                seen = []
                for page in service.search_paged("( ? sub ? kind=*)", 16):
                    seen.extend(str(e.dn) for e in page)
                # A paged scan sees one snapshot: no duplicates and no
                # holes, even though writers landed entries between page
                # fetches.
                assert len(seen) == len(set(seen))

        def worker(index):
            if index < 2:
                writer(index)
            else:
                reader(index)

        reader_threads = []
        try:
            for i in range(2, 5):
                thread = threading.Thread(target=worker, args=(i,))
                thread.start()
                reader_threads.append(thread)
            _hammer(worker, count=2)
        finally:
            stop.set()
            for thread in reader_threads:
                thread.join()
        final = service.search("( ? sub ? kind=*)")
        dns = {str(e.dn) for e in final.entries}
        for index in range(2):
            for i in range(30):
                assert ("name=pg%d-%d, %s" % (index, i, root)) in dns

    def test_concurrent_compaction_never_breaks_readers(self):
        instance, directory, root = self._directory()
        stop = threading.Event()
        baseline = len(directory)

        def writer(index):
            for i in range(25):
                directory.add(
                    root.child("name=cc%d-%d" % (index, i)),
                    ["node"],
                    name="cc%d-%d" % (index, i),
                )

        def compactor(_index):
            while not stop.is_set():
                directory.compact()

        def reader(_index):
            while not stop.is_set():
                with directory.acquire_view() as view:
                    count = sum(1 for _ in view.store.scan_all())
                    assert count >= baseline  # adds only; never shrinks

        def worker(index):
            if index < 2:
                writer(index)
            elif index == 2:
                compactor(index)
            else:
                reader(index)

        background = []
        try:
            for i in range(2, 6):
                thread = threading.Thread(target=worker, args=(i,))
                thread.start()
                background.append(thread)
            _hammer(worker, count=2)
        finally:
            stop.set()
            for thread in background:
                thread.join()
        directory.compact()
        assert len(directory) == baseline + 2 * 25
        assert directory.compactions >= 1

    def test_maintenance_agent_under_write_load(self):
        from repro.txn.agent import MaintenanceAgent

        instance, directory, root = self._directory()
        agent = MaintenanceAgent()
        agent.start()
        directory.attach_maintenance(agent)
        try:
            def writer(index):
                for i in range(40):
                    directory.add(
                        root.child("name=ag%d-%d" % (index, i)),
                        ["node"],
                        name="ag%d-%d" % (index, i),
                    )

            _hammer(writer, count=4)
            agent.drain()
        finally:
            directory.detach_maintenance()
            agent.stop()
        assert agent.failures == 0
        # 160 adds over a 64-entry threshold: the agent compacted at
        # least once, off the writers' path.
        assert directory.compactions >= 1
        assert len(directory) == len(instance) + 4 * 40
