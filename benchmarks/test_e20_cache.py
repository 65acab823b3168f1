"""E20 (extension): the semantic query cache on skewed workloads.

A directory front-end sees heavily repeated queries (web-trace-like,
Zipf-distributed popularity).  The subtree-keyed cache should convert
that repetition into logical-I/O savings: on a Zipf(1.0) stream the
cached service must do at least 5x fewer page accesses than an uncached
one, and a write must cost the cache exactly what it has to: a touched
L0 result is patched in place (and stays exact), a touched hierarchical
result is evicted, and everything else survives -- including across
compaction.
"""

import random

from repro.cache import fingerprint
from repro.server import DirectoryService
from repro.workload import ZipfQueryStream, random_instance

from ._util import record

INSTANCE_SEED = 20
INSTANCE_SIZE = 500
STREAM_LENGTH = 300
DISTINCT = 32
CACHE_BYTES = 8 * 1024 * 1024  # generous: isolate hit-rate effects from eviction


def make_service(cache_bytes: int) -> DirectoryService:
    instance = random_instance(INSTANCE_SEED, size=INSTANCE_SIZE)
    return DirectoryService(
        instance, page_size=16, buffer_pages=8, cache_bytes=cache_bytes
    )


def stream_io(service: DirectoryService, queries) -> int:
    """Total logical page accesses to answer ``queries`` in order."""
    pager = service.directory.store.pager
    pager.flush()
    before = pager.stats.snapshot()
    for query in queries:
        service.search(query)
    delta = pager.stats.since(before)
    return delta.logical_reads + delta.logical_writes


def test_e20_io_reduction_vs_skew(benchmark):
    rows = []
    ratio_at_one = None
    for skew in (0.0, 0.5, 1.0, 1.5):
        instance = random_instance(INSTANCE_SEED, size=INSTANCE_SIZE)
        queries = ZipfQueryStream(
            instance, distinct=DISTINCT, skew=skew, seed=7
        ).take(STREAM_LENGTH)
        cached = make_service(CACHE_BYTES)
        uncached = make_service(0)
        io_cached = stream_io(cached, queries)
        io_uncached = stream_io(uncached, queries)
        stats = cached.cache_stats
        ratio = io_uncached / max(io_cached, 1)
        if skew == 1.0:
            ratio_at_one = ratio
        rows.append(
            (
                skew,
                io_uncached,
                io_cached,
                round(ratio, 1),
                round(stats.hit_rate, 3),
                stats.saved_logical_io,
            )
        )
    record(
        benchmark,
        "E20: logical I/O, cached vs uncached (%d queries, %d distinct)"
        % (STREAM_LENGTH, DISTINCT),
        ("skew", "uncached I/O", "cached I/O", "reduction", "hit rate", "saved I/O"),
        rows,
    )
    assert ratio_at_one is not None and ratio_at_one >= 5.0, (
        "expected >=5x I/O reduction at Zipf(1.0), got %.1fx" % ratio_at_one
    )
    benchmark.pedantic(
        lambda: stream_io(make_service(CACHE_BYTES), queries), rounds=2, iterations=1
    )


def test_e20_hit_rate_vs_update_rate(benchmark):
    """Interleaved point updates do not erode the hit rate of an L0
    stream: each modify patches the cached queries whose footprint covers
    the touched dn in place, so the next read of that shape still hits."""
    rows = []
    hit_rates = []
    for update_rate in (0.0, 0.02, 0.05, 0.10):
        instance = random_instance(INSTANCE_SEED, size=INSTANCE_SIZE)
        victims = [
            e.dn for e in instance if e.classes & {"node", "item"}
        ]
        queries = ZipfQueryStream(
            instance, distinct=DISTINCT, skew=1.0, seed=7
        ).take(STREAM_LENGTH)
        service = make_service(CACHE_BYTES)
        rng = random.Random(99)
        for index, query in enumerate(queries):
            service.search(query)
            if update_rate and rng.random() < update_rate:
                dn = rng.choice(victims)
                service.modify(dn, replace={"weight": [rng.randint(0, 100)]})
        stats = service.cache_stats
        hit_rates.append(stats.hit_rate)
        rows.append(
            (
                update_rate,
                stats.hits,
                stats.misses,
                stats.patched,
                stats.invalidations,
                round(stats.hit_rate, 3),
                stats.saved_logical_io,
            )
        )
    record(
        benchmark,
        "E20: hit rate vs update rate (Zipf 1.0)",
        ("update rate", "hits", "misses", "patched", "invalidated", "hit rate",
         "saved I/O"),
        rows,
    )
    assert hit_rates[0] >= hit_rates[-1], (
        "updates should not improve the hit rate: %s" % hit_rates
    )
    assert hit_rates[-1] > 0, "cache should retain value under 10%% updates"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e20_invalidation_precision(benchmark):
    """A targeted update patches the touched L0 resident in place, evicts
    the touched hierarchical resident, and leaves every other resident
    alone; all of them stay correct across compaction."""
    instance = random_instance(INSTANCE_SEED, size=INSTANCE_SIZE, forest_roots=4)
    roots = sorted({e.dn for e in instance.roots()}, key=lambda dn: dn.key())
    service = DirectoryService(
        instance, page_size=16, buffer_pages=8, cache_bytes=CACHE_BYTES
    )
    flat = ["(%s ? sub ? kind=alpha)" % root for root in roots]
    nested = [
        "(c (%s ? sub ? kind=alpha) (%s ? sub ? objectClass=*))" % (root, root)
        for root in roots
    ]
    texts = flat + nested
    keys = [fingerprint(text) for text in texts]
    baselines = [service.search(text).dns() for text in texts]  # fill the cache
    assert all(key in service.cache for key in keys)

    # touch one kind=alpha child under the first root only
    victim = next(
        e.dn for e in instance
        if roots[0].is_ancestor_of(e.dn) and e.classes & {"node", "item"}
        and "alpha" in e.values("kind")
    )
    service.modify(victim, replace={"weight": [1]})
    evicted = [key for key in keys if key not in service.cache]
    assert evicted == [keys[len(roots)]], (
        "only the touched subtree's hierarchical query evicts"
    )
    assert service.cache_stats.patched == 1, "the touched L0 query is patched"
    patched = service.cache.peek(keys[0])
    assert [str(e.dn) for e in patched.entries] == baselines[0]
    assert [
        e.values("weight") for e in patched.entries if e.dn == victim
    ] == [(1,)], "the patched row carries the post-image"
    untouched = [key for key in keys if key not in (keys[0], keys[len(roots)])]

    service.directory.compact()
    survivors = [key for key in keys if key not in evicted]
    assert all(key in service.cache for key in survivors), (
        "compaction must not flush surviving entries"
    )
    correct = 0
    for text, baseline, key in zip(texts, baselines, keys):
        result = service.search(text)
        assert result.cached == (key in survivors), text
        assert result.dns() == baseline  # a weight change moves no row
        correct += result.cached
    record(
        benchmark,
        "E20: invalidation precision (4 subtree + 4 hierarchical queries, "
        "1 point update)",
        ("cached before", "patched", "evicted", "untouched",
         "correct after compaction"),
        [(len(keys), 1, len(evicted), len(untouched), correct)],
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
