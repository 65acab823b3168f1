"""E26 (extension): the workload observability plane.

Three claims, deterministic except the (gate-skipped) wall columns:

1. *Instrumentation is free in the model.*  The same Zipf stream with the
   digest table and heat map enabled vs disabled performs **identical**
   logical page accesses and returns identical results -- observing the
   workload never perturbs it.  Wall-clock overhead is reported alongside
   and must stay small.
2. *The plane identifies the hot set.*  Under Zipf(1.2) skew the digest's
   top row is exactly the stream's most frequent fingerprint with its
   exact call count, and ``hottest(1)`` is exactly the subtree prefix
   that absorbed the most reads -- the signal ROADMAP item 3's shard
   placement consumes.
3. *Alerting is deterministic.*  A burst/idle script under an injected
   clock produces the same firing -> resolved transitions, with the same
   round timestamps, on every run.
"""

import time
from collections import Counter

from repro.cache import fingerprint
from repro.obs.alerts import parse_rule
from repro.obs.metrics import MetricsRegistry
from repro.server import DirectoryService
from repro.workload import ZipfQueryStream, random_instance

from ._util import record

INSTANCE_SEED = 26
INSTANCE_SIZE = 400
STREAM_LENGTH = 240
DISTINCT = 24
SKEW = 1.2
HEAT_DEPTH = 2


def make_service(obs: bool, cache_bytes: int = 8 * 1024 * 1024):
    instance = random_instance(INSTANCE_SEED, size=INSTANCE_SIZE)
    return instance, DirectoryService(
        instance,
        page_size=16,
        buffer_pages=8,
        cache_bytes=cache_bytes,
        metrics=MetricsRegistry(),
        digest_capacity=256 if obs else 0,
        heatmap_depth=HEAT_DEPTH if obs else 0,
    )


def make_stream(instance):
    return ZipfQueryStream(
        instance, distinct=DISTINCT, skew=SKEW, seed=7
    ).take(STREAM_LENGTH)


def run_stream(service, queries):
    """Replay the stream; return (logical page accesses, total entries
    returned, wall seconds)."""
    pager = service.directory.store.pager
    pager.flush()
    before = pager.stats.snapshot()
    returned = 0
    start = time.perf_counter()
    for query in queries:
        returned += service.search(query).total_size
    wall = time.perf_counter() - start
    delta = pager.stats.since(before)
    return delta.logical_reads + delta.logical_writes, returned, wall


def test_e26_observation_does_not_perturb_the_workload(benchmark):
    instance, observed = make_service(obs=True)
    _, bare = make_service(obs=False)
    queries = make_stream(instance)
    io_obs, returned_obs, wall_obs = run_stream(observed, queries)
    io_bare, returned_bare, wall_bare = run_stream(bare, queries)
    rows = [
        ("observed", io_obs, returned_obs, len(observed.digest),
         len(observed.heatmap), round(wall_obs * 1e3, 2)),
        ("bare", io_bare, returned_bare, 0, 0, round(wall_bare * 1e3, 2)),
        ("io delta", io_obs - io_bare, returned_obs - returned_bare,
         "", "", ""),
    ]
    record(
        benchmark,
        "E26: Zipf(%g) stream, digest+heatmap on vs off "
        "(identical logical I/O)" % SKEW,
        ("mode", "logical I/O", "entries returned", "digest rows",
         "heat cells", "wall ms"),
        rows,
    )
    assert io_obs == io_bare, (
        "instrumentation changed the model cost: %d vs %d" % (io_obs, io_bare)
    )
    assert returned_obs == returned_bare
    assert observed.digest.observed == STREAM_LENGTH
    # Wall overhead budget: generous (shared runners), but a pathological
    # slowdown -- say, lock contention on the search path -- must fail.
    floor = max(wall_bare, 1e-3)
    assert wall_obs <= 2.0 * floor, (
        "instrumentation overhead too high: %.1fms vs %.1fms"
        % (wall_obs * 1e3, wall_bare * 1e3)
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e26_digest_and_heatmap_identify_the_hot_set(benchmark):
    # Cache off: every search reaches the engine, so heat counters mirror
    # the stream exactly and the expected counts are pure arithmetic.
    # depth=0 keeps every pool query a single atomic leaf, so each search
    # is exactly one heat-map read at its base.
    instance, service = make_service(obs=True, cache_bytes=0)
    queries = ZipfQueryStream(
        instance, distinct=DISTINCT, skew=SKEW, seed=7, depth=0
    ).take(STREAM_LENGTH)
    run_stream(service, queries)

    expected_calls = Counter(fingerprint(q) for q in queries)
    expected_reads = Counter(q.base.key()[:HEAT_DEPTH] for q in queries)
    (top_key, top_calls), = expected_calls.most_common(1)

    digest_top = service.digest.top(3)
    heat_top = service.heatmap.hottest(3, by="reads")
    rows = [
        ("digest rank %d" % (i + 1), row.calls,
         expected_calls[row.key], row.text[:48])
        for i, row in enumerate(digest_top)
    ] + [
        ("heat rank %d" % (i + 1), cell["reads_total"],
         expected_reads[max(expected_reads, key=expected_reads.get)]
         if i == 0 else "", cell["subtree"])
        for i, cell in enumerate(heat_top)
    ]
    record(
        benchmark,
        "E26: hot-set identification under Zipf(%g) "
        "(top digest rows and heat cells vs stream truth)" % SKEW,
        ("rank", "observed", "expected", "shape / subtree"),
        rows,
    )
    # The digest's heaviest row is the stream's most frequent fingerprint,
    # with its exact call count -- and every row is exact.
    assert digest_top[0].key == top_key
    assert digest_top[0].calls == top_calls
    for row in digest_top:
        assert row.calls == expected_calls[row.key]
    # The hottest subtree is the one the stream read most, exactly.
    hottest_key = max(expected_reads, key=lambda k: (expected_reads[k], k))
    by_label = {c["subtree"]: c for c in service.heatmap.hottest(0)}
    for key, reads in expected_reads.items():
        label = ", ".join(reversed(key)) if key else "(root)"
        assert by_label[label]["reads_total"] == reads
    assert heat_top[0]["reads_total"] == expected_reads[hottest_key]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e26_alerts_fire_and_resolve_deterministically(benchmark):
    def run():
        instance, service = make_service(obs=True)
        clock = {"now": 0.0}
        engine = service.attach_alerts(
            [parse_rule("rate(repro_searches_total, 30) > 5", name="burst")],
            min_interval_s=0.0,
            clock=lambda: clock["now"],
        )
        # Burst: 120 searches across 10 injected seconds (12/s), then
        # idle: the clock advances past the window and the rule resolves.
        for query in make_stream(instance)[:120]:
            service.search(query)
            clock["now"] += 10.0 / 120.0
        for _ in range(3):
            clock["now"] += 30.0
            engine.evaluate()
        return [
            (t["rule"], t["to"], round(t["ts"], 3),
             round(t["value"], 2) if t["value"] is not None else None)
            for t in engine.status()["transitions"]
        ]

    first, second = run(), run()
    rows = [
        (rule, to, ts, value) for rule, to, ts, value in first
    ] + [("replay identical", first == second, "", "")]
    record(
        benchmark,
        "E26: alert transitions under an injected clock (burst then idle)",
        ("rule", "transition", "at injected s", "value"),
        rows,
    )
    assert first == second, "alert transitions are not deterministic"
    assert [(to) for _, to, _, _ in first] == ["firing", "resolved"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
