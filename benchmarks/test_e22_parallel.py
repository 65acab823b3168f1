"""E22: parallel scatter-gather -- wall-clock speedup without changing a
single answer.

One logical directory is split across a headquarters server plus four
delegated subnet servers, and the simulated network is given a *real*
per-message wire latency, so a spanning atomic query costs 2 messages per
remote owner of genuine waiting.  The worker pool overlaps those waits.

Expected shape: with w workers the fan-out over k remote owners takes
~ceil(k/w) x (2 x wire latency) instead of k x (2 x wire latency), so 4
workers over 4 remote owners approach a 4x speedup (acceptance bar: >=
2x).  A boolean query over two spanning leaves fans each leaf out on its
own -- the engine above the leaves evaluates them in order -- so it
approaches the same factor (bar: >= 2.5x) with two parallel batches per
query; ``parallel_batches`` is a deterministic column, so the perf-gate
catches a scatter that goes serial again.  Meanwhile the answers are
*bit-identical* at every worker count -- same entries in the same order,
same message/shipped accounting, same coordinator page I/O -- and the
single-worker pool never starts a thread, so the default configuration
pays zero overhead."""

import time

from repro.dist import FederatedDirectory, SimulatedNetwork
from repro.engine import QueryEngine
from repro.workload import balanced_instance

from ._util import record

SIZE = 1_000
SEED = 22
WORKERS = (1, 2, 4)
WIRE_LATENCY_S = 0.010
QUERY = "( ? sub ? kind=alpha)"  # null base: spans every server
#: Two leaves that each span every server.
BOOLEAN_QUERY = "(& ( ? sub ? kind=alpha) ( ? sub ? weight<50))"
#: (query, its spanning leaves, the bar its 4-worker speedup must clear)
QUERIES = ((QUERY, 1, 2.0), (BOOLEAN_QUERY, 2, 2.5))
ROUNDS = 5


def _build(max_workers, wire_latency_s=WIRE_LATENCY_S):
    instance = balanced_instance(SIZE, fanout=4, seed=SEED)
    root = next(iter(instance.roots())).dn
    subnets = [e.dn for e in instance if e.dn.depth() == 2][:4]
    assignments = {"hq": [root]}
    for index, subnet in enumerate(subnets):
        assignments["subnet%d" % index] = [subnet]
    network = SimulatedNetwork(wire_latency_s=wire_latency_s)
    federation = FederatedDirectory.partition(
        instance,
        assignments,
        page_size=16,
        network=network,
        leaf_cache_bytes=0,  # every remote leaf goes over the wire
        max_workers=max_workers,
    )
    return instance, federation, network


def _time_queries(federation, query=QUERY, rounds=ROUNDS):
    """(first result, mean seconds per query, parallel batches per query)."""
    # First query outside the timed window: it lazily builds each
    # server's engine (and, when parallel, starts the pool's threads).
    reference = federation.query("hq", query)
    batches = federation.pool.parallel_batches
    started = time.perf_counter()
    for _ in range(rounds):
        result = federation.query("hq", query)
    elapsed = (time.perf_counter() - started) / rounds
    assert result.dns() == reference.dns()
    per_query, remainder = divmod(federation.pool.parallel_batches - batches, rounds)
    assert remainder == 0
    return reference, elapsed, per_query


def test_e22_parallel_speedup_and_identity(benchmark):
    rows = []
    for query, leaves, bar in QUERIES:
        instance, sequential_fed, _ = _build(max_workers=1)
        oracle = QueryEngine.from_instance(instance, page_size=16).run(query).dns()
        results, times = {}, {}
        for workers in WORKERS:
            _, federation, network = _build(max_workers=workers)
            try:
                result, elapsed, batches = _time_queries(federation, query)
            finally:
                federation.close()
            results[workers] = result
            times[workers] = elapsed
            # One fan-out per spanning leaf whenever the pool has threads.
            assert batches == (0 if workers == 1 else leaves)
            rows.append((
                query,
                workers,
                len(result),
                result.messages,
                result.entries_shipped,
                batches,
                round(elapsed * 1e3, 2),
                round(times[1] / elapsed, 2),
            ))

        # Identity: every worker count returns the centralised answer, in
        # the same order, with the same traffic and the same coordinator I/O.
        baseline = results[1]
        assert baseline.dns() == oracle
        for workers in WORKERS[1:]:
            result = results[workers]
            assert result.dns() == baseline.dns()
            assert result.messages == baseline.messages
            assert result.entries_shipped == baseline.entries_shipped
            assert result.io.as_dict() == baseline.io.as_dict()

        # The default (sequential) federation is also bit-identical and
        # never starts a thread: the parallel layer is free when unused.
        default_result = sequential_fed.query("hq", query)
        assert default_result.dns() == baseline.dns()
        assert default_result.io.as_dict() == baseline.io.as_dict()
        assert sequential_fed.pool.parallel_batches == 0
        assert sequential_fed.pool._executor is None

        # The acceptance bar at 4 workers (the latency math says ~4x; the
        # bar leaves slack for scheduling noise).
        speedup = times[1] / times[4]
        assert speedup >= bar, "%s: 4-worker speedup %.2fx < %gx" % (
            query, speedup, bar)

    record(
        benchmark,
        "E22: scatter-gather speedup vs workers (%d entries, 4 remote owners,"
        " %.0fms wire latency)" % (SIZE, WIRE_LATENCY_S * 1e3),
        ("query", "workers", "answer", "messages", "shipped", "parallel_batches",
         "ms/query", "speedup"),
        rows,
    )
    benchmark.pedantic(
        lambda: _time_queries(_build(max_workers=4)[1], rounds=1),
        rounds=2,
        iterations=1,
    )
