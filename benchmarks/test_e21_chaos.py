"""E21: availability under injected faults (the chaos benchmark).

One logical directory is split across a headquarters server plus three
delegated subnet servers; a seeded fault schedule drops a fraction of all
messages.  With retry + circuit breaking armed the federation should keep
answering: at a 10% drop rate the acceptance bar is >= 99% of queries
answered *exactly* (matching the centralised oracle), the rest degraded
to marked partial answers -- never silently wrong.

Expected shape: availability (answered / issued) stays at 1.0 in partial
mode; exactness falls slowly with the drop rate while retries climb; with
no faults planned the chaos toolkit is invisible (zero faults, zero
retries, all exact)."""

from repro.dist import (
    FederatedDirectory,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.engine import QueryEngine
from repro.workload import RandomQueries, balanced_instance

from tests.dist.faults import FaultInjector, FaultPlan

from ._util import record

DROP_RATES = (0.0, 0.05, 0.10, 0.20)
QUERIES = 120
SIZE = 700
SEED = 21


def _build(drop_rate):
    instance = balanced_instance(SIZE, fanout=4, seed=SEED)
    root = next(iter(instance.roots())).dn
    subnets = [e.dn for e in instance if e.dn.depth() == 2][:3]
    assignments = {"hq": [root]}
    for index, subnet in enumerate(subnets):
        assignments["subnet%d" % index] = [subnet]
    network = FaultInjector(
        FaultPlan(seed=SEED, drop_rate=drop_rate, latency_s=0.001),
    )
    federation = FederatedDirectory.partition(
        instance,
        assignments,
        page_size=16,
        network=network,
        leaf_cache_bytes=0,  # every remote leaf goes over the faulty wire
    )
    federation.enable_resilience(
        ResiliencePolicy(
            retry=RetryPolicy(max_attempts=6, backoff_s=0.002, seed=SEED),
            breaker_failure_threshold=8,
            breaker_reset_s=0.05,
            serve_stale=False,  # measure retries, not masking
            mode="partial",
        )
    )
    return instance, federation, network


def _run_workload(instance, federation, network):
    baseline = QueryEngine.from_instance(instance, page_size=16)
    queries = RandomQueries(instance, seed=SEED)
    exact = partial = mismatch = retries = 0
    for _ in range(QUERIES):
        query = queries.l0()
        expected = baseline.run(query).dns()
        result = federation.query("hq", query)
        retries += result.retries
        if result.partial:
            partial += 1
        elif result.dns() == expected:
            exact += 1
        else:
            mismatch += 1
    return {
        "exact": exact,
        "partial": partial,
        "mismatch": mismatch,
        "retries": retries,
        "faults": network.fault_count(),
        "sim_seconds": round(network.now, 4),
    }


def test_e21_availability_under_drops(benchmark):
    rows = []
    by_rate = {}
    for rate in DROP_RATES:
        instance, federation, network = _build(rate)
        outcome = _run_workload(instance, federation, network)
        by_rate[rate] = outcome
        rows.append((
            "%.0f%%" % (rate * 100),
            outcome["exact"],
            outcome["partial"],
            outcome["mismatch"],
            outcome["retries"],
            outcome["faults"],
            outcome["sim_seconds"],
        ))
        # Degradation is always *marked*: a non-partial answer is exact.
        assert outcome["mismatch"] == 0, rate

    # Fault-free run: the chaos toolkit is invisible.
    clean = by_rate[0.0]
    assert clean["exact"] == QUERIES
    assert clean["faults"] == 0 and clean["retries"] == 0

    # The acceptance bar: >= 99% exact at a 10% drop rate.
    assert by_rate[0.10]["exact"] >= QUERIES * 0.99
    # And retries are doing the work, not luck.
    assert by_rate[0.10]["retries"] > 0

    record(
        benchmark,
        "E21: availability vs drop rate (%d queries, %d entries, 4 servers)"
        % (QUERIES, SIZE),
        ("drop", "exact", "partial", "mismatch", "retries", "faults",
         "sim clock (s)"),
        rows,
    )
    benchmark.pedantic(
        lambda: _run_workload(*_build(0.10)),
        rounds=2,
        iterations=1,
    )
