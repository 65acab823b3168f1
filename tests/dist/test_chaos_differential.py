"""Differential property under chaos: a completed federated query equals
the single-server answer exactly; a partial answer is a subset of it.

The subset guarantee is stated for *monotone* queries only (And/Or trees
over atomic leaves).  Diff is not monotone: dropping a server's sublist
from the right-hand side of a difference can only *grow* the answer, so
partial results there may be supersets -- the trees below deliberately
exclude it.
"""

import pytest

from repro.dist import FederatedDirectory, RetryPolicy
from repro.query.ast import And, Or
from repro.query.semantics import evaluate
from repro.workload import RandomQueries, random_instance

from tests.dist.faults import FaultInjector, FaultPlan


def monotone_query(queries: RandomQueries, depth: int = 2):
    """An And/Or (negation-free) tree over random atomic leaves."""
    if depth <= 0 or queries.rng.random() < 0.4:
        return queries.atomic()
    ctor = queries.rng.choice([And, Or])
    return ctor(
        monotone_query(queries, depth - 1), monotone_query(queries, depth - 1)
    )


def build_federation(instance, drop_rate, seed, max_attempts, crashed=None):
    roots = sorted({e.dn for e in instance.roots()}, key=lambda dn: dn.key())
    assignments = {"server%d" % i: [root] for i, root in enumerate(roots)}
    plan = FaultPlan(seed=seed, drop_rate=drop_rate)
    if crashed is not None:
        plan.crash(crashed)  # down for the whole run
    network = FaultInjector(plan)
    fed = FederatedDirectory.partition(
        instance,
        assignments,
        page_size=8,
        network=network,
        leaf_cache_bytes=0,  # every leaf goes over the wire
    )
    fed.enable_resilience(
        retry=RetryPolicy(max_attempts=max_attempts, backoff_s=0.001, seed=seed),
        serve_stale=False,  # degraded rungs would mask the subset property
    )
    return fed


@pytest.mark.parametrize(
    "seed, crashed",
    [(seed, None) for seed in range(6)] + [(0, "server1")],
    ids=[str(seed) for seed in range(6)] + ["crash-server1"],
)
def test_completed_equals_oracle_and_partial_is_subset(seed, crashed):
    # A crashed server, in partial mode, still leaves every query answered.
    instance = random_instance(41 + seed, size=150, forest_roots=3)
    fed = build_federation(
        instance, drop_rate=0.4 if crashed is None else 0.0, seed=seed,
        max_attempts=2, crashed=crashed,
    )
    queries = RandomQueries(instance, seed=seed)
    servers = sorted(fed.servers)
    saw_partial = saw_complete = 0
    for index in range(30):
        query = monotone_query(queries)
        expected = [str(e.dn) for e in evaluate(query, instance)]
        result = fed.query(servers[index % len(servers)], query)
        got = result.dns()
        if result.partial:
            saw_partial += 1
            kept = set(got)
            assert kept <= set(expected), str(query)
            # ...and preserves the oracle's order (a true sublist).
            assert got == [dn for dn in expected if dn in kept], str(query)
        else:
            saw_complete += 1
            assert got == expected, str(query)
    # At 40% drop with two attempts, or with one server down, the
    # workload must exercise both arms.
    assert saw_partial > 0 and saw_complete > 0
    if crashed is not None:
        assert fed.network.faults.get("serverDown", 0) > 0


def test_no_faults_means_every_query_is_exact():
    instance = random_instance(47, size=120, forest_roots=2)
    fed = build_federation(instance, drop_rate=0.0, seed=0, max_attempts=4)
    queries = RandomQueries(instance, seed=3)
    for _ in range(15):
        query = monotone_query(queries)
        result = fed.query("server0", query)
        assert not result.partial and not result.warnings
        assert result.dns() == [str(e.dn) for e in evaluate(query, instance)]
    assert fed.network.fault_count() == 0
