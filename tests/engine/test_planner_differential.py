"""Randomized differential suite: the planned engine must be
bit-identical to the paper-literal engine on every seeded query tree --
across rewrites, cost-based reorderings, ACL refiltering and cache hits.

CI runs this module repeatedly (``pytest-repeat``) in the
planner-differential job; locally each seed runs once.
"""

import pytest

from repro.engine import QueryEngine
from repro.engine.optimizer import PlannedEngine
from repro.security import AccessControlList
from repro.server import DirectoryService
from repro.storage.store import DirectoryStore
from repro.workload import RandomQueries, random_instance

QUERIES_PER_SEED = 8


def make_store(seed, size=120):
    instance = random_instance(seed, size=size)
    store = DirectoryStore.from_instance(instance, page_size=8, buffer_pages=6)
    store.build_indices(("weight", "level", "kind", "name", "tag"))
    return instance, store


@pytest.mark.parametrize("seed", range(10))
def test_planned_bit_identical_sequential(seed):
    instance, store = make_store(seed)
    reference = QueryEngine(store)
    planned = PlannedEngine(store)
    queries = RandomQueries(instance, seed=seed * 13 + 1)
    for _ in range(QUERIES_PER_SEED):
        query = queries.any_level(depth=2)
        assert planned.run(query).dns() == reference.run(query).dns(), str(query)


@pytest.mark.parametrize("seed", range(5))
def test_planned_service_matches_literal_service(seed):
    # End to end through DirectoryService: ACL refiltering and semantic
    # cache hits included (every query runs twice; the repeat is served
    # from cache on both services).
    instance = random_instance(seed, size=90)
    dns = [str(entry.dn) for entry in instance]
    acl = AccessControlList(default_allow=False)
    acl.allow("*", dns[0])  # one root subtree visible, the rest denied
    planned = DirectoryService(instance, acl=acl, page_size=8, planner="cost")
    literal = DirectoryService(instance, acl=acl, page_size=8, planner="none")
    queries = RandomQueries(instance, seed=seed * 19 + 7)
    try:
        for _ in range(QUERIES_PER_SEED):
            query = queries.any_level(depth=2)
            for _repeat in range(2):
                got = planned.search(query)
                want = literal.search(query)
                assert got.code == want.code, str(query)
                assert got.dns() == want.dns(), str(query)
    finally:
        planned.close()
        literal.close()


@pytest.mark.parametrize("seed", range(5))
def test_planned_service_identical_after_updates(seed):
    # Mutations in between: live statistics, cache invalidation and
    # compaction must never make the planned results drift.
    instance = random_instance(seed, size=90)
    planned = DirectoryService(instance, page_size=8, planner="cost")
    literal = DirectoryService(instance, page_size=8, planner="none")
    queries = RandomQueries(instance, seed=seed * 23 + 3)
    try:
        for round_no in range(3):
            dn = "name=diff%d, name=e0" % round_no
            for service in (planned, literal):
                service.add(
                    dn, ["node"],
                    {"name": ["diff%d" % round_no], "kind": ["alpha"],
                     "level": [round_no], "weight": [round_no * 10]},
                )
            for _ in range(QUERIES_PER_SEED // 2):
                query = queries.any_level(depth=2)
                assert planned.search(query).dns() == literal.search(query).dns(), (
                    str(query)
                )
            for service in (planned, literal):
                service.delete(dn)
    finally:
        planned.close()
        literal.close()
