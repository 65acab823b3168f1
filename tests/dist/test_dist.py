"""Distributed evaluation (Section 8.3): locator, partitioning,
correctness vs the centralised engine, and network accounting."""

import pytest

from repro.dist import FederatedDirectory, LocatorError, ServerLocator
from repro.model.dn import DN
from repro.query.semantics import evaluate
from repro.workload import RandomQueries, random_instance

from tests.dist.faults import RecordingNetwork


class TestLocator:
    def test_most_specific_wins(self):
        locator = ServerLocator()
        locator.register("dc=com", "top")
        locator.register("dc=att, dc=com", "att")
        assert locator.locate("dc=com") == "top"
        assert locator.locate("dc=att, dc=com") == "att"
        assert locator.locate("cn=x, dc=att, dc=com") == "att"
        assert locator.locate("dc=ibm, dc=com") == "top"

    def test_unowned(self):
        locator = ServerLocator()
        locator.register("dc=com", "top")
        with pytest.raises(LocatorError):
            locator.locate("dc=org")

    def test_secondary_preference(self):
        locator = ServerLocator()
        locator.register("dc=com", "primary", secondaries=["backup"])
        assert locator.locate("dc=com", prefer_secondary=True) == "backup"
        assert locator.locate("dc=com") == "primary"

    def test_contexts_of(self):
        locator = ServerLocator()
        locator.register("dc=com", "s")
        locator.register("dc=org", "s")
        assert [str(c) for c in locator.contexts_of("s")] == ["dc=com", "dc=org"]


@pytest.fixture(scope="module")
def federation():
    instance = random_instance(19, size=150, forest_roots=3)
    roots = sorted({e.dn for e in instance.roots()}, key=lambda dn: dn.key())
    assignments = {"server%d" % i: [root] for i, root in enumerate(roots)}
    # Delegate one depth-2 subtree to its own server (DNS-style subdomain).
    deep = next(e.dn for e in instance if e.dn.depth() == 2)
    assignments["delegated"] = [deep]
    fed = FederatedDirectory.partition(instance, assignments, page_size=8)
    return instance, fed


class TestPartition:
    def test_conservation(self, federation):
        instance, fed = federation
        assert fed.total_entries() == len(instance)

    def test_delegation_shadows_parent(self, federation):
        instance, fed = federation
        delegated = fed.servers["delegated"]
        context = delegated.contexts[0]
        inside = [e for e in instance if context.is_prefix_of(e.dn)]
        assert delegated.entry_count() == len(inside)
        for name, server in fed.servers.items():
            if name == "delegated":
                continue
            for entry in inside:
                assert server.engine.store.scan_subtree(entry.dn) is not None
                # the parent server must NOT hold delegated entries
                held = [e.dn for e in server.engine.store.scan_all()]
                assert entry.dn not in held


class TestQueries:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_centralised(self, federation, seed):
        instance, fed = federation
        queries = RandomQueries(instance, seed=seed)
        at = sorted(fed.servers)[seed % len(fed.servers)]
        query = queries.any_level()
        got = fed.query(at, query).dns()
        expected = [str(e.dn) for e in evaluate(query, instance)]
        assert got == expected, str(query)

    def test_local_query_ships_nothing(self, federation):
        instance, fed = federation
        delegated = fed.servers["delegated"]
        context = delegated.contexts[0]
        result = fed.query("delegated", "(%s ? sub ? objectClass=*)" % context)
        assert result.messages == 0
        assert result.entries_shipped == 0
        assert len(result) == delegated.entry_count()

    def test_remote_query_ships_results_only(self, federation):
        instance, fed = federation
        delegated = fed.servers["delegated"]
        context = delegated.contexts[0]
        other = next(name for name in sorted(fed.servers) if name != "delegated")
        fed.leaf_cache.clear()  # the module's federation: ship, not hit
        result = fed.query(other, "(%s ? sub ? kind=alpha)" % context)
        expected = [
            e for e in instance
            if context.is_prefix_of(e.dn) and "alpha" in map(str, e.values("kind"))
        ]
        assert len(result) == len(expected)
        assert result.messages == 2  # request + response
        assert result.entries_shipped == len(expected)  # results, not inputs

    def test_sub_scope_spanning_delegation(self, federation):
        """A sub query at a context that has a delegated subdomain inside
        must gather from both servers."""
        instance, fed = federation
        delegated_context = fed.servers["delegated"].contexts[0]
        parent_root = DN(delegated_context.rdns[-1:])  # the forest root above
        at = fed.locator.locate(parent_root)
        fed.leaf_cache.clear()  # the module's federation: ship, not hit
        result = fed.query(at, "(%s ? sub ? objectClass=*)" % parent_root)
        expected = [e for e in instance if parent_root.is_prefix_of(e.dn)]
        assert len(result) == len(expected)
        assert result.messages >= 2  # had to contact the delegated server


class TestNetwork:
    def test_counters(self):
        network = RecordingNetwork()
        network.send("a", "b", "request")
        network.send("b", "a", "result", entry_count=5)
        assert network.messages == 2
        assert network.entries_shipped == 5
        assert network.log[1] == ("b", "a", "result", 5)
        network.reset()
        assert network.messages == 0
