"""The workload observability plane wired through the service: searches
populate the digest table and heat map, mutations feed writes through the
record listener, and a federation's shipped entries land in the
frontend's heat map."""

import pytest

from tests.obs.test_budget import QUERY, make_instance
from repro.server import DirectoryService


@pytest.fixture
def service():
    svc = DirectoryService(make_instance(), page_size=4)
    svc.bind_anonymous()
    yield svc
    svc.close()


class TestDigestWiring:
    def test_searches_fold_into_one_fingerprint_row(self, service):
        for _ in range(5):
            service.search(QUERY)
        assert len(service.digest) == 1
        row = service.digest.top(1)[0]
        assert row.calls == 5
        # First run evaluates; the rest are exact cache hits.
        assert row.cache_hits == 4
        assert row.pages_total > 0
        assert row.entries_total == 5 * 4  # four grade-5 entries per call

    def test_cache_hits_are_not_page_charged(self, service):
        service.search(QUERY)
        engine_pages = service.digest.top(1)[0].pages_total
        service.search(QUERY)
        assert service.digest.top(1)[0].pages_total == engine_pages

    def test_acd_equivalent_spellings_share_a_row(self, service):
        # Union operands commute under ACD normalisation: one fingerprint,
        # one digest row, and the second call is an exact cache hit.
        service.search("(| (dc=com ? sub ? grade=5) (dc=com ? sub ? grade=4))")
        service.search("(| (dc=com ? sub ? grade=4) (dc=com ? sub ? grade=5))")
        assert len(service.digest) == 1
        row = service.digest.top(1)[0]
        assert row.calls == 2 and row.cache_hits == 1

    def test_digest_capacity_zero_disables(self):
        service = DirectoryService(make_instance(), digest_capacity=0)
        service.bind_anonymous()
        service.search(QUERY)
        assert service.digest is None

    def test_planner_qerror_lands_in_the_row(self):
        service = DirectoryService(make_instance(), planner="cost")
        service.bind_anonymous()
        service.search(QUERY)
        row = service.digest.top(1)[0]
        assert row.qerror_count == 1 and row.qerror_max >= 1.0


class TestHeatmapWiring:
    def test_reads_and_writes_land_in_subtree_cells(self, service):
        service.search(QUERY)
        service.add("uid=new, dc=com", ["account"], uid="new", grade=9)
        cells = {c["subtree"]: c for c in service.heatmap.hottest(10)}
        read_cell = cells["dc=com"]
        assert read_cell.get("reads_total", 0) >= 1
        assert read_cell["pages_total"] > 0
        write_cell = cells["uid=new, dc=com"]
        assert write_cell["writes_total"] == 1

    def test_depth_zero_disables(self):
        service = DirectoryService(make_instance(), heatmap_depth=0)
        service.bind_anonymous()
        service.search(QUERY)
        assert service.heatmap is None

    def test_close_detaches_the_write_listener(self, service):
        directory = service.directory
        listener = service._heat_listener
        assert listener in directory._record_listeners
        service.close()
        assert listener not in directory._record_listeners


class TestFederationShipping:
    def test_remote_shipping_lands_in_the_frontends_heatmap(self):
        from repro.dist import FederatedDirectory
        from tests.dist.faults import FaultInjector, FaultPlan
        from repro.workload import random_instance

        instance = random_instance(29, size=100, forest_roots=2)
        roots = sorted(
            {e.dn for e in instance.roots()}, key=lambda dn: dn.key()
        )
        fed = FederatedDirectory.partition(
            instance,
            {"server%d" % i: [root] for i, root in enumerate(roots)},
            page_size=8,
            network=FaultInjector(FaultPlan()),
            leaf_cache_bytes=0,
        )
        service = DirectoryService(instance, heatmap_depth=1)
        service.bind_anonymous()
        service.attach_federation(fed, "server0")
        # attach_federation shares the frontend's map with the federation.
        assert fed.heatmap is service.heatmap
        remote_root = roots[1]
        result = service.search("(%s ? sub ? objectClass=*)" % remote_root)
        assert result.total_size > 0
        cells = {c["subtree"]: c for c in service.heatmap.hottest(10)}
        shipped = cells[str(remote_root)]["shipped_total"]
        assert shipped == result.total_size
