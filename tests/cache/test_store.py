"""The bounded result store: budget, cost-aware eviction, invalidation."""

import pytest

from repro.cache import Footprint, QueryCache
from repro.model.dn import DN
from repro.model.entry import Entry


def entry(dn_text: str, **values) -> Entry:
    return Entry(DN.parse(dn_text), ["node"], {k: [v] for k, v in values.items()})


def result(n: int, prefix: str = "x") -> list:
    return [entry("name=%s%d, dc=com" % (prefix, i)) for i in range(n)]


COM_SUB = Footprint.subtree("dc=com")
ORG_SUB = Footprint.subtree("dc=org")


class TestLookups:
    def test_get_miss_then_hit(self):
        cache = QueryCache(byte_budget=100_000)
        assert cache.get("k") is None
        cache.put("k", "(q)", result(3), COM_SUB, cost_io=10)
        hit = cache.get("k")
        assert hit is not None and len(hit.entries) == 3
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.saved_logical_io == 10

    def test_peek_does_not_count(self):
        cache = QueryCache(byte_budget=100_000)
        cache.put("k", "(q)", result(1), COM_SUB, cost_io=5)
        assert cache.peek("k") is not None
        assert cache.peek("missing") is None
        assert cache.stats.lookups == 0

    def test_replacement_updates_bytes(self):
        cache = QueryCache(byte_budget=100_000)
        cache.put("k", "(q)", result(10), COM_SUB, cost_io=5)
        big = cache.resident_bytes
        cache.put("k", "(q)", result(1), COM_SUB, cost_io=5)
        assert cache.resident_bytes < big
        assert len(cache) == 1


    def test_result_size_is_the_rendered_text_size(self):
        # Entries are sized once and remember it; the total must stay the
        # estimate the budget was always charged: per entry 64 + the dn's
        # text, per pair 16 + attribute + value text.
        entries = [
            entry("name=a\\,b+tag=red, dc=com", name="a,b", tag="red", level=7),
            entry("name=x, dc=com"),
        ]
        want = 0
        for e in entries:
            want += 64 + len(str(e.dn))
            for attr, value in e.pairs():
                want += len(attr) + len(str(value)) + 16
        cache = QueryCache(byte_budget=100_000)
        for key in ("first", "again"):  # the second put reads the memo
            admitted = cache.put(key, "(q)", entries, COM_SUB, cost_io=10)
            assert admitted.size_bytes == want
        assert cache.resident_bytes == 2 * want


class TestBudgetAndEviction:
    def test_oversized_result_rejected(self):
        cache = QueryCache(byte_budget=200)
        assert cache.put("k", "(q)", result(50), COM_SUB, cost_io=1000) is None
        assert cache.stats.rejected == 1
        assert "k" not in cache

    def test_eviction_respects_budget(self):
        cache = QueryCache(byte_budget=400)
        for i in range(10):
            cache.put("k%d" % i, "(q%d)" % i, result(1), COM_SUB, cost_io=10)
        assert cache.resident_bytes <= 400
        assert cache.stats.evictions > 0

    def test_expensive_results_outlive_cheap_ones(self):
        cache = QueryCache(byte_budget=1200)
        cache.put("pricey", "(agg)", result(1, "a"), COM_SUB, cost_io=10_000)
        cache.put("cheap1", "(look1)", result(1, "b"), COM_SUB, cost_io=2)
        cache.put("cheap2", "(look2)", result(1, "c"), COM_SUB, cost_io=2)
        # keep inserting cheap entries until something must be evicted
        for i in range(12):
            cache.put("fill%d" % i, "(f%d)" % i, result(1, "d%d" % i), COM_SUB, cost_io=2)
        assert "pricey" in cache
        assert cache.stats.evictions > 0

    def test_recency_still_matters_among_equals(self):
        cache = QueryCache(byte_budget=1000)
        keys = ["k%d" % i for i in range(4)]
        for key in keys:
            cache.put(key, "(%s)" % key, result(1, key), COM_SUB, cost_io=10)
        # touch all but k0, then force evictions: k0 is the stalest
        for key in keys[1:]:
            cache.get(key)
        while "k0" in cache:
            cache.put("new%d" % cache.stats.insertions, "(n)", result(1, "n"), COM_SUB, cost_io=10)
        assert all(key in cache for key in keys[1:])


class TestInvalidation:
    def test_invalidate_point(self):
        cache = QueryCache(byte_budget=100_000)
        cache.put("com", "(qc)", result(1, "a"), COM_SUB, cost_io=5)
        cache.put("org", "(qo)", result(1, "b"), ORG_SUB, cost_io=5)
        evicted = cache.invalidate(DN.parse("name=x, dc=com"))
        assert evicted == 1
        assert "com" not in cache and "org" in cache
        assert cache.stats.invalidations == 1

    def test_invalidate_subtree(self):
        cache = QueryCache(byte_budget=100_000)
        cache.put("point", "(qp)", result(1, "a"), Footprint.point("dc=att, dc=com"), cost_io=5)
        cache.put("org", "(qo)", result(1, "b"), ORG_SUB, cost_io=5)
        # recursive delete of dc=com region hits the point inside it
        assert cache.invalidate(DN.parse("dc=com"), subtree=True) == 1
        assert "point" not in cache and "org" in cache

    def test_invalidate_tag(self):
        cache = QueryCache(byte_budget=100_000)
        cache.put("a|q1", "(q1)", result(1, "a"), COM_SUB, cost_io=5, tag="a")
        cache.put("b|q1", "(q1)", result(1, "b"), COM_SUB, cost_io=5, tag="b")
        assert cache.invalidate_tag("a") == 1
        assert "a|q1" not in cache and "b|q1" in cache

    def test_clear(self):
        cache = QueryCache(byte_budget=100_000)
        cache.put("k1", "(q)", result(1, "a"), COM_SUB, cost_io=5)
        cache.put("k2", "(q)", result(1, "b"), ORG_SUB, cost_io=5)
        assert cache.clear() == 2
        assert len(cache) == 0 and cache.resident_bytes == 0


class TestInvalidationEpoch:
    """The put-vs-invalidate fence: a result evaluated before a write can
    reach ``put`` after the write's invalidation ran (the stale result is
    in flight, not resident, so the invalidation cannot evict it).
    ``if_epoch`` closes the hole."""

    def test_stale_put_is_rejected(self):
        cache = QueryCache(byte_budget=100_000)
        epoch = cache.invalidation_epoch
        # A concurrent write invalidates while the evaluation is in
        # flight -- nothing is resident yet, so nothing is evicted ...
        assert cache.invalidate(DN.parse("name=x, dc=com")) == 0
        # ... and the pre-write result must not be admitted.
        assert cache.put("k", "(q)", result(2), COM_SUB, cost_io=5,
                         if_epoch=epoch) is None
        assert "k" not in cache
        assert cache.stats.rejected == 1

    def test_current_epoch_put_is_admitted(self):
        cache = QueryCache(byte_budget=100_000)
        cache.invalidate(DN.parse("name=x, dc=com"))
        epoch = cache.invalidation_epoch
        assert cache.put("k", "(q)", result(2), COM_SUB, cost_io=5,
                         if_epoch=epoch) is not None
        assert "k" in cache

    def test_every_write_driven_mutation_bumps(self):
        cache = QueryCache(byte_budget=100_000)
        before = cache.invalidation_epoch
        cache.invalidate(DN.parse("name=x, dc=com"))
        cache.invalidate_tag("t")
        cache.drop("missing")
        cache.clear()
        assert cache.invalidation_epoch == before + 4

    def test_put_without_epoch_is_unfenced(self):
        cache = QueryCache(byte_budget=100_000)
        cache.invalidate(DN.parse("name=x, dc=com"))
        assert cache.put("k", "(q)", result(1), COM_SUB, cost_io=5) is not None


class TestValidation:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryCache(byte_budget=0)
