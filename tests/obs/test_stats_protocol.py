"""The shared snapshot/delta protocol of counter blocks."""

import pytest

from repro.cache.stats import CacheStats
from repro.obs.stats import StatCounters
from repro.storage.pager import IOStats, Pager


def busy_pager() -> Pager:
    """A pager with some reads, writes and evictions on record."""
    pager = Pager(page_size=4, buffer_pages=2)
    ids = [pager.append_page(["r%d" % i]) for i in range(6)]
    for page_id in ids:
        pager.read(page_id)
    pager.flush()
    return pager


class TestIOStats:
    def test_field_names_cover_all_counters(self):
        assert IOStats.field_names() == (
            "reads", "writes", "logical_reads", "logical_writes", "allocated",
        )

    def test_as_dict_mirrors_counters(self):
        stats = busy_pager().stats
        d = stats.as_dict()
        assert d["reads"] == stats.reads
        assert d["logical_writes"] == stats.logical_writes
        assert set(d) == set(IOStats.field_names())

    def test_snapshot_is_decoupled_copy(self):
        pager = busy_pager()
        snap = pager.stats.snapshot()
        before = snap.as_dict()
        pager.read(0)
        assert snap.as_dict() == before
        assert pager.stats.logical_reads == snap.logical_reads + 1

    def test_since_brackets_a_phase(self):
        pager = busy_pager()
        before = pager.stats.snapshot()
        pager.read(0)
        pager.read(1)
        delta = pager.stats.since(before)
        assert delta.logical_reads == 2
        assert delta.allocated == 0

    def test_since_rejects_foreign_type(self):
        with pytest.raises(TypeError):
            IOStats().since(CacheStats())

    def test_totals_and_hit_rate(self):
        stats = IOStats(reads=2, writes=3, logical_reads=10, logical_writes=4)
        assert stats.total == 5
        assert stats.logical_total == 14
        assert stats.buffer_hit_rate == pytest.approx(0.8)

    def test_hit_rate_defined_when_idle(self):
        assert IOStats().buffer_hit_rate == 0.0


class TestCacheStats:
    def test_shares_the_protocol(self):
        assert issubclass(CacheStats, StatCounters)
        stats = CacheStats()
        stats.hits += 3
        stats.misses += 1
        snap = stats.snapshot()
        stats.hits += 2
        delta = stats.since(snap)
        assert delta.hits == 2
        assert delta.misses == 0
        assert stats.as_dict()["hits"] == 5
