"""The simulated block device: accounting semantics."""

import pytest

from repro.storage.pager import Pager, PagerError


class TestAllocation:
    def test_allocate_and_rw(self):
        pager = Pager(page_size=4, buffer_pages=2)
        pid = pager.allocate()
        pager.write(pid, [1, 2, 3])
        assert pager.read(pid) == [1, 2, 3]

    def test_page_overflow(self):
        pager = Pager(page_size=2)
        pid = pager.allocate()
        with pytest.raises(PagerError):
            pager.write(pid, [1, 2, 3])

    def test_unknown_page(self):
        pager = Pager()
        with pytest.raises(PagerError):
            pager.read(99)

    def test_use_after_free(self):
        pager = Pager()
        pid = pager.append_page([1])
        pager.free(pid)
        with pytest.raises(PagerError):
            pager.read(pid)

    def test_free_bookkeeping_is_bounded_by_live_pages(self):
        pager = Pager(page_size=4, buffer_pages=2)
        keep = [pager.append_page([i]) for i in range(3)]
        for i in range(100_000):
            pager.free(pager.append_page([i]))
        assert pager.live_pages == 3
        assert len(pager._live) == 3  # O(live), not O(ever freed)
        assert [pager.read(pid) for pid in keep] == [[0], [1], [2]]
        with pytest.raises(PagerError, match="use after free"):
            pager.read(keep[-1] + 1)  # freed in the loop
        with pytest.raises(PagerError, match="use after free"):
            pager.free(keep[-1] + 1)  # double free
        with pytest.raises(PagerError, match="unknown page"):
            pager.read(pager.stats.allocated)  # never allocated

    def test_bad_parameters(self):
        with pytest.raises(PagerError):
            Pager(page_size=0)
        with pytest.raises(PagerError):
            Pager(buffer_pages=0)


class TestAccounting:
    def test_buffer_hits_are_free(self):
        pager = Pager(page_size=4, buffer_pages=4)
        pid = pager.append_page([1])
        before = pager.stats.total
        for _ in range(10):
            pager.read(pid)
        assert pager.stats.total == before  # all hits
        assert pager.stats.logical_reads == 10

    def test_eviction_writes_dirty_page(self):
        pager = Pager(page_size=2, buffer_pages=2)
        pids = [pager.append_page([i]) for i in range(3)]  # third evicts first
        assert pager.stats.writes >= 1
        # Reading the evicted page is a physical read.
        reads_before = pager.stats.reads
        pager.read(pids[0])
        assert pager.stats.reads == reads_before + 1

    def test_clean_eviction_writes_nothing(self):
        pager = Pager(page_size=2, buffer_pages=2)
        pids = [pager.append_page([i]) for i in range(2)]
        pager.flush()
        writes_after_flush = pager.stats.writes
        # Evict the clean pages by faulting others in.
        pager.append_page([9])
        pager.read(pids[0])
        pager.read(pids[1])
        # The two clean pages were dropped silently; only the new dirty page
        # may have been written back.
        assert pager.stats.writes <= writes_after_flush + 1

    def test_flush_idempotent(self):
        pager = Pager(page_size=4, buffer_pages=2)
        pager.append_page([1])
        pager.flush()
        writes = pager.stats.writes
        pager.flush()
        assert pager.stats.writes == writes

    def test_snapshot_since(self):
        pager = Pager(page_size=2, buffer_pages=1)
        before = pager.stats.snapshot()
        pager.append_page([1])
        pager.append_page([2])  # evicts the first -> 1 physical write
        delta = pager.stats.since(before)
        assert delta.writes == 1
        assert delta.allocated == 2

    def test_scan_costs_n_over_b(self):
        # The foundational identity: scanning n records costs ceil(n/B).
        pager = Pager(page_size=8, buffer_pages=2)
        pids = [pager.append_page(list(range(8))) for _ in range(10)]
        pager.flush()
        before = pager.stats.snapshot()
        for pid in pids:
            pager.read(pid)
        # With only 2 buffer pages, all 10 reads fault (8 stayed at most 2).
        assert pager.stats.since(before).reads >= 8


class TestPool:
    def test_pool_bounded(self):
        pager = Pager(page_size=2, buffer_pages=3)
        for i in range(20):
            pager.append_page([i])
        assert pager.pages_in_pool <= 3

    def test_write_read_consistency_through_eviction(self):
        pager = Pager(page_size=2, buffer_pages=2)
        pids = [pager.append_page([i, i * 10]) for i in range(8)]
        for i, pid in enumerate(pids):
            assert pager.read(pid) == [i, i * 10]
