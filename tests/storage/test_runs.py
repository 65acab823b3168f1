"""Runs: sequential layout, readers, I/O proportionality."""

import math

import pytest

from repro.storage.pager import Pager
from repro.storage.runs import Run, RunReader, RunWriter, run_from_iterable


class TestWriter:
    def test_roundtrip(self):
        pager = Pager(page_size=4, buffer_pages=4)
        run = run_from_iterable(pager, range(11))
        assert run.to_list() == list(range(11))
        assert len(run) == 11
        assert run.page_count == math.ceil(11 / 4)

    def test_empty_run(self):
        pager = Pager()
        run = run_from_iterable(pager, [])
        assert run.to_list() == []
        assert run.page_count == 0

    def test_writer_close_only_once(self):
        pager = Pager()
        writer = RunWriter(pager)
        writer.append(1)
        writer.close()
        with pytest.raises(RuntimeError):
            writer.close()
        with pytest.raises(RuntimeError):
            writer.append(2)

    @pytest.mark.parametrize("page_size", [1, 3, 4])
    @pytest.mark.parametrize("prefix", [0, 2, 5])
    def test_extend_is_the_append_loop_a_page_at_a_time(self, page_size, prefix):
        """``extend(generator)`` writes what an ``append`` loop writes --
        the same page contents, page ids and I/O -- and never buffers more
        than one page of the generator (compaction feeds it a scan of the
        whole directory)."""
        records = range(23)

        def written(fill):
            pager = Pager(page_size=page_size, buffer_pages=2)
            writer = RunWriter(pager)
            for record in range(100, 100 + prefix):
                writer.append(record)
            fill(writer)
            run = writer.close()
            pager.flush()
            return [pager.read(page) for page in run.page_ids], run.page_ids, pager.stats.as_dict()

        def appended(writer):
            for record in records:
                writer.append(record)

        held = []

        def extended(writer):
            def generator():
                for record in records:
                    held.append(len(writer._buffer))
                    yield record
            writer.extend(generator())

        assert written(extended) == written(appended)
        assert max(held) < page_size

    def test_free_releases_pages(self):
        pager = Pager(page_size=2)
        run = run_from_iterable(pager, range(6))
        run.free()
        with pytest.raises(Exception):
            run.to_list()


class TestReader:
    def test_peek_and_next(self):
        pager = Pager(page_size=3)
        reader = run_from_iterable(pager, [10, 20, 30, 40]).reader()
        assert reader.peek() == 10
        assert reader.next() == 10
        assert reader.peek() == 20
        assert list(reader) == [20, 30, 40]
        assert reader.exhausted()
        assert reader.peek() is None

    def test_next_past_end(self):
        pager = Pager()
        reader = run_from_iterable(pager, [1]).reader()
        reader.next()
        with pytest.raises(StopIteration):
            reader.next()

    def test_scan_io_is_pages(self):
        pager = Pager(page_size=5, buffer_pages=2)
        run = run_from_iterable(pager, range(50))
        pager.flush()
        before = pager.stats.snapshot()
        assert len(run.to_list()) == 50
        delta = pager.stats.since(before)
        assert delta.logical_reads == run.page_count == 10
        # Physical: at most one fault per page (sequential, no re-reads).
        assert delta.reads <= 10
