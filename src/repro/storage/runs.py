"""Sorted runs: the sequential entry lists every algorithm consumes.

A :class:`Run` is an immutable sequence of records laid out across pager
pages.  Every operator in the engine reads its operand runs front to back
and writes its output as a new run, so scanning a run of ``n`` records
costs ``ceil(n / B)`` page reads and writing it costs ``ceil(n / B)`` page
writes -- the exact quantities the paper's theorems count.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Any, Iterable, Iterator, List, Optional, Sequence

from .pager import Pager

__all__ = ["Run", "RunWriter", "RunReader", "run_from_iterable"]


class Run:
    """An immutable on-"disk" sequence of records.

    ``eval_errors`` counts records the producing operator *could not*
    evaluate and had to skip (e.g. an embedded-reference value that
    failed dn coercion).  It is 0 for every clean run; operators that
    can skip surface their count here so callers -- the engine's
    :class:`~repro.engine.engine.QueryResult`, EXPLAIN ``--analyze`` --
    can report it instead of silently losing data.
    """

    __slots__ = ("pager", "page_ids", "length", "eval_errors")

    def __init__(
        self,
        pager: Pager,
        page_ids: Sequence[int],
        length: int,
        eval_errors: int = 0,
    ):
        self.pager = pager
        self.page_ids = tuple(page_ids)
        self.length = length
        self.eval_errors = eval_errors

    def reader(self) -> "RunReader":
        return RunReader(self)

    def pages(self) -> Iterator[List[Any]]:
        """The run's pages in order, each read as it is reached (the lists
        are the pager's: read-only)."""
        return map(self.pager.read, self.page_ids)

    def __iter__(self) -> Iterator[Any]:
        # Pages chained at C level: no Python frame per record.
        return chain.from_iterable(self.pages())

    def to_list(self) -> List[Any]:
        """Materialise in memory (tests and result delivery only)."""
        return list(self)

    def __len__(self) -> int:
        return self.length

    @property
    def page_count(self) -> int:
        return len(self.page_ids)

    def free(self) -> None:
        """Release the run's pages (intermediate results are dead once
        consumed)."""
        for page_id in self.page_ids:
            self.pager.free(page_id)

    def __repr__(self) -> str:
        return "Run(%d records, %d pages)" % (self.length, self.page_count)


class RunWriter:
    """Sequential writer producing a :class:`Run`."""

    def __init__(self, pager: Pager):
        self.pager = pager
        #: Skipped-record count carried onto the produced :class:`Run`.
        self.eval_errors = 0
        self._page_ids: List[int] = []
        self._buffer: List[Any] = []
        self._length = 0
        self._closed = False

    def append(self, record: Any) -> None:
        if self._closed:
            raise RuntimeError("writer already closed")
        self._buffer.append(record)
        self._length += 1
        if len(self._buffer) == self.pager.page_size:
            self._spill()

    def extend(self, records: Iterable[Any]) -> None:
        """``append`` each of ``records``, a page at a time: the buffer is
        topped up to one page and spilled, so pages, page ids and I/O are
        those of the ``append`` loop, and at most ``page_size`` records are
        held -- ``records`` may be a generator over a whole directory."""
        if self._closed:
            raise RuntimeError("writer already closed")
        records = iter(records)
        page_size = self.pager.page_size
        while True:
            chunk = list(islice(records, page_size - len(self._buffer)))
            if not chunk:
                return
            self._buffer += chunk
            self._length += len(chunk)
            if len(self._buffer) == page_size:
                self._spill()

    def _spill(self) -> None:
        self._page_ids.append(self.pager.append_page(self._buffer))
        self._buffer = []

    def close(self) -> Run:
        if self._closed:
            raise RuntimeError("writer already closed")
        if self._buffer:
            self._spill()
        self._closed = True
        return Run(
            self.pager, self._page_ids, self._length,
            eval_errors=self.eval_errors,
        )


class RunReader:
    """Sequential reader with one-record lookahead.

    The merge and stack algorithms are expressed in terms of
    ``firstElement`` / ``nextElement`` over lists; the lookahead (``peek``)
    gives them that interface while preserving one-page-at-a-time access.
    """

    def __init__(self, run: Run):
        self._run = run
        self._page_index = 0
        self._records: List[Any] = []
        self._offset = 0
        self._advance_page()

    def _advance_page(self) -> None:
        while self._page_index < len(self._run.page_ids):
            page_id = self._run.page_ids[self._page_index]
            self._page_index += 1
            records = self._run.pager.read(page_id)
            if records:
                self._records = records
                self._offset = 0
                return
        self._records = []
        self._offset = 0

    def peek(self) -> Optional[Any]:
        """The next record without consuming it, or None at end."""
        if self._offset < len(self._records):
            return self._records[self._offset]
        return None

    def next(self) -> Any:
        record = self.peek()
        if record is None:
            raise StopIteration("run exhausted")
        self._offset += 1
        if self._offset >= len(self._records):
            self._advance_page()
        return record

    def exhausted(self) -> bool:
        return self.peek() is None

    def __iter__(self) -> Iterator[Any]:
        while not self.exhausted():
            yield self.next()


def run_from_iterable(pager: Pager, records: Iterable[Any]) -> Run:
    """Write an iterable out as a run."""
    writer = RunWriter(pager)
    writer.extend(records)
    return writer.close()
