"""Result size limits and paged retrieval.

Directory servers never hand a client an unbounded result: LDAP has a
server-side size limit and the paged-results control.  This module adds
both on top of the engine, without disturbing the evaluation bounds --
the query is evaluated once to a result run (``QueryEngine.open``: the
engine's plan step and budget apply as they do to ``run``); limits and
pages only govern how much of that run is materialised and shipped.

- :func:`run_limited` -- evaluate with a size limit; the result notes
  whether it was truncated (LDAP's ``sizeLimitExceeded`` condition).
- :class:`PagedSearch` -- iterate a result page by page (each page is a
  list of entries); the underlying run is freed when the cursor is
  exhausted or closed.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Union

from ..model.entry import Entry
from ..query.ast import Query
from .engine import QueryEngine, QueryResult

__all__ = ["LimitedResult", "run_limited", "PagedSearch"]


class LimitedResult(QueryResult):
    """A query result that may have been cut off by a size limit."""

    def __init__(self, entries, io, elapsed, truncated: bool, total_size: int):
        super().__init__(entries, io, elapsed)
        #: True when the full answer was larger than the limit.
        self.truncated = truncated
        #: The full answer's size (known even when truncated).
        self.total_size = total_size

    def __repr__(self) -> str:
        suffix = " (truncated from %d)" % self.total_size if self.truncated else ""
        return "LimitedResult(%d entries%s)" % (len(self.entries), suffix)


def run_limited(
    engine: QueryEngine,
    query: Union[Query, str],
    size_limit: int,
) -> LimitedResult:
    """Evaluate ``query`` but materialise at most ``size_limit`` entries."""
    if size_limit < 1:
        raise ValueError("size_limit must be positive")
    before = engine.pager.stats.snapshot()
    started = time.perf_counter()
    run = engine.open(query)
    entries: List[Entry] = []
    reader = run.reader()
    while not reader.exhausted() and len(entries) < size_limit:
        entries.append(reader.next())
    total = len(run)
    run.free()
    elapsed = time.perf_counter() - started
    io = engine.pager.stats.since(before)
    return LimitedResult(entries, io, elapsed, truncated=total > size_limit, total_size=total)


class PagedSearch:
    """A cursor over one query's result, LDAP paged-results style.

    Example::

        cursor = PagedSearch(engine, query, page_entries=100)
        for page in cursor:
            handle(page)          # a list of at most 100 entries
    """

    def __init__(
        self,
        engine: QueryEngine,
        query: Union[Query, str],
        page_entries: int,
    ):
        if page_entries < 1:
            raise ValueError("page_entries must be positive")
        self.page_entries = page_entries
        self._run = engine.open(query)
        #: The full answer's size (known up front; the run is materialised).
        self.total_size = len(self._run)
        self._reader = self._run.reader()
        self._delivered = 0
        self._closed = False

    @property
    def delivered(self) -> int:
        return self._delivered

    def next_page(self) -> Optional[List[Entry]]:
        """The next page, or None when exhausted (which also closes)."""
        if self._closed:
            return None
        page: List[Entry] = []
        while len(page) < self.page_entries and not self._reader.exhausted():
            page.append(self._reader.next())
        if not page:
            self.close()
            return None
        self._delivered += len(page)
        if self._reader.exhausted():
            self.close()
        return page

    def close(self) -> None:
        """Release the result run (idempotent)."""
        if not self._closed:
            self._closed = True
            self._run.free()

    def __iter__(self) -> Iterator[List[Entry]]:
        while True:
            page = self.next_page()
            if page is None:
                return
            yield page

    def __enter__(self) -> "PagedSearch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
