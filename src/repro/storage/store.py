"""The on-"disk" directory: master layout plus sparse index.

A :class:`DirectoryStore` lays a :class:`~repro.model.instance.DirectoryInstance`
out on the simulated block device as one master run of entries in
reverse-dn order -- the clustering every algorithm in the paper assumes.
Because the order is hierarchical, the subtree below any base dn occupies a
*contiguous page range*; a small sparse index (the first dn key of each
page) locates that range without touching the data pages, playing the role
of the upper levels of the B-tree the paper assumes for dn filters (their
traversal I/O is logarithmic and absorbed into the atomic-query cost the
theorems take as given).

Secondary attribute indices live in :mod:`repro.storage.index` and are
attached via :meth:`DirectoryStore.build_indices`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..model.dn import DN, subtree_upper_bound
from ..model.entry import Entry
from ..model.instance import DirectoryInstance
from ..model.schema import DirectorySchema
from .index import AttributeIndex
from .pager import Pager
from .runs import Run, RunWriter

__all__ = ["DirectoryStore"]


class DirectoryStore:
    """A read-optimised directory image on the simulated device."""

    def __init__(self, pager: Pager, schema: DirectorySchema, master: Run):
        self.pager = pager
        self.schema = schema
        self.master = master
        # Sparse index: first dn key per master page (in memory, stands in
        # for the resident upper levels of the dn B-tree).
        self._page_first_keys: List[Tuple[str, ...]] = []
        for page_id in master.page_ids:
            records = pager.read(page_id)
            if records:
                self._page_first_keys.append(records[0].dn.key())
        #: Secondary indices by attribute (see :meth:`build_indices`).
        self.indices: Dict[str, AttributeIndex] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_instance(
        cls,
        instance: DirectoryInstance,
        pager: Optional[Pager] = None,
        page_size: int = 16,
        buffer_pages: int = 8,
    ) -> "DirectoryStore":
        """Bulk-load an instance (already sorted) into a fresh store."""
        pager = pager or Pager(page_size=page_size, buffer_pages=buffer_pages)
        writer = RunWriter(pager)
        writer.extend(instance)  # DirectoryInstance iterates in sorted order
        master = writer.close()
        return cls(pager, instance.schema, master)

    def build_indices(self, attributes: Iterable[str]) -> None:
        """Build a secondary index over the master run for each of
        ``attributes``.  The schema's type of the attribute decides the key
        domain, and with it which filters the index answers (see
        :func:`repro.engine.atomic.index_path`); an attribute the schema
        does not declare is a ``ValueError`` -- its index would be empty
        and answer every filter with nothing."""
        attributes = tuple(attributes)
        for attr in attributes:
            if not self.schema.has_attribute(attr):
                raise ValueError(
                    "cannot index undeclared attribute %r (the schema declares: %s)"
                    % (attr, ", ".join(sorted(self.schema.attributes)))
                )
        postings = {attr: [] for attr in attributes}
        for position, entry in enumerate(self.master):
            for attr, pairs in postings.items():
                for value in entry.values(attr):
                    pairs.append((value, position))
        for attr, pairs in postings.items():
            self.indices[attr] = AttributeIndex(
                self.pager, self.schema.type_name_of(attr), pairs
            )

    # -- positional access ----------------------------------------------------

    def __len__(self) -> int:
        return self.master.length

    @property
    def page_count(self) -> int:
        return self.master.page_count

    def entry_at(self, position: int) -> Entry:
        """Fetch the entry at a master-run position (one page read unless
        buffered)."""
        page_index = position // self.pager.page_size
        offset = position % self.pager.page_size
        records = self.pager.read(self.master.page_ids[page_index])
        return records[offset]

    def fetch_positions(self, positions: Iterable[int]) -> List[Entry]:
        """Fetch the entries at ``positions``, in master order, page at a
        time."""
        out = []
        for position in sorted(set(positions)):
            out.append(self.entry_at(position))
        return out

    # -- hierarchical range scans ------------------------------------------

    def page_range_for_subtree(self, base: DN) -> Tuple[int, int]:
        """The half-open master page-index range whose pages can contain
        entries of the subtree rooted at ``base`` (including ``base``
        itself).  Located via the in-memory sparse index: no data I/O."""
        if base.is_null():
            return 0, self.master.page_count
        prefix = base.key()
        # First page whose successor page starts at or before the prefix.
        start = bisect_right(self._page_first_keys, prefix) - 1
        if start < 0:
            start = 0
        end = bisect_right(self._page_first_keys, subtree_upper_bound(prefix))
        return start, end

    def scan_pages(
        self, base: DN, max_depth: Optional[int] = None
    ) -> Iterator[List[Entry]]:
        """The entries of the subtree at ``base`` (base included), in
        order, one non-empty list per master page read -- the one scoped
        clustered scan.  ``max_depth`` bounds how far below the base it
        reaches: ``None`` is the whole subtree (``sub``), 0 the base alone,
        1 the base and its children (``one``).  A list may be the pager's
        own page: callers treat every list as read-only.

        The subtree is the key range ``[base.key(), subtree_upper_bound)``,
        so membership is decided by two bisections, not per entry.  An
        unbounded scan reads every page :meth:`page_range_for_subtree`
        names, cuts the first and the last and hands out the pages between
        whole.  A bounded scan reads the first page of that range and,
        after each entry at the depth limit, *seeks* to the key successor
        of that entry's subtree through the sparse index instead of
        reading through it: one page for the base alone, at most two per
        child otherwise."""
        low = base.key()
        high = subtree_upper_bound(low)
        start, end = self.page_range_for_subtree(base)
        if max_depth is None:
            return self._scan_range(low, high, start, end)
        if max_depth == 0:
            end = min(end, start + 1)  # the base leads its range
        return self._skip_scan(low, high, start, end, len(low) + max_depth)

    def scan_subtree(
        self, base: DN, max_depth: Optional[int] = None
    ) -> Iterator[Entry]:
        """:meth:`scan_pages`, an entry at a time (point reads and
        tests)."""
        for page in self.scan_pages(base, max_depth):
            yield from page

    def _scan_range(
        self, low: tuple, high: tuple, start: int, end: int
    ) -> Iterator[List[Entry]]:
        read, page_ids = self.pager.read, self.master.page_ids
        for page_index in range(start, end):
            records = read(page_ids[page_index])
            if page_index == start or page_index == end - 1:
                first = _lower_bound(records, low) if page_index == start else 0
                last = len(records)
                if page_index == end - 1:
                    last = _lower_bound(records, high, first)
                if first == last:
                    continue
                records = records[first:last]
            yield records

    def _skip_scan(
        self, low: tuple, high: tuple, start: int, end: int, depth: int
    ) -> Iterator[List[Entry]]:
        """Entries of ``[low, high)`` whose key is at most ``depth`` long.
        An entry at least that deep stands for a whole subtree the scan
        wants nothing more of (when deeper, for an absent ancestor's), so
        the scan resumes at that subtree's key successor."""
        read, page_ids = self.pager.read, self.master.page_ids
        first_keys = self._page_first_keys
        seek = low
        page_index = start
        while page_index < end:
            records = read(page_ids[page_index])
            at = _lower_bound(records, seek)
            stop = len(records)
            if page_index == end - 1:
                stop = _lower_bound(records, high, at)
            taken = []
            while at < stop:
                entry = records[at]
                key = entry._dn._key
                at += 1
                if len(key) <= depth:
                    taken.append(entry)
                    if len(key) < depth:
                        continue
                seek = subtree_upper_bound(key[:depth])
                if at < stop and len(records[at]._dn._key) > depth:
                    at = _lower_bound(records, seek, at)  # seek <= high: <= stop
            if taken:
                yield taken
            # The page holding the first key >= seek: the last one that
            # starts at or below it, and never this one again.
            page_index = max(
                page_index + 1,
                bisect_right(first_keys, seek, page_index + 1, end) - 1,
            )

    def scan_all(self) -> Iterator[Entry]:
        """Full master scan, in order."""
        return iter(self.master)

    def __repr__(self) -> str:
        return "DirectoryStore(%d entries, %d pages, B=%d)" % (
            len(self),
            self.page_count,
            self.pager.page_size,
        )


def _lower_bound(records: List[Entry], key: tuple, lo: int = 0) -> int:
    """``bisect_left`` over the records' dn keys (``bisect(key=)`` needs
    Python 3.10, and six probes beat building a page's key list): the
    index of the first record at or after ``key``.  Scans read an entry's
    key as ``entry._dn._key``, the attribute behind ``entry.dn.key()``,
    with no call per probe."""
    hi = len(records)
    while lo < hi:
        mid = (lo + hi) // 2
        if records[mid]._dn._key < key:
            lo = mid + 1
        else:
            hi = mid
    return lo
