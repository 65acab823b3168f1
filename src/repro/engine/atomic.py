"""Atomic query evaluation against the directory store.

The paper *assumes* atomic queries are efficiently evaluable "with the help
of B-tree indices for integer and distinguishedName filters, and trie and
suffix tree indices for string filters" (Section 4.1), and charges the rest
of the query by the cumulative size ``|L|`` of the atomic results
(Theorem 8.3).  This module provides both concrete paths:

- **clustered scan**: the master run is ordered by reverse-dn key, so the
  subtree of the base dn is a contiguous key range located through the
  in-memory sparse index; the scope is the scan's depth bound
  (``scan_pages(base, max_depth)``), not a filter over its output --
  ``sub`` reads exactly that range, ``one`` seeks past each child's
  subtree, ``base`` reads one page;
- **secondary index**: :func:`index_path` decides, from the filter's class
  and the indexed attribute's schema type, whether an index answers the
  filter and which key range of it; the matching master positions
  (ascending = dn order) are fetched page-wise, then scope- and
  filter-checked.

Either way the result is a sorted, duplicate-free run -- the contract every
operator above relies on.  Every path works a page at a time: the scan
hands out page slices, the leaf's filter is compiled once against the
schema into its page form (:meth:`~repro.filters.ast.Filter.page_form`),
which tests a whole page in one loop, and the survivors go to the run
writer a page at a time.  No Python call is made per entry.

A leaf may also be read over **windows** (``within``): ``(root dn,
max_depth)`` pairs, each one ``scan_pages`` call, that a planned
hierarchical selection derives from its materialised first operand (see
:meth:`~repro.engine.optimizer.AccessPlanner.witness_windows`).  Each
window is first clipped to the leaf's own scope (:func:`clip_window`), so
a window the scope excludes costs no I/O, and the scans are merged in key
order without duplicates.  The answer is the leaf restricted to the
windows.

The atomic operands of one boolean or hierarchical selection on one base
may also be read together (:func:`shared_scan`): one scan at the widest of
their scopes, each entry labelled with the mask of the operands it
answers, fed straight to the label table or the stack pass.

``store`` is anything with the store's read interface: a
:class:`~repro.storage.store.DirectoryStore`, or a pinned
:class:`~repro.storage.maintenance.StoreView`, whose ``scan_pages`` and
``fetch_positions`` merge the pending-update overlay into the same sorted
stream (the service path; nothing here changes).
"""

from __future__ import annotations

import heapq
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..filters.ast import Comparison, Equality, Filter, Presence, Substring
from ..model.dn import DN
from ..model.entry import Entry
from ..query.ast import AtomicQuery, Scope
from ..storage.runs import Run, RunWriter
from ..storage.store import DirectoryStore

__all__ = [
    "evaluate_atomic", "index_path", "scope_admits", "shared_scan", "SharedScan",
    "clip_window", "clip_windows", "Window",
]

#: An entry's reversed-dn key, read at C level.
_KEY = attrgetter("_dn._key")

#: A ``(root dn, max_depth)`` read window: the arguments of one
#: ``scan_pages`` call (``None`` = the whole subtree).
Window = Tuple[DN, Optional[int]]


def scope_admits(base: DN, scope: str, dn: DN) -> bool:
    """Definition 4.1's scope test (``one``/``sub`` include the base)."""
    if scope == Scope.BASE:
        return dn == base
    if scope == Scope.ONE:
        return dn == base or base.is_parent_of(dn)
    return dn == base or base.is_ancestor_of(dn)


def evaluate_atomic(
    store: DirectoryStore,
    query: AtomicQuery,
    use_indices: bool = True,
    within: Optional[Sequence[Window]] = None,
) -> Run:
    """Evaluate one atomic query; returns a sorted run of entries.

    With ``within`` the answer is restricted to those windows and read
    through them alone (``use_indices`` does not apply)."""
    writer = RunWriter(store.pager)
    select = query.filter.page_form(store.schema)
    if within is None and use_indices:
        path = index_path(store, query.filter)
        if path is not None:
            base, scope = query.base, query.scope
            writer.extend(select([
                entry for entry in store.fetch_positions(path[1])
                if scope_admits(base, scope, entry.dn)
            ]))
            return writer.close()
    if within is None:
        pages = store.scan_pages(query.base, Scope.MAX_DEPTH[query.scope])
    else:
        pages = _window_pages(store, clip_windows(query, within))
    for page in pages:
        writer.extend(select(page))
    return writer.close()


class SharedScan:
    """The operands of a node whose atomic ``leaves`` share one base, read
    by one clustered scan at the widest of their scopes: each page's
    entries are tested against each leaf's depth limit and page form, and
    handed on with the membership mask of the leaves they answer (bit
    ``i - 1`` for leaf ``i``) -- the stream
    :func:`~repro.engine.common.labeled_merge` makes of the leaves' runs,
    with no run written or read back.  Iterate it once.  ``reads`` counts
    the logical page reads the scan made -- its pages, and the overlay
    charge of a pinned view -- not those its consumer makes between
    pages: the heat map's charge for the node.  ``matches[i]`` counts the
    entries leaf ``i + 1`` matched, a page at a time: the traced pass's
    per-leaf result sizes."""

    __slots__ = ("store", "leaves", "reads", "matches")

    def __init__(self, store: DirectoryStore, leaves: Sequence[AtomicQuery]):
        self.store = store
        self.leaves = leaves
        self.reads = 0
        self.matches = [0] * len(leaves)

    def __iter__(self) -> Iterator[Tuple[Entry, int]]:
        return chain.from_iterable(self._pages())

    def _pages(self) -> Iterator[List[Tuple[Entry, int]]]:
        store, leaves = self.store, self.leaves
        base = leaves[0].base
        reaches = [Scope.MAX_DEPTH[leaf.scope] for leaf in leaves]
        widest = None if None in reaches else max(reaches)
        # (index, bit, page form, deepest key length) per leaf; None where
        # the scan's own depth bound is the leaf's.
        tests = [
            (index, 1 << index, leaf.filter.page_form(store.schema),
             None if reach == widest else len(base.key()) + reach)
            for index, (leaf, reach) in enumerate(zip(leaves, reaches))
        ]
        stats, matches = store.pager.stats, self.matches
        pulled = stats.logical_reads
        for page in store.scan_pages(base, widest):
            self.reads += stats.logical_reads - pulled
            masks = [0] * len(page)
            for index, bit, select, deepest in tests:
                if deepest is not None:
                    page_of_leaf = [e for e in page if len(e._dn._key) <= deepest]
                else:
                    page_of_leaf = page
                selected = select(page_of_leaf)
                matches[index] += len(selected)
                # The leaf's matches are a subsequence of the page: walk
                # the page once to find where each lies.
                at = 0
                for entry in selected:
                    while page[at] is not entry:
                        at += 1
                    masks[at] |= bit
                    at += 1
            yield [(entry, mask) for entry, mask in zip(page, masks) if mask]
            pulled = stats.logical_reads
        self.reads += stats.logical_reads - pulled


def shared_scan(store: DirectoryStore, leaves: Sequence[AtomicQuery]) -> SharedScan:
    """The ``leaves`` of one base read together (:class:`SharedScan`)."""
    return SharedScan(store, leaves)


def clip_window(query: AtomicQuery, root: DN, depth: Optional[int]) -> Optional[Window]:
    """The part of window ``(root, depth)`` inside ``query``'s scope, as a
    window, or None when they share no dn.  A root inside the scope keeps
    its place and loses the levels the scope does not reach; a root above
    the base becomes the base, with the levels it spends reaching down to
    it taken off."""
    base, reach = query.base, Scope.MAX_DEPTH[query.scope]
    if base.is_prefix_of(root):
        below = root.depth() - base.depth()
    elif root.is_ancestor_of(base):
        below = 0
        if depth is not None:
            depth -= base.depth() - root.depth()
            if depth < 0:
                return None
        root = base
    else:
        return None
    if reach is not None:
        if below > reach:
            return None
        depth = reach - below if depth is None else min(depth, reach - below)
    return root, depth


def clip_windows(query: AtomicQuery, windows: Iterable[Window]) -> List[Window]:
    """:func:`clip_window` over ``windows``, dropping the empty ones and
    repeats (first occurrence kept, order otherwise unchanged)."""
    clipped = (clip_window(query, root, depth) for root, depth in windows)
    return list(dict.fromkeys(window for window in clipped if window is not None))


def _window_pages(store: DirectoryStore, windows: Sequence[Window]) -> Iterator[List[Entry]]:
    """Every entry of ``windows`` once, in key order, a page at a time:
    one window is its own scan; several are merged (windows may overlap
    -- a ``(e, 1)`` window and one of its child's) and handed on in lists
    of at most a page."""
    if len(windows) == 1:
        yield from store.scan_pages(*windows[0])
        return
    scans = [chain.from_iterable(store.scan_pages(root, depth)) for root, depth in windows]
    page_size = store.pager.page_size
    page: List[Entry] = []
    last = None
    for entry in heapq.merge(*scans, key=_KEY):
        key = entry._dn._key
        if key != last:
            last = key
            page.append(entry)
            if len(page) == page_size:
                yield page
                page = []
    if page:
        yield page


def index_path(
    store: DirectoryStore, filter_: Filter
) -> Optional[Tuple[str, Iterator[int]]]:
    """The one access-path decision: ``None`` when only the clustered scan
    answers ``filter_``, else ``(label, positions)`` -- the index's name
    as EXPLAIN prints it, and the master positions of a superset of the
    filter's matches (the caller applies scope and filter to what it
    fetches).  ``positions`` is lazy: no index page is read until it is
    iterated, so :meth:`~repro.engine.optimizer.AccessPlanner.plan_leaf`
    asks the same function which path exists and costs it without I/O.

    An index over an ``int`` attribute answers comparisons and equality
    by key range; any other index answers equality (one key), wildcard
    patterns (the literal prefix's range, the whole index under a leading
    ``*``) and presence (the whole index).  Only simple filters name an
    attribute, so boolean combinations scan."""
    index = store.indices.get(getattr(filter_, "attribute", None))
    if index is None:
        return None
    numeric = index.type_name == "int"
    if isinstance(filter_, Equality):
        try:
            key = index.key(filter_.value)
        except (TypeError, ValueError):
            pairs = iter(())  # a value outside the key domain equals no key
        else:
            pairs = index.scan(key, key)
    elif numeric and isinstance(filter_, Comparison):
        bound = filter_.value
        pairs = index.scan(None, bound) if filter_.op[0] == "<" else index.scan(bound)
        if filter_.op in ("<", ">"):  # strict: without the bound's own pairs
            pairs = (pair for pair in pairs if pair[0] != bound)
    elif not numeric and isinstance(filter_, Substring):
        prefix = filter_.pattern.split("*", 1)[0]
        pairs = index.scan(prefix, prefix + "\uffff") if prefix else index.scan()
        pairs = (pair for pair in pairs if filter_.regex.fullmatch(pair[0]))
    elif not numeric and isinstance(filter_, Presence):
        pairs = index.scan()
    else:
        return None
    label = "%s(%s)" % ("btree" if numeric else "strindex", filter_.attribute)
    return label, (position for _key, position in pairs)
