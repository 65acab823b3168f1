"""Atomic query evaluation against the directory store.

The paper *assumes* atomic queries are efficiently evaluable "with the help
of B-tree indices for integer and distinguishedName filters, and trie and
suffix tree indices for string filters" (Section 4.1), and charges the rest
of the query by the cumulative size ``|L|`` of the atomic results
(Theorem 8.3).  This module provides both concrete paths:

- **clustered scan**: the master run is ordered by reverse-dn key, so the
  subtree of the base dn is a contiguous key range located through the
  in-memory sparse index; the scope is the scan's depth bound
  (``scan_subtree(base, max_depth)``), not a filter over its output --
  ``sub`` reads exactly that range, ``one`` seeks past each child's
  subtree, ``base`` reads one page;
- **secondary index**: :func:`index_path` decides, from the filter's class
  and the indexed attribute's schema type, whether an index answers the
  filter and which key range of it; the matching master positions
  (ascending = dn order) are fetched page-wise, then scope- and
  filter-checked.

Either way the result is a sorted, duplicate-free run -- the contract every
operator above relies on.

A leaf may also be read over **windows** (``within``): ``(root dn,
max_depth)`` pairs, each one ``scan_subtree`` call, that a planned
hierarchical selection derives from its materialised first operand (see
:meth:`~repro.engine.optimizer.AccessPlanner.witness_windows`).  Each
window is first clipped to the leaf's own scope (:func:`clip_window`), so
a window the scope excludes costs no I/O, and the scans are merged in key
order without duplicates.  The answer is the leaf restricted to the
windows.

The atomic operands of one hierarchical selection may also be read
together (:func:`shared_scan`): one scan at the widest of their scopes,
each entry labelled with the operands it answers, fed straight to the
stack pass.

``store`` is anything with the store's read interface: a
:class:`~repro.storage.store.DirectoryStore`, or a pinned
:class:`~repro.storage.maintenance.StoreView`, whose ``scan_subtree`` and
``fetch_positions`` merge the pending-update overlay into the same sorted
stream (the service path; nothing here changes).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..filters.ast import Comparison, Equality, Filter, Presence, Substring
from ..model.dn import DN
from ..model.entry import Entry
from ..query.ast import AtomicQuery, Scope
from ..storage.runs import Run, RunWriter
from ..storage.store import DirectoryStore
from .common import labels_by_mask

__all__ = [
    "evaluate_atomic", "index_path", "scope_admits", "shared_scan", "clip_window",
    "clip_windows", "Window",
]

#: A ``(root dn, max_depth)`` read window: the arguments of one
#: ``scan_subtree`` call (``None`` = the whole subtree).
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
    if within is None and use_indices:
        path = index_path(store, query.filter)
        if path is not None:
            for entry in store.fetch_positions(path[1]):
                if scope_admits(query.base, query.scope, entry.dn) and query.filter.matches(entry, store.schema):
                    writer.append(entry)
            return writer.close()
    if within is None:
        entries = store.scan_subtree(query.base, Scope.MAX_DEPTH[query.scope])
    else:
        entries = _window_scan(store, clip_windows(query, within))
    matches, schema, append = query.filter.matches, store.schema, writer.append
    for entry in entries:
        if matches(entry, schema):
            append(entry)
    return writer.close()


def shared_scan(
    store: DirectoryStore, leaves: Sequence[AtomicQuery]
) -> Iterator[Tuple[Entry, frozenset]]:
    """The operands of a node whose atomic ``leaves`` share one base, read
    by one clustered scan at the widest of their scopes: each entry is
    tested against each leaf's depth limit and filter, and yielded with
    the 1-based indices of the leaves it answers -- the stream
    :func:`~repro.engine.common.labeled_merge` makes of the leaves' runs,
    with no run written or read back."""
    base = leaves[0].base
    reaches = [Scope.MAX_DEPTH[leaf.scope] for leaf in leaves]
    widest = None if None in reaches else max(reaches)
    labels = labels_by_mask(len(leaves))
    schema = store.schema
    # (bit, filter, deepest key length) per leaf; None where the scan's
    # own depth bound is the leaf's.
    tests = [
        (1 << index, leaf.filter.matches,
         None if reach == widest else len(base.key()) + reach)
        for index, (leaf, reach) in enumerate(zip(leaves, reaches))
    ]
    bounded = any(deepest is not None for _bit, _matches, deepest in tests)
    depth = 0
    for entry in store.scan_subtree(base, widest):
        if bounded:
            depth = len(entry.dn.key())
        mask = 0
        for bit, matches, deepest in tests:
            if (deepest is None or depth <= deepest) and matches(entry, schema):
                mask |= bit
        if mask:
            yield entry, labels[mask]


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


def _window_scan(store: DirectoryStore, windows: Sequence[Window]) -> Iterator[Entry]:
    """Every entry of ``windows`` once, in key order: the window scans,
    merged (windows may overlap -- a ``(e, 1)`` window and one of its
    child's)."""
    scans = [store.scan_subtree(root, depth) for root, depth in windows]
    last = None
    for entry in heapq.merge(*scans, key=lambda entry: entry.dn.key()):
        key = entry.dn.key()
        if key != last:
            last = key
            yield entry


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
        pairs = (pair for pair in pairs if filter_.regex.match(pair[0]))
    elif not numeric and isinstance(filter_, Presence):
        pairs = index.scan()
    else:
        return None
    label = "%s(%s)" % ("btree" if numeric else "strindex", filter_.attribute)
    return label, (position for _key, position in pairs)
