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
- **secondary index**: comparison filters on indexed int attributes use the
  B+tree, equality/presence/wildcard filters on indexed string attributes
  use the string index; matching master positions (ascending = dn order)
  are fetched page-wise and scope-checked.

Either way the result is a sorted, duplicate-free run -- the contract every
operator above relies on.

``store`` is anything with the store's read interface: a
:class:`~repro.storage.store.DirectoryStore`, or a pinned
:class:`~repro.storage.maintenance.StoreView`, whose ``scan_subtree`` and
``fetch_positions`` merge the pending-update overlay into the same sorted
stream (the service path; nothing here changes).
"""

from __future__ import annotations

from typing import List, Optional

from ..filters.ast import Comparison, Equality, Filter, MatchAll, Presence, Substring
from ..model.dn import DN
from ..query.ast import AtomicQuery, Scope
from ..storage.runs import Run, RunWriter
from ..storage.store import DirectoryStore

__all__ = ["evaluate_atomic", "scope_admits"]


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
) -> Run:
    """Evaluate one atomic query; returns a sorted run of entries."""
    writer = RunWriter(store.pager)
    if use_indices:
        positions = _index_positions(store, query.filter)
        if positions is not None:
            for entry in store.fetch_positions(positions):
                if scope_admits(query.base, query.scope, entry.dn) and query.filter.matches(entry, store.schema):
                    writer.append(entry)
            return writer.close()
    matches, schema, append = query.filter.matches, store.schema, writer.append
    for entry in store.scan_subtree(query.base, Scope.MAX_DEPTH[query.scope]):
        if matches(entry, schema):
            append(entry)
    return writer.close()


def _index_positions(store: DirectoryStore, filter_: Filter) -> Optional[List[int]]:
    """Master positions matching the filter via a secondary index, or None
    when no suitable index exists."""
    if isinstance(filter_, Comparison) and filter_.attribute in store.int_indices:
        tree = store.int_indices[filter_.attribute]
        if filter_.op == "<":
            return list(tree.range_scan(None, filter_.value, True, False))
        if filter_.op == "<=":
            return list(tree.range_scan(None, filter_.value, True, True))
        if filter_.op == ">":
            return list(tree.range_scan(filter_.value, None, False, True))
        return list(tree.range_scan(filter_.value, None, True, True))
    if isinstance(filter_, Equality):
        attribute = filter_.attribute
        if attribute in store.int_indices:
            try:
                return list(store.int_indices[attribute].search(int(filter_.value)))
            except (TypeError, ValueError):
                return []
        if attribute in store.string_indices:
            return list(store.string_indices[attribute].lookup_eq(str(filter_.value)))
        return None
    if isinstance(filter_, Substring) and filter_.attribute in store.string_indices:
        return list(store.string_indices[filter_.attribute].lookup_pattern(filter_.pattern))
    if isinstance(filter_, Presence) and filter_.attribute in store.string_indices:
        return list(store.string_indices[filter_.attribute].lookup_presence())
    if isinstance(filter_, MatchAll):
        return None  # a full scan is the right plan anyway
    return None
