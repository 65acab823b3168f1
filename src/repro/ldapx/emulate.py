"""Client-side emulation of L0/L1 queries over an LDAP-only server.

Section 1's thesis: "With LDAP, DEN applications would have to specify not
only which directory entries need to be accessed, but also how to access
them, using long sequences of queries."  This module makes that cost
measurable:

- :class:`LDAPSession` plays the LDAP server: it answers single
  (base, scope, filter) searches and counts round trips, entries shipped to
  the client, and server-side I/O.
- :func:`emulate_l0` evaluates an arbitrary L0 query the only way an LDAP
  client can: one search per atomic leaf, boolean combination at the
  client (Example 4.1's two-searches-plus-client-difference).
- :func:`emulate_children` evaluates the L1 ``(c Q1 Q2)`` the way a
  navigational LDAP application must: fetch Q1's candidates, then issue one
  ``one``-scoped probe per candidate to look for a qualifying child --
  the "long sequence of queries".

The same queries run in one shot on the :class:`~repro.engine.QueryEngine`,
so benchmark E9 can put the two costs side by side.
"""

from __future__ import annotations

from typing import Dict, List, Union

from ..filters.ast import Filter
from ..model.dn import DN
from ..model.entry import Entry
from ..query.ast import And, AtomicQuery, Diff, Or, Query
from ..storage.store import DirectoryStore
from .query import LDAPQuery, evaluate_ldap

__all__ = ["LDAPSession", "emulate_l0", "emulate_children"]


class LDAPSession:
    """A client's connection to an LDAP-only directory server."""

    def __init__(self, store: DirectoryStore):
        self.store = store
        self.round_trips = 0
        self.entries_shipped = 0

    def search(self, base: Union[DN, str], scope: str, filter_: Union[Filter, str]) -> List[Entry]:
        """One LDAP search round trip; results are shipped to the client."""
        self.round_trips += 1
        run = evaluate_ldap(self.store, LDAPQuery(base, scope, filter_))
        entries = run.to_list()
        run.free()
        self.entries_shipped += len(entries)
        return entries

    def __repr__(self) -> str:
        return "LDAPSession(round_trips=%d, shipped=%d)" % (
            self.round_trips,
            self.entries_shipped,
        )


def emulate_l0(session: LDAPSession, query: Query) -> List[Entry]:
    """Evaluate an L0 query through LDAP searches plus client-side set
    operations.  Raises on non-L0 nodes."""
    if isinstance(query, AtomicQuery):
        return session.search(query.base, query.scope, query.filter)
    if isinstance(query, (And, Or, Diff)):
        left = emulate_l0(session, query.left)
        right = emulate_l0(session, query.right)
        right_dns = {entry.dn for entry in right}
        if isinstance(query, And):
            return [entry for entry in left if entry.dn in right_dns]
        if isinstance(query, Diff):
            return [entry for entry in left if entry.dn not in right_dns]
        merged: Dict[DN, Entry] = {entry.dn: entry for entry in left}
        for entry in right:
            merged.setdefault(entry.dn, entry)
        return sorted(merged.values(), key=lambda entry: entry.dn.key())
    raise ValueError("not an L0 query: %r" % (query,))


def emulate_children(
    session: LDAPSession,
    first: Query,
    second_filter: Filter,
) -> List[Entry]:
    """Evaluate ``(c first (base-of-candidate ? one ? second_filter))`` the
    navigational way: ship every candidate of ``first``, then issue one
    one-level probe per candidate.  ``len(candidates) + |first's leaves|``
    round trips."""
    candidates = emulate_l0(session, first)
    selected = []
    for candidate in candidates:
        probe = session.search(candidate.dn, "one", second_filter)
        if any(entry.dn != candidate.dn for entry in probe):
            selected.append(candidate)
    return selected
