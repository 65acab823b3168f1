"""The LDAP query language, as the paper defines it for comparison.

"We have not defined the LDAP query language formally, since it is
virtually identical, for our purposes, to L0, except for this one material
difference": an LDAP query has a *single* base dn and a *single* scope, and
only its **filters** compose with ``&``, ``|``, ``!`` -- whole queries do
not compose, and there is no set difference (Section 4.2, Example 4.1).

To keep the comparison about exactly that difference, scopes here follow
Definition 4.1 (``one``/``sub`` include the base entry), matching L0.
"""

from __future__ import annotations

from typing import Union

from ..filters.ast import Filter
from ..filters.parser import parse_filter
from ..model.dn import DN

from ..query.ast import Scope
from ..storage.runs import Run, RunWriter
from ..storage.store import DirectoryStore

__all__ = ["LDAPQuery", "evaluate_ldap"]


class LDAPQuery:
    """One LDAP search: base dn, scope, and a (possibly boolean) filter."""

    def __init__(self, base: Union[DN, str], scope: str, filter_: Union[Filter, str]):
        if isinstance(base, str):
            base = DN.parse(base)
        if scope not in Scope.ALL:
            raise ValueError("unknown scope %r" % scope)
        if isinstance(filter_, str):
            filter_ = parse_filter(filter_)
        self.base = base
        self.scope = scope
        self.filter = filter_

    def __str__(self) -> str:
        return "ldapsearch -b %r -s %s %r" % (
            str(self.base),
            self.scope,
            str(self.filter),
        )

    def __repr__(self) -> str:
        return "LDAPQuery(%s)" % self


def evaluate_ldap(store: DirectoryStore, query: LDAPQuery) -> Run:
    """Evaluate an LDAP query on the store: one clustered scan of the
    base's subtree range, bounded by the scope, with the boolean filter
    applied per entry."""
    writer = RunWriter(store.pager)
    for entry in store.scan_subtree(query.base, Scope.MAX_DEPTH[query.scope]):
        if query.filter.matches(entry, store.schema):
            writer.append(entry)
    return writer.close()
