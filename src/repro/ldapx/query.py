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

from ..engine.atomic import evaluate_atomic
from ..filters.ast import Filter
from ..filters.parser import parse_filter
from ..model.dn import DN
from ..query.ast import AtomicQuery, Scope
from ..storage.runs import Run
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
    """Evaluate an LDAP query on the store.  An LDAP query *is* an atomic
    query whose filter may be boolean (Section 4.2: LDAP is the fragment of
    L0 with one base and one scope), so the one leaf evaluator answers it:
    a boolean filter names no indexed attribute and is applied per entry of
    the scoped clustered scan."""
    return evaluate_atomic(store, AtomicQuery(query.base, query.scope, query.filter))
