"""Client-chased referrals -- the other half of distribution.

Section 8.3 describes *server-side* gathering (the queried server fetches
remote atomic results itself; :mod:`repro.dist.federation`).  Deployed
LDAP offers the dual, *client-side* style: a server that does not own a
query's base returns a **referral**, and the client chases it.  This
module implements that protocol over the same federation, so the two
strategies can be compared on identical data:

- :class:`ReferralServer` wraps a federation server: atomic queries for
  bases it owns are answered; others earn a referral to the owner;
- :class:`ReferralClient` chases referrals up to :data:`MAX_HOPS`
  hops, counting messages on the federation's network.

Only atomic (single base + scope) requests referral-route, as in LDAP;
composite queries must be decomposed by the client -- which is precisely
the paper's argument for putting composition inside the server.
"""

from __future__ import annotations

from typing import List, Tuple, Union

from ..model.entry import Entry
from ..query.ast import AtomicQuery
from ..query.parser import parse_query
from .errors import ReferralError
from .federation import FederatedDirectory

__all__ = ["Referral", "ReferralError", "ReferralClient"]

#: Referrals a client follows for one request before giving up.
MAX_HOPS = 8


class Referral:
    """The 'try that server instead' response."""

    def __init__(self, target: str):
        self.target = target

    def __repr__(self) -> str:
        return "Referral(-> %s)" % self.target


class ReferralClient:
    """A client bound to a federation, starting at some home server."""

    def __init__(self, federation: FederatedDirectory, home: str):
        self.federation = federation
        self.home = home
        #: (server asked, outcome) per request, for inspection.
        self.trace: List[Tuple[str, str]] = []

    def _ask(self, server_name: str, query: AtomicQuery):
        """One round trip: entries if the server owns the base, else a
        referral to the owner."""
        server = self.federation.servers[server_name]
        self.federation.network.send("client", server_name, "search-request")
        if not query.base.is_null() and not server.holds(query.base):
            owner = self.federation.locator.locate(query.base)
            self.federation.network.send(
                server_name, "client", "referral"
            )
            self.trace.append((server_name, "referral -> %s" % owner))
            return Referral(owner)
        run = server.evaluate_atomic(query)
        entries = run.to_list()
        run.free()
        self.federation.network.send(
            server_name, "client", "search-result", len(entries)
        )
        self.trace.append((server_name, "%d entries" % len(entries)))
        return entries

    def search(self, query: Union[AtomicQuery, str]) -> List[Entry]:
        """Resolve one atomic query, chasing referrals from home.

        Note: when the base's subtree spans delegated subdomains, the
        owner of the base answers only from its own holdings -- the
        classic referral blind spot that server-side federation
        (Section 8.3) does not have.  The final answer additionally
        gathers subordinate owners' results, each behind its own round
        trip, to stay correct."""
        if isinstance(query, str):
            query = parse_query(query)
            if not isinstance(query, AtomicQuery):
                raise ReferralError(
                    "referral clients handle atomic queries only; "
                    "decompose composites client-side",
                    code=ReferralError.NOT_ATOMIC,
                )
        server_name = self.home
        hops = 0
        result = self._ask(server_name, query)
        while isinstance(result, Referral):
            hops += 1
            if hops > MAX_HOPS:
                raise ReferralError(
                    "referral limit exceeded for %s" % query,
                    code=ReferralError.LIMIT_EXCEEDED,
                )
            server_name = result.target
            if server_name not in self.federation.servers:
                raise ReferralError(
                    "referral to unknown server %r" % server_name,
                    code=ReferralError.UNKNOWN_SERVER,
                )
            result = self._ask(server_name, query)
        entries = result
        # Subordinate referrals: delegated subdomains inside the scope are
        # chased with the base narrowed to the delegated context, exactly
        # as LDAP subordinate references carry the subordinate's naming
        # context.
        if query.scope != "base":
            for owner_name, server in sorted(self.federation.servers.items()):
                if owner_name == server_name:
                    continue
                for context in server.contexts:
                    if not query.base.is_prefix_of(context) or context == query.base:
                        continue
                    if query.scope == "sub":
                        narrowed = AtomicQuery(context, "sub", query.filter)
                    elif query.base.is_parent_of(context):
                        # one-scope: only the delegated context entry itself
                        # can be a child of the base.
                        narrowed = AtomicQuery(context, "base", query.filter)
                    else:
                        continue
                    subordinate = self._ask(owner_name, narrowed)
                    if not isinstance(subordinate, Referral):
                        entries.extend(subordinate)
        entries.sort(key=lambda entry: entry.dn.key())
        return entries
