"""Subtree access control.

The TOPS application motivates read control explicitly: query handling
profiles give subscribers "considerable control over the privacy of their
information", and real directory servers guard subtrees with access
control rules.  This module provides the generic mechanism:

- :class:`AccessRule` -- (subject, scope dn, base/sub, allow/deny);
- :class:`AccessControlList` -- an ordered rule list; for a given subject
  and entry dn, the *most specific matching* rule decides (ties broken by
  rule order), with a configurable default.

The list is enforced in one place,
:class:`~repro.server.service.DirectoryService`, which filters every
search result by what the bound subject may read.  Filtering happens on
the result (one extra linear pass), so the evaluation bounds of the
engine are untouched.

Subjects are opaque strings; ``"*"`` matches anyone (including anonymous,
which is ``None``).
"""

from __future__ import annotations

from typing import List, Optional, Union

from .model.dn import DN

__all__ = ["AccessRule", "AccessControlList"]


class AccessRule:
    """One rule: does ``subject`` get to read the subtree at ``scope_dn``?"""

    def __init__(
        self,
        subject: str,
        scope_dn: Union[DN, str],
        allow: bool,
        base_only: bool = False,
    ):
        if isinstance(scope_dn, str):
            scope_dn = DN.parse(scope_dn)
        self.subject = subject
        self.scope_dn = scope_dn
        self.allow = allow
        self.base_only = base_only

    def matches(self, subject: Optional[str], dn: DN) -> bool:
        if self.subject != "*" and subject != self.subject:
            return False
        if self.base_only:
            return dn == self.scope_dn
        return self.scope_dn.is_prefix_of(dn)

    def specificity(self) -> int:
        """Deeper scopes are more specific; at equal depth, a named subject
        beats the wildcard, and a base-only rule beats a subtree rule."""
        return (
            self.scope_dn.depth() * 4
            + (2 if self.subject != "*" else 0)
            + (1 if self.base_only else 0)
        )

    def __repr__(self) -> str:
        return "AccessRule(%s %s %s%s)" % (
            "allow" if self.allow else "deny",
            self.subject,
            self.scope_dn or "(root)",
            " [base]" if self.base_only else "",
        )


class AccessControlList:
    """An ordered list of rules with most-specific-match resolution."""

    def __init__(self, default_allow: bool = False):
        self.default_allow = default_allow
        self._rules: List[AccessRule] = []

    def allow(self, subject: str, scope_dn: Union[DN, str], base_only: bool = False) -> "AccessControlList":
        self._rules.append(AccessRule(subject, scope_dn, True, base_only))
        return self

    def deny(self, subject: str, scope_dn: Union[DN, str], base_only: bool = False) -> "AccessControlList":
        self._rules.append(AccessRule(subject, scope_dn, False, base_only))
        return self

    def readable(self, subject: Optional[str], dn: DN) -> bool:
        """May ``subject`` read the entry at ``dn``?"""
        best: Optional[AccessRule] = None
        best_rank = None
        for position, rule in enumerate(self._rules):
            if not rule.matches(subject, dn):
                continue
            # Most specific wins; earlier rules win ties (negative position
            # so earlier = larger rank at equal specificity).
            rank = (rule.specificity(), -position)
            if best_rank is None or rank > best_rank:
                best = rule
                best_rank = rank
        if best is None:
            return self.default_allow
        return best.allow

    def __len__(self) -> int:
        return len(self._rules)

    def __repr__(self) -> str:
        return "AccessControlList(%d rules, default %s)" % (
            len(self._rules),
            "allow" if self.default_allow else "deny",
        )
