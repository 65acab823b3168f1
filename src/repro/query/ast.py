"""Query ASTs for the language family L0 -- L3 (Figures 7--10).

Every query node is a function from directory instances to directory
instances that only *selects* entries (closure property, Section 4.1), so
the semantics of a query is fully described by its result set of entries.

Node kinds:

========================  =========  ==========================
node                      language   paper syntax
========================  =========  ==========================
:class:`AtomicQuery`      L0         ``(base ? scope ? filter)``
:class:`And` / :class:`Or` / :class:`Diff`  L0  ``(& Q Q)`` etc.
:class:`HierarchySelect`  L1/L2      ``(p Q Q [AggSel])`` ... ``(dc Q Q Q [AggSel])``
:class:`SimpleAggSelect`  L2         ``(g Q AggSel)``
:class:`EmbeddedRef`      L3         ``(vd Q Q attr [AggSel])``, ``(dv ...)``
========================  =========  ==========================

:func:`language_level` computes the smallest ``Li`` a query belongs to.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..filters.ast import Filter
from ..model.dn import DN
from .aggregates import AggSelFilter

__all__ = [
    "Scope",
    "Query",
    "AtomicQuery",
    "And",
    "Or",
    "Diff",
    "HierarchySelect",
    "SimpleAggSelect",
    "EmbeddedRef",
    "HIER_OPS",
    "ER_OPS",
    "language_level",
    "QueryError",
]


class QueryError(ValueError):
    """Raised for structurally invalid queries."""


class Scope:
    """Search scopes of an atomic query (Section 4.1)."""

    BASE = "base"
    ONE = "one"
    SUB = "sub"
    ALL = (BASE, ONE, SUB)
    #: How many levels below the base each scope reaches (None: all) --
    #: the ``max_depth`` of the store's scoped scan.
    MAX_DEPTH = {BASE: 0, ONE: 1, SUB: None}


#: Binary hierarchical operators and the ternary path-constrained ones.
HIER_OPS = ("p", "c", "a", "d", "ac", "dc")
_TERNARY = ("ac", "dc")

#: Embedded-reference operators (Section 7).
ER_OPS = ("vd", "dv")


class Query:
    """Base class for all query nodes."""

    def children(self) -> Tuple["Query", ...]:
        """Sub-queries, left to right."""
        return ()

    def with_children(self, children: Sequence["Query"]) -> "Query":
        """This node's operator and parameters over ``children`` (as
        :meth:`children` orders them): the one way a rewriter rebuilds a
        node."""
        raise NotImplementedError

    def walk(self) -> Iterator["Query"]:
        """Pre-order traversal of the query tree."""
        yield self
        for child in self.children():
            for node in child.walk():
                yield node

    def atomic_leaves(self) -> List["AtomicQuery"]:
        return [node for node in self.walk() if isinstance(node, AtomicQuery)]

    def node_count(self) -> int:
        """``|Q|``, the number of nodes in the query tree (Theorem 8.3)."""
        return sum(1 for _ in self.walk())

    def __repr__(self) -> str:
        return "<%s %s>" % (type(self).__name__, self)


class AtomicQuery(Query):
    """``(base ? scope ? filter)`` (Definition 4.1)."""

    __slots__ = ("base", "scope", "filter")

    def __init__(self, base: Union[DN, str], scope: str, filter_: Filter):
        if isinstance(base, str):
            base = DN.parse(base)
        if scope not in Scope.ALL:
            raise QueryError("unknown scope %r" % scope)
        self.base = base
        self.scope = scope
        self.filter = filter_

    def with_children(self, children: Sequence[Query]) -> Query:
        return self

    def __str__(self) -> str:
        base = str(self.base) or ""
        return "(%s ? %s ? %s)" % (base, self.scope, self.filter)

    def __eq__(self, other):
        return (
            isinstance(other, AtomicQuery)
            and (other.base, other.scope, str(other.filter))
            == (self.base, self.scope, str(self.filter))
        )

    def __hash__(self):
        return hash(("AtomicQuery", self.base, self.scope, str(self.filter)))


class _Boolean(Query):
    """Shared shape of the three boolean query operators."""

    op = "?"

    __slots__ = ("left", "right")

    def __init__(self, left: Query, right: Query):
        self.left = left
        self.right = right

    def children(self) -> Tuple[Query, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Query]) -> Query:
        return type(self)(*children)

    def __str__(self) -> str:
        return "(%s %s %s)" % (self.op, self.left, self.right)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self):
        return hash((type(self).__name__, self.left, self.right))


class And(_Boolean):
    """``(& Q1 Q2)`` -- set intersection."""

    op = "&"


class Or(_Boolean):
    """``(| Q1 Q2)`` -- set union."""

    op = "|"


class Diff(_Boolean):
    """``(- Q1 Q2)`` -- set difference.  The operator LDAP lacks
    (Example 4.1)."""

    op = "-"


class HierarchySelect(Query):
    """The six hierarchical selection operators (Definition 5.1), with the
    optional aggregate selection filter of L2 (Definition 6.2).

    Without ``agg`` the node is the plain L1 operator: *r1 is selected iff
    its witness set in Q2 is non-empty* (for ``ac``/``dc`` the witness set
    excludes witnesses separated from r1 by a Q3 entry).  With ``agg`` the
    witness set is aggregated and filtered instead.
    """

    __slots__ = ("op", "first", "second", "third", "agg")

    def __init__(
        self,
        op: str,
        first: Query,
        second: Query,
        third: Optional[Query] = None,
        agg: Optional[AggSelFilter] = None,
    ):
        if op not in HIER_OPS:
            raise QueryError("unknown hierarchical operator %r" % op)
        if (op in _TERNARY) != (third is not None):
            raise QueryError(
                "%s is %s; got %s operands"
                % (op, "ternary" if op in _TERNARY else "binary", 3 if third else 2)
            )
        self.op = op
        self.first = first
        self.second = second
        self.third = third
        self.agg = agg

    def children(self) -> Tuple[Query, ...]:
        if self.third is not None:
            return (self.first, self.second, self.third)
        return (self.first, self.second)

    def with_children(self, children: Sequence[Query]) -> Query:
        return HierarchySelect(self.op, *children, agg=self.agg)

    def __str__(self) -> str:
        parts = [self.op] + [str(child) for child in self.children()]
        if self.agg is not None:
            parts.append(str(self.agg))
        return "(%s)" % " ".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, HierarchySelect)
            and (other.op, other.first, other.second, other.third, other.agg)
            == (self.op, self.first, self.second, self.third, self.agg)
        )

    def __hash__(self):
        return hash(
            ("HierarchySelect", self.op, self.first, self.second, self.third, self.agg)
        )


class SimpleAggSelect(Query):
    """``(g Q AggSel)`` -- simple aggregate selection (Definition 6.1)."""

    __slots__ = ("operand", "agg")

    def __init__(self, operand: Query, agg: AggSelFilter):
        if agg.needs_witnesses():
            raise QueryError(
                "simple aggregate selection has no witness set; "
                "%s references $2" % agg
            )
        self.operand = operand
        self.agg = agg

    def children(self) -> Tuple[Query, ...]:
        return (self.operand,)

    def with_children(self, children: Sequence[Query]) -> Query:
        return SimpleAggSelect(*children, self.agg)

    def __str__(self) -> str:
        return "(g %s %s)" % (self.operand, self.agg)

    def __eq__(self, other):
        return (
            isinstance(other, SimpleAggSelect)
            and (other.operand, other.agg) == (self.operand, self.agg)
        )

    def __hash__(self):
        return hash(("SimpleAggSelect", self.operand, self.agg))


class EmbeddedRef(Query):
    """``(vd Q1 Q2 a [AggSel])`` and ``(dv Q1 Q2 a [AggSel])``
    (Definition 7.1).

    ``vd`` selects entries of Q1 whose attribute ``a`` embeds the dn of some
    Q2 entry; ``dv`` selects entries of Q1 whose dn is embedded in attribute
    ``a`` of some Q2 entry.
    """

    __slots__ = ("op", "first", "second", "attribute", "agg")

    def __init__(
        self,
        op: str,
        first: Query,
        second: Query,
        attribute: str,
        agg: Optional[AggSelFilter] = None,
    ):
        if op not in ER_OPS:
            raise QueryError("unknown embedded-reference operator %r" % op)
        if not attribute:
            raise QueryError("embedded-reference operator needs an attribute")
        self.op = op
        self.first = first
        self.second = second
        self.attribute = attribute
        self.agg = agg

    def children(self) -> Tuple[Query, ...]:
        return (self.first, self.second)

    def with_children(self, children: Sequence[Query]) -> Query:
        return EmbeddedRef(self.op, *children, self.attribute, self.agg)

    def __str__(self) -> str:
        parts = [self.op, str(self.first), str(self.second), self.attribute]
        if self.agg is not None:
            parts.append(str(self.agg))
        return "(%s)" % " ".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, EmbeddedRef)
            and (other.op, other.first, other.second, other.attribute, other.agg)
            == (self.op, self.first, self.second, self.attribute, self.agg)
        )

    def __hash__(self):
        return hash(
            ("EmbeddedRef", self.op, self.first, self.second, self.attribute, self.agg)
        )


def language_level(query: Query) -> int:
    """The smallest ``i`` such that ``query`` is an Li query.

    L0: atomic + boolean; L1: adds hierarchical selection without aggregate
    filters; L2: adds any aggregate selection; L3: adds embedded references.
    """
    level = 0
    for node in query.walk():
        if isinstance(node, EmbeddedRef):
            level = max(level, 3)
        elif isinstance(node, SimpleAggSelect):
            level = max(level, 2)
        elif isinstance(node, HierarchySelect):
            level = max(level, 2 if node.agg is not None else 1)
    return level
