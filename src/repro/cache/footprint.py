"""Static read footprints: which DN ranges can a query's result depend on?

The system invariant (docs/ARCHITECTURE.md) is that every subtree is one
contiguous range of the reverse-dn key order.  A query plan therefore has
a finite read set: each atomic leaf reads the contiguous range of its
``(base, scope)``, and every composite operator combines only the entries
its operands produced.  A :class:`Footprint` describes that read set as a
set of ranges, each either one dn (a *point*) or a whole subtree: an
update at dn ``u`` can change the query's result only if a range holds
``u``, which the cache asks of its prefix index over all residents' ranges.

Soundness argument, by induction over the AST:

- an entry at ``u`` can match ``(base ? scope ? filter)`` only if ``u``
  lies in the scope range of ``base`` -- a point for ``base`` scope, the
  base's subtree for ``one``/``sub``;
- every composite operator (boolean, hierarchical, aggregate,
  embedded-reference) is a function of its operands' result sets and the
  attribute values of entries *in* those sets, and each operand's result
  is contained in its own footprint -- so the union of operand footprints
  already covers every influencing dn.

On top of that sufficient union we widen conservatively, mirroring what
the operator algorithms physically traverse: ancestor-directed operators
(``p``/``a``/``ac``) add the ancestor chains of their ranges,
descendant-directed ones (``c``/``d``/``dc``) close points downward into
subtrees, aggregate variants take both closures, and the L3
embedded-reference operators -- whose dn-valued attributes may point at
arbitrary naming contexts -- widen to everything.  Widening never loses
precision soundness (it only invalidates more) and keeps footprints tiny:
``O(|Q| * depth)`` ranges.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Tuple, Union

from ..model.dn import DN, ROOT_DN
from ..query.ast import (
    And,
    AtomicQuery,
    Diff,
    EmbeddedRef,
    HierarchySelect,
    Or,
    Query,
    QueryError,
    Scope,
    SimpleAggSelect,
)

__all__ = ["Footprint", "query_footprint"]

#: One range: (root dn, whole-subtree?).  A point covers exactly its dn; a
#: subtree range covers the dn and every descendant (one contiguous key
#: range in the master order).
Range = Tuple[DN, bool]


class Footprint:
    """An immutable set of DN ranges (points and subtrees)."""

    __slots__ = ("_ranges",)

    def __init__(self, ranges: Iterable[Range] = ()):
        self._ranges = _prune(ranges)

    # -- construction -------------------------------------------------------

    @classmethod
    def point(cls, dn: Union[DN, str]) -> "Footprint":
        return cls([(_as_dn(dn), False)])

    @classmethod
    def subtree(cls, dn: Union[DN, str]) -> "Footprint":
        return cls([(_as_dn(dn), True)])

    @classmethod
    def everything(cls) -> "Footprint":
        """The whole namespace (the null dn's subtree)."""
        return cls([(ROOT_DN, True)])

    def union(self, other: "Footprint") -> "Footprint":
        return Footprint(self._ranges | other._ranges)

    __or__ = union

    # -- closures ----------------------------------------------------------

    def ancestor_closure(self) -> "Footprint":
        """Add the proper-ancestor chain of every range root (each ancestor
        is a single dn, so the closure adds only points)."""
        ranges = set(self._ranges)
        for dn, _subtree in self._ranges:
            for ancestor in dn.ancestors():
                ranges.add((ancestor, False))
        return Footprint(ranges)

    def descendant_closure(self) -> "Footprint":
        """Close every point downward into its whole subtree."""
        return Footprint((dn, True) for dn, _subtree in self._ranges)

    # -- introspection -----------------------------------------------------

    @property
    def ranges(self) -> FrozenSet[Range]:
        return self._ranges

    def __len__(self) -> int:
        return len(self._ranges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Footprint):
            return NotImplemented
        return self._ranges == other._ranges

    def __hash__(self) -> int:
        return hash(self._ranges)

    def __repr__(self) -> str:
        parts = sorted(
            ("%s%s" % (str(dn) or "(root)", "/**" if subtree else ""))
            for dn, subtree in self._ranges
        )
        return "Footprint{%s}" % ", ".join(parts)


def _prune(ranges: Iterable[Range]) -> FrozenSet[Range]:
    """Drop ranges subsumed by a subtree range already present."""
    ranges = set(ranges)
    subtree_roots = {dn for dn, subtree in ranges if subtree}
    kept = set()
    for dn, subtree in ranges:
        if subtree:
            subsumed = any(
                root != dn and root.is_prefix_of(dn) for root in subtree_roots
            )
        else:
            subsumed = any(root.is_prefix_of(dn) for root in subtree_roots)
        if not subsumed:
            kept.add((dn, subtree))
    return frozenset(kept)


def _as_dn(dn: Union[DN, str]) -> DN:
    return DN.parse(dn) if isinstance(dn, str) else dn


def query_footprint(query: Query) -> Footprint:
    """The static read footprint of ``query`` (see module docstring)."""
    if isinstance(query, AtomicQuery):
        if query.scope == Scope.BASE:
            return Footprint.point(query.base)
        # one/sub: conservatively the base's whole contiguous subtree range.
        return Footprint.subtree(query.base)

    if isinstance(query, (And, Or, Diff)):
        return query_footprint(query.left) | query_footprint(query.right)

    if isinstance(query, HierarchySelect):
        combined = query_footprint(query.first) | query_footprint(query.second)
        if query.third is not None:
            combined = combined | query_footprint(query.third)
        if query.op in ("p", "a", "ac"):
            combined = combined.ancestor_closure()
        if query.op in ("c", "d", "dc"):
            combined = combined.descendant_closure()
        if query.agg is not None:
            combined = combined.ancestor_closure().descendant_closure()
        return combined

    if isinstance(query, SimpleAggSelect):
        # (g Q AggSel): aggregates only over the operand entries' own
        # attributes ($1), so the operand's footprint is the read set.
        return query_footprint(query.operand)

    if isinstance(query, EmbeddedRef):
        # vd/dv: dn-valued attributes may reference any naming context, so
        # the read set conservatively widens to the whole namespace.
        return Footprint.everything()

    raise QueryError("unknown query node %r" % (query,))
