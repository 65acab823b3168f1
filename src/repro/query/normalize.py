"""Query normalisation: canonical forms for equivalence detection.

The boolean operators of L0 are set operations, so ``(& A B) = (& B A)``
and ``(| A B) = (| B A)``; commuted but equal sub-queries should be
recognised by the optimiser's idempotence rule and by query caches.
:func:`normalize` rewrites a query into a canonical form:

- operands of ``&`` and ``|`` are flattened across same-operator nesting
  and re-associated in a deterministic order (by rendered text), so any
  two queries equal modulo commutativity/associativity normalise
  identically;
- exact duplicate operands of ``&``/``|`` are dropped (idempotence);
- ``-`` (set difference) is not commutative and is left alone beyond
  normalising its operands.

Normalisation is purely syntactic and provably semantics-preserving (the
only rewrites used are the set identities above); the hypothesis test
checks that on random instances.
"""

from __future__ import annotations

from typing import List, Type

from .ast import And, Or, Query

__all__ = ["normalize", "equivalent_modulo_acd"]


def _flatten(node: Query, op: Type[Query], out: List[Query]) -> None:
    """Collect the maximal same-operator subtree's leaves."""
    if isinstance(node, op):
        _flatten(node.left, op, out)
        _flatten(node.right, op, out)
    else:
        out.append(node)


def _rebuild(op: Type[Query], operands: List[Query]) -> Query:
    """Left-deep recombination of canonically ordered operands."""
    result = operands[0]
    for operand in operands[1:]:
        result = op(result, operand)
    return result


def normalize(query: Query) -> Query:
    """The canonical form (see module docstring)."""
    children = query.children()
    if not children:
        return query
    if not isinstance(query, (And, Or)):
        return query.with_children([normalize(child) for child in children])
    op = type(query)
    leaves: List[Query] = []
    _flatten(query, op, leaves)
    unique: List[Query] = []
    seen = set()
    for operand in sorted((normalize(leaf) for leaf in leaves), key=str):
        text = str(operand)
        if text not in seen:
            seen.add(text)
            unique.append(operand)
    return _rebuild(op, unique)


def equivalent_modulo_acd(first: Query, second: Query) -> bool:
    """Do the queries agree up to associativity, commutativity and
    duplication of the boolean operators?  (Sound, not complete: deeper
    semantic equivalences are not decided.)"""
    return normalize(first) == normalize(second)
