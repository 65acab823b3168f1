"""Directory entries (Definition 3.2).

An entry ``r`` carries:

- ``dn(r)`` -- its distinguished name (the key);
- ``class(r)`` -- a non-empty set of class names;
- ``val(r)`` -- a *set* of (attribute, value) pairs.  A single attribute may
  appear with several values, which is one of the three forms of
  heterogeneity Section 3.5 calls out; but a given (attribute, value) pair
  appears at most once.

Entries are value objects: equality and hashing are by dn (dn is a key of
the instance), while :meth:`Entry.same_content` compares full content.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .dn import DN
from .schema import OBJECT_CLASS

__all__ = ["Entry"]


class Entry:
    """One directory entry.

    ``values`` maps attribute name to the tuple of its values (duplicates
    removed, first occurrence order preserved).  ``objectClass`` is kept in
    sync with ``classes`` at construction (condition (c2) of
    Definition 3.2).
    """

    __slots__ = ("_dn", "_classes", "_values", "_approx_bytes")

    def __init__(
        self,
        dn: DN,
        classes: Iterable[str],
        values: Optional[Dict[str, Iterable[Any]]] = None,
    ):
        self._dn = dn
        self._classes = frozenset(classes)
        if not self._classes:
            raise ValueError("class(r) must be non-empty (Definition 3.2b)")
        store: Dict[str, Tuple[Any, ...]] = {}
        for attr, vals in (values or {}).items():
            deduped = _dedupe(vals)
            if deduped:
                store[attr] = deduped
        # Condition (c2): objectClass values are exactly the classes.
        store[OBJECT_CLASS] = tuple(sorted(self._classes))
        self._values = store
        self._approx_bytes: Optional[int] = None

    # -- the three components ----------------------------------------------

    @property
    def dn(self) -> DN:
        return self._dn

    @property
    def classes(self) -> frozenset:
        """``class(r)``."""
        return self._classes

    @property
    def rdn(self):
        return self._dn.rdn

    def values(self, attribute: str) -> Tuple[Any, ...]:
        """All values of ``attribute`` (empty tuple if absent)."""
        return self._values.get(attribute, ())

    def first(self, attribute: str) -> Any:
        """The first value of ``attribute``, or ``None``."""
        vals = self._values.get(attribute)
        return vals[0] if vals else None

    def has(self, attribute: str) -> bool:
        """Presence test (the ``a=*`` atomic filter)."""
        return attribute in self._values

    def attributes(self) -> List[str]:
        """Attribute names present on this entry, sorted."""
        return sorted(self._values)

    def pairs(self) -> Iterator[Tuple[str, Any]]:
        """Iterate ``val(r)`` as (attribute, value) pairs."""
        for attr in sorted(self._values):
            for value in self._values[attr]:
                yield attr, value

    def value_count(self, attribute: str) -> int:
        return len(self._values.get(attribute, ()))

    # -- derived -----------------------------------------------------------

    def approx_bytes(self) -> int:
        """A stable, platform-independent size estimate: a fixed overhead
        plus the text sizes of the dn and of every pair (what the result
        cache budgets by).  Rendered once -- entries are immutable."""
        size = self._approx_bytes
        if size is None:
            size = 64 + len(str(self._dn))
            for attr, vals in self._values.items():
                for value in vals:
                    size += len(attr) + len(str(value)) + 16
            self._approx_bytes = size
        return size

    def rdn_consistent(self) -> bool:
        """Condition (d-ii) of Definition 3.2: ``rdn(r) subseteq val(r)``.

        RDN values are compared as strings against the string form of the
        entry's values, because RDNs are textual."""
        for attr, value in self._dn.rdn:
            if not any(str(v) == value for v in self.values(attr)):
                return False
        return True

    def with_values(self, **extra: Iterable[Any]) -> "Entry":
        """A copy of this entry with additional attribute values appended."""
        merged: Dict[str, Iterable[Any]] = {
            attr: list(vals) for attr, vals in self._values.items()
        }
        for attr, vals in extra.items():
            merged.setdefault(attr, [])
            merged[attr] = list(merged[attr]) + list(vals)
        merged.pop(OBJECT_CLASS, None)
        return Entry(self._dn, self._classes, merged)

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Entry):
            return NotImplemented
        return self._dn == other._dn

    def __hash__(self) -> int:
        return hash(self._dn)

    def same_content(self, other: "Entry") -> bool:
        """Full structural equality (dn, classes and all values)."""
        return (
            self._dn == other._dn
            and self._classes == other._classes
            and {a: frozenset(map(str, v)) for a, v in self._values.items()}
            == {a: frozenset(map(str, v)) for a, v in other._values.items()}
        )

    def __repr__(self) -> str:
        return "Entry(%s)" % self._dn

    def pretty(self) -> str:
        """A multi-line rendering in the style of the paper's figures."""
        lines = [str(self._dn) or "(null dn)"]
        for attr, value in self.pairs():
            lines.append("  %s: %s" % (attr, value))
        return "\n".join(lines)


def _dedupe(values: Iterable[Any]) -> Tuple[Any, ...]:
    """Remove duplicates preserving first-occurrence order.

    ``val(r)`` is a set of pairs, so the same (attribute, value) pair must
    not appear twice."""
    seen = set()
    out = []
    for value in values:
        marker = (type(value).__name__, str(value))
        if marker not in seen:
            seen.add(marker)
            out.append(value)
    return tuple(out)
