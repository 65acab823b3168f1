"""Directory instances (Definition 3.2): a forest of entries.

A :class:`DirectoryInstance` of a schema ``S`` is the 4-tuple
``I = (R, class, val, dn)``.  ``dn`` is a key (enforced structurally: the
instance is a mapping from DN to entry).  The hierarchy of entries -- the
*directory information forest* (DIF) of Section 3.3 -- is induced purely by
the distinguished names; an entry whose parent dn is not present is a root
of the forest (the paper generalises LDAP's tree to a forest to obtain
closure of its query languages).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .dn import DN
from .entry import Entry
from .schema import OBJECT_CLASS, DirectorySchema, SchemaError

__all__ = ["DirectoryInstance", "InstanceError"]


class InstanceError(ValueError):
    """Raised on operations that would break instance invariants."""


class DirectoryInstance:
    """A validating, in-memory directory instance.

    This is the *logical* data structure; :mod:`repro.storage.store` lays an
    instance out on the simulated block device for the external-memory
    algorithms.  Entries are kept in a dict by DN plus a list of DN keys in
    reverse-dn sorted order, so hierarchical range scans are cheap.
    """

    def __init__(
        self,
        schema: DirectorySchema,
        require_parents: bool = False,
    ):
        self.schema = schema
        #: When true, every non-root insertion must have its parent present
        #: (the LDAP discipline); when false, arbitrary forests are allowed
        #: (the paper's model).
        self.require_parents = require_parents
        self._entries: Dict[DN, Entry] = {}
        self._sorted_keys: List[Tuple[Tuple[str, ...], DN]] = []

    # -- mutation ----------------------------------------------------------

    def add(
        self,
        dn: Union[DN, str],
        classes: Iterable[str],
        attributes: Optional[Dict[str, Iterable[Any]]] = None,
        **kw_attributes: Any,
    ) -> Entry:
        """Create, validate and insert an entry.

        ``attributes`` maps attribute name to an iterable of values;
        ``kw_attributes`` is a convenience for single values or lists, e.g.
        ``instance.add(dn, ["dcObject"], dc="att")``.  Values are coerced
        through the schema's types.
        """
        if isinstance(dn, str):
            dn = DN.parse(dn)
        if dn.is_null():
            raise InstanceError("cannot insert an entry at the null dn")
        if dn in self._entries:
            raise InstanceError("dn is a key: %s already present" % dn)
        if self.require_parents and dn.depth() > 1 and dn.parent not in self._entries:
            raise InstanceError("parent of %s is not present" % dn)

        merged: Dict[str, List[Any]] = {}
        for attr, vals in (attributes or {}).items():
            merged[attr] = list(_as_values(vals))
        for attr, vals in kw_attributes.items():
            merged.setdefault(attr, []).extend(_as_values(vals))
        merged.pop(OBJECT_CLASS, None)

        class_set = frozenset(classes)
        coerced = self._check_and_coerce(dn, class_set, merged)
        entry = Entry(dn, class_set, coerced)
        if not entry.rdn_consistent():
            raise InstanceError(
                "rdn(r) must be a subset of val(r) (Definition 3.2d-ii): "
                "%s vs values %s" % (dn.rdn, sorted(coerced))
            )
        self._entries[dn] = entry
        insort(self._sorted_keys, (dn.key(), dn))
        return entry

    def add_entry(self, entry: Entry) -> Entry:
        """Insert an already-built entry (re-validated)."""
        values = {attr: list(entry.values(attr)) for attr in entry.attributes()}
        values.pop(OBJECT_CLASS, None)
        return self.add(entry.dn, entry.classes, values)

    def remove(self, dn: Union[DN, str], recursive: bool = False) -> int:
        """Remove an entry; with ``recursive`` also its whole subtree.

        Returns the number of entries removed."""
        if isinstance(dn, str):
            dn = DN.parse(dn)
        if dn not in self._entries:
            raise InstanceError("no entry at %s" % dn)
        victims = [dn]
        if recursive:
            victims.extend(e.dn for e in self.descendants_of(dn))
        elif any(True for _ in self.children_of(dn)):
            raise InstanceError("%s has children; pass recursive=True" % dn)
        for victim in victims:
            del self._entries[victim]
            index = bisect_left(self._sorted_keys, (victim.key(), victim))
            del self._sorted_keys[index]
        return len(victims)

    # -- validation ----------------------------------------------------------

    def _check_and_coerce(
        self,
        dn: DN,
        classes: frozenset,
        values: Dict[str, List[Any]],
    ) -> Dict[str, List[Any]]:
        schema = self.schema
        for class_name in classes:
            if not schema.has_class(class_name):
                raise SchemaError("undeclared class %r at %s" % (class_name, dn))
        coerced: Dict[str, List[Any]] = {}
        for attr, vals in values.items():
            if not schema.has_attribute(attr):
                raise SchemaError("undeclared attribute %r at %s" % (attr, dn))
            if not schema.attribute_allowed_for(attr, classes):
                raise SchemaError(
                    "attribute %r is not allowed by any class of %s "
                    "(Definition 3.2c-1)" % (attr, dn)
                )
            coerced[attr] = [schema.coerce_value(attr, v) for v in vals]
        return coerced

    def validate(self) -> List[str]:
        """Re-check every instance invariant; return a list of violations
        (empty when the instance is consistent)."""
        problems = []
        for entry in self:
            if not entry.rdn_consistent():
                problems.append("rdn not in val: %s" % entry.dn)
            if frozenset(entry.values(OBJECT_CLASS)) != entry.classes:
                problems.append("objectClass out of sync: %s" % entry.dn)
            try:
                self._check_and_coerce(
                    entry.dn,
                    entry.classes,
                    {
                        attr: list(entry.values(attr))
                        for attr in entry.attributes()
                        if attr != OBJECT_CLASS
                    },
                )
            except SchemaError as exc:
                problems.append(str(exc))
        return problems

    # -- lookup ----------------------------------------------------------------

    def get(self, dn: Union[DN, str]) -> Optional[Entry]:
        if isinstance(dn, str):
            dn = DN.parse(dn)
        return self._entries.get(dn)

    def __contains__(self, dn: DN) -> bool:
        return dn in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Entry]:
        """Iterate entries in reverse-dn sorted order (the canonical order
        of every list the algorithms consume)."""
        for _key, dn in self._sorted_keys:
            yield self._entries[dn]

    # -- hierarchy -----------------------------------------------------------

    def parent_of(self, entry: Entry) -> Optional[Entry]:
        dn = entry.dn
        if dn.depth() <= 1:
            return None
        return self._entries.get(dn.parent)

    def children_of(self, dn: Union[DN, str]) -> Iterator[Entry]:
        if isinstance(dn, str):
            dn = DN.parse(dn)
        for entry in self._subtree_range(dn, include_base=False):
            if dn.is_parent_of(entry.dn):
                yield entry

    def descendants_of(self, dn: Union[DN, str]) -> Iterator[Entry]:
        """All proper descendants, in sorted order."""
        if isinstance(dn, str):
            dn = DN.parse(dn)
        return self._subtree_range(dn, include_base=False)

    def subtree(self, dn: Union[DN, str]) -> Iterator[Entry]:
        """The entry at ``dn`` (if present) and all its descendants."""
        if isinstance(dn, str):
            dn = DN.parse(dn)
        return self._subtree_range(dn, include_base=True)

    def roots(self) -> Iterator[Entry]:
        """Entries with no parent present in the instance: the roots of the
        directory information forest."""
        for entry in self:
            dn = entry.dn
            if dn.depth() == 1 or dn.parent not in self._entries:
                yield entry

    def _subtree_range(self, dn: DN, include_base: bool) -> Iterator[Entry]:
        """Contiguous sorted-order scan of the subtree below ``dn``.

        Because entries are ordered by reverse-dn key, the subtree of ``dn``
        is exactly the contiguous run of keys having ``dn.key()`` as a
        prefix."""
        if dn.is_null():
            # Whole forest.
            for entry in self:
                yield entry
            return
        prefix = dn.key()
        start = bisect_left(self._sorted_keys, (prefix, dn))
        for index in range(start, len(self._sorted_keys)):
            key, entry_dn = self._sorted_keys[index]
            if key[: len(prefix)] != prefix:
                break
            if not include_base and entry_dn == dn:
                continue
            yield self._entries[entry_dn]

    def __repr__(self) -> str:
        return "DirectoryInstance(%d entries)" % len(self._entries)


def _as_values(value: Any) -> Iterable[Any]:
    """Interpret a keyword attribute: scalars become single values, lists,
    tuples and sets become multiple values."""
    if isinstance(value, (list, tuple, set, frozenset)):
        return list(value)
    return [value]
