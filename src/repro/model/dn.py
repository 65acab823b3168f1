"""Distinguished names (DNs) and relative distinguished names (RDNs).

The paper (Definition 3.2) models the distinguished name of a directory
entry as a *sequence of sets* of (attribute, value) pairs, written leaf
first: ``dn(r) = s1; ...; sn`` where ``s1`` is the relative distinguished
name of ``r`` and ``s2; ...; sn`` is the dn of the parent of ``r``.  This
module implements that algebra:

- :class:`RDN` -- one set of (attribute, value) pairs;
- :class:`DN` -- a sequence of RDNs, leaf first, with parent / ancestor
  tests and the *reverse lexicographic sort key* that every external-memory
  algorithm in the paper relies on (Section 4.2).

The paper sorts entry lists "by the lexicographic ordering on the reverse of
the string representation of the distinguished names", so that the reverse
dn of a parent is a prefix of the reverse dn of each of its children.  We
implement the same order as a tuple of canonical RDN strings from the root
down (:meth:`DN.key`): a parent's key is a proper prefix of a child's key,
and all keys of a subtree are contiguous in sorted order.  This is exactly
the property the stack algorithms need, and unlike literal character-level
string reversal it is robust to RDN values that contain the separator.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

__all__ = [
    "AVA",
    "RDN",
    "DN",
    "ROOT_DN",
    "DNSyntaxError",
    "escape_value",
    "subtree_upper_bound",
    "unescape_value",
]

#: An attribute-value assertion: one (attribute name, value) pair.
AVA = Tuple[str, str]

# Characters that must be escaped inside RDN attribute values (a pragmatic
# subset of RFC 2253).
_SPECIAL = frozenset(",+=\\;")


class DNSyntaxError(ValueError):
    """Raised when a DN or RDN string cannot be parsed."""


class _AboveEveryRDN:
    """A key component that sorts above every canonical RDN string."""

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is self

    def __gt__(self, other) -> bool:
        return other is not self

    def __ge__(self, other) -> bool:
        return True

    def __repr__(self) -> str:
        return "<above every RDN>"


_ABOVE_EVERY_RDN = _AboveEveryRDN()


def subtree_upper_bound(key: tuple) -> tuple:
    """The key successor of a subtree: for a reverse-dn ``key`` (see
    :meth:`DN.key`), a bound ``u`` such that ``key <= k < u`` holds exactly
    for the keys ``k`` that have ``key`` as a prefix.  Sorted key lists
    are cut to one subtree with two bisections, ``key`` and this; no
    sibling whose RDN string merely *extends* the root's (``ou=a`` /
    ``ou=ab``) and no character above the BMP falls inside."""
    return key + (_ABOVE_EVERY_RDN,)


def escape_value(value: str) -> str:
    """Escape the RDN-special characters in an attribute value, and every
    leading or trailing character that ``str.strip()`` would remove (so
    parsing, which strips unescaped whitespace, gives the value back)."""
    if _SPECIAL.isdisjoint(value) and value == value.strip():
        return value
    lead = len(value) - len(value.lstrip())
    tail = len(value.rstrip())
    out = []
    for i, ch in enumerate(value):
        if ch in _SPECIAL or i < lead or i >= tail:
            out.append("\\")
        out.append(ch)
    return "".join(out)


def unescape_value(value: str) -> str:
    """Reverse :func:`escape_value`."""
    if "\\" not in value:
        return value
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\":
            if i + 1 >= len(value):
                raise DNSyntaxError("dangling escape in %r" % value)
            out.append(value[i + 1])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _strip_unescaped(text: str) -> str:
    """``text.strip()``, except that a whitespace character escaped by a
    ``\\`` stays: it belongs to the value."""
    stripped = text.strip()
    backslashes = len(stripped) - len(stripped.rstrip("\\"))
    if backslashes % 2:
        # The last backslash escapes the character strip() removed after it.
        start = len(text) - len(text.lstrip())
        return text[start : start + len(stripped) + 1]
    return stripped


def _split_escaped(text: str, sep: str) -> Iterator[str]:
    """Split ``text`` on every occurrence of ``sep`` not preceded by ``\\``
    (the escape-aware character loop behind :func:`_split_unescaped`)."""
    part = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            part.append(ch)
            part.append(text[i + 1])
            i += 2
            continue
        if ch == sep:
            yield "".join(part)
            part = []
        else:
            part.append(ch)
        i += 1
    yield "".join(part)


def _split_unescaped(text: str, sep: str) -> List[str]:
    """Split ``text`` on every occurrence of ``sep`` not preceded by ``\\``;
    text with nothing escaped is a plain ``str.split``."""
    if "\\" not in text:
        return text.split(sep)
    return list(_split_escaped(text, sep))


@total_ordering
class RDN:
    """A relative distinguished name: a non-empty set of (attribute, value)
    pairs that distinguishes an entry among its siblings.

    The paper allows an arbitrary *set* of pairs (unlike UNIX file names,
    which use a single name attribute).  RDNs are immutable and hashable.
    """

    __slots__ = ("_avas", "_canonical")

    def __init__(self, avas: Iterable[AVA]):
        pairs = []
        for attr, value in avas:
            if not attr:
                raise DNSyntaxError("empty attribute name in RDN")
            pairs.append((attr, str(value)))
        if not pairs:
            raise DNSyntaxError("an RDN must contain at least one pair")
        self._avas = frozenset(pairs)
        # Canonical form: pairs sorted, '+'-joined, values escaped.  Used
        # both for display and as the unit of the DN sort key.
        self._canonical = "+".join(
            "%s=%s" % (attr, escape_value(value))
            for attr, value in sorted(self._avas)
        )

    @classmethod
    def single(cls, attr: str, value: str) -> "RDN":
        """Build the common single-pair RDN, e.g. ``RDN.single('dc', 'com')``."""
        if not attr:
            raise DNSyntaxError("empty attribute name in RDN")
        return cls._pair(attr, str(value))

    @classmethod
    def _pair(cls, attr: str, value: str) -> "RDN":
        """The single-pair RDN, built without the generic sort and join."""
        rdn = cls.__new__(cls)
        rdn._avas = frozenset(((attr, value),))
        rdn._canonical = "%s=%s" % (attr, escape_value(value))
        return rdn

    @classmethod
    def parse(cls, text: str) -> "RDN":
        """Parse ``attr=value`` or multi-valued ``a=v+b=w`` RDN syntax."""
        if "\\" in text or "+" in text or text.count("=") != 1:
            return cls._parse_escaped(text)
        # One pair and nothing escaped: no character loop.
        attr, _, value = text.partition("=")
        attr = attr.strip()
        if not attr:
            raise DNSyntaxError("empty attribute name in %r" % text.strip())
        return cls._pair(attr, value.strip())

    @classmethod
    def _parse_escaped(cls, text: str) -> "RDN":
        """The general parse behind :meth:`parse`: any number of pairs,
        ``\\`` escapes honoured, escaped whitespace kept."""
        avas = []
        for part in _split_unescaped(text, "+"):
            part = _strip_unescaped(part)
            if not part:
                raise DNSyntaxError("empty AVA in RDN %r" % text)
            pieces = _split_unescaped(part, "=")
            if len(pieces) != 2:
                raise DNSyntaxError("malformed AVA %r (expected attr=value)" % part)
            attr, value = pieces
            attr = attr.strip()
            if not attr:
                raise DNSyntaxError("empty attribute name in %r" % part)
            avas.append((attr, unescape_value(_strip_unescaped(value))))
        return cls(avas)

    @property
    def avas(self) -> frozenset:
        """The frozenset of (attribute, value) pairs."""
        return self._avas

    def canonical(self) -> str:
        """Canonical string form (sorted pairs, escaped values)."""
        return self._canonical

    def attributes(self) -> Iterator[str]:
        """Iterate the attribute names used by this RDN."""
        for attr, _value in self._avas:
            yield attr

    def __contains__(self, ava: AVA) -> bool:
        return ava in self._avas

    def __iter__(self) -> Iterator[AVA]:
        return iter(sorted(self._avas))

    def __len__(self) -> int:
        return len(self._avas)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RDN):
            return NotImplemented
        return self._avas == other._avas

    def __lt__(self, other: "RDN") -> bool:
        if not isinstance(other, RDN):
            return NotImplemented
        return self._canonical < other._canonical

    def __hash__(self) -> int:
        return hash(self._avas)

    def __str__(self) -> str:
        return self._canonical

    def __repr__(self) -> str:
        return "RDN(%r)" % self._canonical


@total_ordering
class DN:
    """A distinguished name: a sequence of RDNs, **leaf first** (as in the
    paper and in LDAP's string representation).

    ``DN(())`` is the *null dn* -- the conceptual parent of every forest
    root; the paper uses it as the base of whole-instance atomic queries
    (Section 8.1).  It is exported as :data:`ROOT_DN`.
    """

    __slots__ = ("_rdns", "_key", "_hash")

    def __init__(self, rdns: Sequence[RDN] = ()):
        self._rdns = tuple(rdns)
        # Root-first tuple of canonical RDN strings: the reverse-dn sort key.
        self._key = tuple([rdn._canonical for rdn in self._rdns[::-1]])
        self._hash = hash(self._key)

    # -- construction -----------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "DN":
        """Parse the LDAP-style string form, e.g.
        ``"dc=research, dc=att, dc=com"`` (leaf first)."""
        if not text.strip():
            return ROOT_DN
        # Each RDN strips its own whitespace, so an escaped trailing space
        # of the last value survives.
        return cls([RDN.parse(part) for part in _split_unescaped(text, ",")])

    @classmethod
    def of(cls, *components: Union[str, RDN]) -> "DN":
        """Build a DN from leaf-first components, each a string like
        ``"dc=com"`` or an :class:`RDN`."""
        rdns = [
            comp if isinstance(comp, RDN) else RDN.parse(comp)
            for comp in components
        ]
        return cls(rdns)

    def child(self, rdn: Union[str, RDN]) -> "DN":
        """The DN of a child of this entry with the given RDN."""
        if isinstance(rdn, str):
            rdn = RDN.parse(rdn)
        return DN((rdn,) + self._rdns)

    # -- structure --------------------------------------------------------

    @property
    def rdns(self) -> Tuple[RDN, ...]:
        """Leaf-first tuple of RDNs."""
        return self._rdns

    @property
    def rdn(self) -> RDN:
        """The relative distinguished name (the first set in the sequence)."""
        if not self._rdns:
            raise ValueError("the null dn has no RDN")
        return self._rdns[0]

    @property
    def parent(self) -> "DN":
        """The DN with the leading RDN removed.  The parent of a depth-1 DN
        is the null dn."""
        if not self._rdns:
            raise ValueError("the null dn has no parent")
        return DN(self._rdns[1:])

    def depth(self) -> int:
        """Number of RDN components (0 for the null dn)."""
        return len(self._rdns)

    def is_null(self) -> bool:
        return not self._rdns

    def ancestors(self) -> Iterator["DN"]:
        """Proper ancestors, nearest first, excluding the null dn."""
        for i in range(1, len(self._rdns)):
            yield DN(self._rdns[i:])

    # -- hierarchy tests --------------------------------------------------

    def key(self) -> Tuple[str, ...]:
        """The reverse-dn sort key: canonical RDN strings, root first.

        Sorting entry lists by this key realises the paper's "lexicographic
        ordering on the reverse of the string representation of the dn":
        a parent's key is a proper prefix of each child's key, and every
        subtree occupies a contiguous range.
        """
        return self._key

    def is_parent_of(self, other: "DN") -> bool:
        """True iff ``other``'s dn is ``rdn(other); self`` (Definition 3.2a)."""
        return other.depth() == self.depth() + 1 and self.is_prefix_of(other)

    def is_child_of(self, other: "DN") -> bool:
        return other.is_parent_of(self)

    def is_ancestor_of(self, other: "DN") -> bool:
        """True iff ``self`` is a *proper* ancestor of ``other``
        (Definition 3.2b).  The null dn is an ancestor of every non-null dn."""
        return other.depth() > self.depth() and self.is_prefix_of(other)

    def is_descendant_of(self, other: "DN") -> bool:
        return other.is_ancestor_of(self)

    def is_prefix_of(self, other: "DN") -> bool:
        """True iff this dn's key is a (not necessarily proper) prefix of
        ``other``'s key -- i.e. ``self == other`` or ``self`` is an ancestor."""
        if len(self._key) > len(other._key):
            return False
        return other._key[: len(self._key)] == self._key

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DN):
            return NotImplemented
        return self._key == other._key

    def __lt__(self, other: "DN") -> bool:
        if not isinstance(other, DN):
            return NotImplemented
        return self._key < other._key

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._rdns)

    def __str__(self) -> str:
        return ", ".join(rdn.canonical() for rdn in self._rdns)

    def __repr__(self) -> str:
        return "DN(%r)" % str(self)


#: The null dn: parent of all forest roots; base of whole-instance queries.
ROOT_DN = DN(())
