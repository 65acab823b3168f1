"""The secondary attribute index: sorted (key, position) pairs on the device.

Section 4.1 assumes atomic queries "can be evaluated with the help of
B-tree indices for integer and distinguishedName filters, and trie and
suffix tree indices for string filters".  One structure stands in for all
of them (see DESIGN.md): the pairs, sorted by key, are chunked into pages
on the simulated device -- every page visited costs a page read -- and the
first key of each page stays in memory, mirroring the standard assumption
that a B-tree's internal nodes are resident.  The theorems charge atomic
evaluation by its output size, so what matters is that a lookup reads only
the pages its key range spans: ``t/B`` for the ``t`` pairs of an equality,
comparison or literal-prefix range, ``V/B`` (all ``V`` pairs, never the
data pages) for presence and leading-wildcard patterns.

The key domain is the schema's type of the indexed attribute, tau(a):
ints for ``int``, canonical dn strings for ``distinguishedName``, strings
for everything else.  Payloads are master-run positions.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable, Iterator, List, Optional, Tuple, Union

from ..model.dn import DN
from .pager import Pager

__all__ = ["AttributeIndex"]

Key = Union[int, str]


class AttributeIndex:
    """Read-only index of one attribute: ``postings`` are the (attribute
    value, master position) pairs of every entry holding it; ``type_name``
    is the schema's type of the attribute and fixes the key domain."""

    def __init__(
        self, pager: Pager, type_name: str, postings: Iterable[Tuple[Any, int]]
    ):
        self.pager = pager
        self.type_name = type_name
        if type_name == "int":
            pairs = sorted(
                (value, position)
                for value, position in postings
                if isinstance(value, int) and not isinstance(value, bool)
            )
        else:  # a stored dn's string form is canonical
            pairs = sorted((str(value), position) for value, position in postings)
        self._length = len(pairs)
        self._page_ids: List[int] = []
        self._page_first_keys: List[Key] = []
        size = pager.page_size
        for start in range(0, len(pairs), size):
            chunk = pairs[start : start + size]
            self._page_ids.append(pager.append_page(chunk))
            self._page_first_keys.append(chunk[0][0])

    def key(self, value: Any) -> Key:
        """The key a filter's value names, compared on the value domain
        the way ``filters/ast.py`` compares it (``weight=069`` names 69, a
        dn in any spelling names its canonical form).  Raises
        ``TypeError``/``ValueError`` (``DNSyntaxError`` is one) for a
        value outside the domain: it equals no key."""
        if self.type_name == "int":
            return int(value)
        if self.type_name == "distinguishedName" and not isinstance(value, DN):
            return str(DN.parse(str(value)))
        return str(value)

    def scan(
        self, low: Optional[Key] = None, high: Optional[Key] = None
    ) -> Iterator[Tuple[Key, int]]:
        """The (key, position) pairs with ``low <= key <= high`` in key
        order (``None`` leaves that end open), reading only the pages that
        can hold them."""
        first_keys = self._page_first_keys
        start = 0
        if low is not None:
            # bisect_left: duplicates of ``low`` may span page boundaries,
            # so start at the last page whose first key is strictly below.
            start = max(0, bisect_left(first_keys, low) - 1)
        for page_index in range(start, len(first_keys)):
            if high is not None and first_keys[page_index] > high:
                break
            for pair in self.pager.read(self._page_ids[page_index]):
                if low is not None and pair[0] < low:
                    continue
                if high is not None and pair[0] > high:
                    return
                yield pair

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        return "AttributeIndex(%s, %d pairs, %d pages)" % (
            self.type_name, self._length, len(self._page_ids),
        )
