"""The secondary index over string keys: equality, prefix, wildcard, presence."""

import re
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.engine.atomic import index_path
from repro.filters.ast import Equality, Presence, Substring
from repro.storage.index import AttributeIndex
from repro.storage.pager import Pager


def build(pairs, page_size=4):
    pager = Pager(page_size=page_size, buffer_pages=4)
    return AttributeIndex(pager, "string", pairs), pager


def lookup(index, filter_):
    """Positions the access path reads from ``index`` for a filter on it."""
    store = SimpleNamespace(indices={"a": index})
    return list(index_path(store, filter_)[1])


def lookup_eq(index, value):
    return lookup(index, Equality("a", value))


def lookup_pattern(index, pattern):
    return lookup(index, Substring("a", pattern))


PAIRS = [
    ("alpha", 0), ("alpha", 3), ("beta", 1), ("beetle", 2),
    ("gamma", 4), ("alphabet", 5), ("zed", 6),
]


class TestLookups:
    def test_eq(self):
        index, _ = build(PAIRS)
        assert sorted(lookup_eq(index, "alpha")) == [0, 3]
        assert lookup_eq(index, "nope") == []

    def test_prefix(self):
        index, _ = build(PAIRS)
        assert sorted(lookup_pattern(index, "alpha*")) == [0, 3, 5]
        assert sorted(lookup_pattern(index, "be*")) == [1, 2]

    def test_pattern(self):
        index, _ = build(PAIRS)
        assert sorted(lookup_pattern(index, "*et*")) == [1, 2, 5]  # beta, beetle, alphabet
        assert sorted(lookup_pattern(index, "a*a")) == [0, 3]
        assert sorted(lookup_pattern(index, "be*")) == [1, 2]

    def test_presence(self):
        index, _ = build(PAIRS)
        assert sorted(lookup(index, Presence("a"))) == [0, 1, 2, 3, 4, 5, 6]

    def test_empty_index(self):
        index, _ = build([])
        assert lookup_eq(index, "x") == []
        assert lookup_pattern(index, "*x*") == []
        assert lookup(index, Presence("a")) == []

    def test_prefix_pattern_narrows_scan(self):
        pairs = [("k%04d" % i, i) for i in range(400)]
        index, pager = build(pairs, page_size=8)
        pager.flush()
        before = pager.stats.snapshot()
        assert sorted(lookup_pattern(index, "k000*")) == list(range(10))
        assert pager.stats.since(before).logical_reads <= 4


def test_duplicate_values_spanning_page_boundaries():
    """Regression: equal values crossing index-page boundaries must all be
    found by an equality lookup (bisect_left, not bisect_right)."""
    pairs = [("dup", i) for i in range(20)] + [("zzz", 99)]
    index, _ = build(pairs, page_size=4)
    assert sorted(lookup_eq(index, "dup")) == list(range(20))
    assert lookup_eq(index, "zzz") == [99]


@given(
    st.lists(
        st.tuples(st.text(alphabet="abc", min_size=0, max_size=4), st.integers(0, 99)),
        max_size=60,
    ),
    st.text(alphabet="abc*", min_size=1, max_size=5),
)
@settings(max_examples=50)
def test_pattern_matches_bruteforce(pairs, pattern):
    if "*" not in pattern:
        pattern += "*"
    index, _ = build(pairs)
    regex = re.compile(
        "^%s$" % "".join(".*" if c == "*" else re.escape(c) for c in pattern)
    )
    expected = sorted(pos for value, pos in pairs if regex.match(value))
    assert sorted(lookup_pattern(index, pattern)) == expected
