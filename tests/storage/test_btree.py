"""The secondary index over int keys: point and range queries vs brute force."""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.engine.atomic import index_path
from repro.filters.ast import Comparison
from repro.storage.index import AttributeIndex
from repro.storage.pager import Pager


def build(pairs, page_size=4):
    pager = Pager(page_size=page_size, buffer_pages=4)
    return AttributeIndex(pager, "int", pairs), pager


def positions(pairs):
    return [position for _key, position in pairs]


def search(tree, key):
    return positions(tree.scan(key, key))


def compare(tree, op, bound):
    """Positions the access path reads for ``a OP bound`` (strict bounds
    are the decision function's, not the index's)."""
    store = SimpleNamespace(indices={"a": tree})
    return list(index_path(store, Comparison("a", op, bound))[1])


class TestBasics:
    def test_empty(self):
        tree, _ = build([])
        assert search(tree, 5) == []
        assert list(tree.scan()) == []

    def test_point(self):
        tree, _ = build([(i, i * 10) for i in range(20)])
        assert search(tree, 7) == [70]
        assert search(tree, 99) == []

    def test_duplicate_keys(self):
        tree, _ = build([(5, 1), (5, 2), (5, 3), (6, 4)])
        assert sorted(search(tree, 5)) == [1, 2, 3]

    def test_open_ranges(self):
        tree, _ = build([(i, i) for i in range(10)])
        assert positions(tree.scan(None, 3)) == [0, 1, 2, 3]
        assert positions(tree.scan(7, None)) == [7, 8, 9]
        assert compare(tree, "<=", 3) == [0, 1, 2, 3]
        assert compare(tree, "<", 3) == [0, 1, 2]
        assert compare(tree, ">", 7) == [8, 9]
        assert compare(tree, ">=", 7) == [7, 8, 9]

    def test_range_reads_only_needed_leaves(self):
        tree, pager = build([(i, i) for i in range(400)], page_size=8)
        pager.flush()
        before = pager.stats.snapshot()
        result = positions(tree.scan(100, 115))
        assert result == list(range(100, 116))
        # 16 results over 8-per-page leaves: at most 4 leaf reads.
        assert pager.stats.since(before).logical_reads <= 4

    def test_non_int_values_are_not_indexed(self):
        tree, _ = build([(1, 0), (True, 1), ("2", 2), (3, 3)])
        assert positions(tree.scan()) == [0, 3]


def test_duplicate_keys_spanning_leaf_boundaries():
    """Regression: with many equal keys crossing page boundaries the scan
    must start at the first leaf that can hold the key, not the last
    (bisect_left, not bisect_right)."""
    pairs = [(5, i) for i in range(20)] + [(7, 100 + i) for i in range(20)]
    tree, _ = build(pairs, page_size=4)  # keys 5 and 7 each span 5 leaves
    assert sorted(search(tree, 5)) == list(range(20))
    assert sorted(search(tree, 7)) == list(range(100, 120))
    assert sorted(positions(tree.scan(5, 7))) == sorted(
        list(range(20)) + list(range(100, 120))
    )


@given(
    st.lists(st.tuples(st.integers(0, 50), st.integers(0, 1000)), max_size=100),
    st.integers(0, 50),
    st.integers(0, 50),
)
@settings(max_examples=50)
def test_range_matches_bruteforce(pairs, low, high):
    tree, _ = build(pairs)
    got = sorted(positions(tree.scan(min(low, high), max(low, high))))
    expected = sorted(
        value for key, value in pairs if min(low, high) <= key <= max(low, high)
    )
    assert got == expected
