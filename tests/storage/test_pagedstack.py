"""The spilling stack: LIFO correctness and amortised I/O."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.storage.pagedstack import PagedStack
from repro.storage.pager import Pager


class TestBasics:
    def test_lifo(self):
        stack = PagedStack(Pager(page_size=2, buffer_pages=2))
        for i in range(5):
            stack.push(i)
        assert [stack.pop() for _ in range(5)] == [4, 3, 2, 1, 0]

    def test_peek(self):
        stack = PagedStack(Pager())
        assert stack.peek() is None
        stack.push("a")
        assert stack.peek() == "a"
        assert len(stack) == 1

    def test_pop_empty(self):
        with pytest.raises(IndexError):
            PagedStack(Pager()).pop()

    def test_clear(self):
        stack = PagedStack(Pager())
        stack.push(1)
        stack.clear()
        assert stack.is_empty() and stack.peek() is None
        with pytest.raises(IndexError):
            stack.pop()

    def test_clear_after_spill_frees_pages_unread(self):
        pager = Pager(page_size=2, buffer_pages=2)
        live = pager.live_pages
        stack = PagedStack(pager)
        for i in range(10):
            stack.push(i)
        assert pager.live_pages > live
        before = pager.stats.snapshot()
        stack.clear()
        assert pager.live_pages == live
        assert pager.stats.since(before).logical_reads == 0
        stack.push("again")
        assert stack.pop() == "again"

    def test_max_depth(self):
        stack = PagedStack(Pager())
        for i in range(7):
            stack.push(i)
        stack.pop()
        assert stack.max_depth == 7


@given(st.lists(st.sampled_from(["push", "pop"]), max_size=200), st.integers(1, 4))
def test_matches_python_list(ops, page_size):
    pager = Pager(page_size=page_size, buffer_pages=2)
    stack = PagedStack(pager)
    model = []
    counter = 0
    for op in ops:
        if op == "push":
            stack.push(counter)
            model.append(counter)
            counter += 1
        else:
            if model:
                assert stack.pop() == model.pop()
            else:
                with pytest.raises(IndexError):
                    stack.pop()
        assert len(stack) == len(model)
        assert stack.peek() == (model[-1] if model else None)


def test_amortised_io_linear_in_ops_over_b():
    """The Theorem 5.1 ingredient: N pushes + N pops cost O(N/B) transfers,
    even for the adversarial grow-shrink pattern."""
    page_size = 16
    pager = Pager(page_size=page_size, buffer_pages=2)
    stack = PagedStack(pager)
    rng = random.Random(5)
    operations = 20_000
    depth = 0
    before = pager.stats.snapshot()
    for _ in range(operations):
        if depth == 0 or rng.random() < 0.55:
            stack.push(depth)
            depth += 1
        else:
            stack.pop()
            depth -= 1
    delta = pager.stats.since(before)
    # Hysteresis bound: < 2 transfers per B operations, with slack 3x.
    assert delta.total <= 3 * operations / page_size


def test_boundary_thrash_resistant():
    """Alternating push/pop exactly at a page boundary must not transfer a
    page per operation (the naive single-buffer scheme does)."""
    page_size = 8
    pager = Pager(page_size=page_size, buffer_pages=2)
    stack = PagedStack(pager)
    for i in range(2 * page_size - 1):  # just below the spill threshold
        stack.push(i)
    before = pager.stats.snapshot()
    for _ in range(1000):
        stack.push("x")
        stack.pop()
    assert pager.stats.since(before).total <= 1000 / page_size + 4
