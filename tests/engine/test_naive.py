"""Naive quadratic baselines: correct, but visibly superlinear in I/O."""

import pytest

from repro.engine.common import labeled_merge
from repro.engine.hsagg import hierarchical_select
from repro.engine.naive import naive_embedded_ref_select, naive_hierarchical_select
from repro.query.semantics import witness_set
from repro.storage.pager import Pager

from .conftest import random_sublists, sorted_run


@pytest.mark.parametrize("op", ["p", "c", "a", "d"])
def test_naive_hierarchical_correct(op):
    _instance, (first, second) = random_sublists(40, size=70)
    pager = Pager(page_size=8, buffer_pages=4)
    out = naive_hierarchical_select(
        pager, op, sorted_run(pager, first), sorted_run(pager, second)
    )
    expected = [e.dn for e in first if witness_set(op, e, second)]
    assert [e.dn for e in out.to_list()] == expected


@pytest.mark.parametrize("op", ["ac", "dc"])
def test_naive_path_constrained_correct(op):
    _instance, subsets = random_sublists(41, size=70, lists=3)
    pager = Pager(page_size=8, buffer_pages=4)
    runs = [sorted_run(pager, s) for s in subsets]
    out = naive_hierarchical_select(pager, op, runs[0], runs[1], runs[2])
    expected = [e.dn for e in subsets[0] if witness_set(op, e, subsets[1], subsets[2])]
    assert [e.dn for e in out.to_list()] == expected


@pytest.mark.parametrize("op", ["vd", "dv"])
def test_naive_embedded_correct(op):
    _instance, (first, second) = random_sublists(42, size=70)
    pager = Pager(page_size=8, buffer_pages=4)
    out = naive_embedded_ref_select(
        pager, op, sorted_run(pager, first), sorted_run(pager, second), "ref"
    )
    second_dns = {e.dn for e in second}
    expected = []
    for entry in first:
        if op == "vd":
            hit = any(v in second_dns for v in entry.values("ref"))
        else:
            hit = any(entry.dn in w.values("ref") for w in second)
        if hit:
            expected.append(entry.dn)
    assert [e.dn for e in out.to_list()] == expected


def test_naive_io_superlinear_vs_stack_linear():
    """The Section 5.3 motivation, measured: quadruple the input and the
    naive I/O grows ~16x while the stack algorithm grows ~4x."""
    def costs(n):
        _instance, (first, second) = random_sublists(50, size=n)
        pager = Pager(page_size=16, buffer_pages=4)
        first_run = sorted_run(pager, first)
        second_run = sorted_run(pager, second)
        pager.flush()
        before = pager.stats.snapshot()
        naive_hierarchical_select(pager, "a", first_run, second_run)
        naive_cost = pager.stats.since(before).logical_reads
        before = pager.stats.snapshot()
        hierarchical_select(pager, "a", labeled_merge([first_run, second_run]))
        stack_cost = pager.stats.since(before).logical_reads
        return naive_cost, stack_cost

    naive_small, stack_small = costs(400)
    naive_big, stack_big = costs(1600)
    assert naive_big > 8 * naive_small        # quadratic-ish growth
    assert stack_big < 8 * stack_small        # linear-ish growth
    assert naive_big > 10 * stack_big         # and the gap is wide
