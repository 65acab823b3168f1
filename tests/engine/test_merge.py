"""Boolean operators on sorted runs (Section 4.2)."""

import pytest

from repro.engine.common import labeled_merge
from repro.engine.merge import boolean_merge
from repro.storage.pager import Pager

from .conftest import random_sublists, sorted_run


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("op", ["and", "or", "diff"])
def test_matches_set_semantics(seed, op):
    _instance, (left, right) = random_sublists(seed, size=80)
    pager = Pager(page_size=8, buffer_pages=6)
    result = boolean_merge(
        pager, op, labeled_merge((sorted_run(pager, left), sorted_run(pager, right)))
    )
    left_dns = {e.dn for e in left}
    right_dns = {e.dn for e in right}
    if op == "and":
        expected = left_dns & right_dns
    elif op == "or":
        expected = left_dns | right_dns
    else:
        expected = left_dns - right_dns
    got = [e.dn for e in result.to_list()]
    assert set(got) == expected
    assert got == sorted(got, key=lambda dn: dn.key())  # output stays sorted
    assert len(got) == len(set(got))  # no duplicates


def test_empty_operands():
    pager = Pager()
    empty = sorted_run(pager, [])
    also_empty = sorted_run(pager, [])
    for op in ("and", "or", "diff"):
        assert boolean_merge(pager, op, labeled_merge((empty, also_empty))).to_list() == []


def test_unknown_op():
    pager = Pager()
    run = sorted_run(pager, [])
    with pytest.raises(ValueError):
        boolean_merge(pager, "xor", labeled_merge((run, run)))


def test_linear_io():
    """One co-scan: I/O proportional to |L1|/B + |L2|/B + |out|/B."""
    _instance, (left, right) = random_sublists(3, size=2000)
    pager = Pager(page_size=16, buffer_pages=4)
    left_run = sorted_run(pager, left)
    right_run = sorted_run(pager, right)
    pager.flush()
    before = pager.stats.snapshot()
    result = boolean_merge(pager, "or", labeled_merge((left_run, right_run)))
    delta = pager.stats.since(before)
    input_pages = left_run.page_count + right_run.page_count
    assert delta.logical_reads <= input_pages + 2
    assert delta.logical_writes <= result.page_count + 2


#: Section 4.2's table: the labels each operator keeps, as membership
#: masks ({1} = 1, {2} = 2, {1, 2} = 3).
LABEL_TABLE = {"and": [3], "or": [3, 1, 2], "diff": [1]}


@pytest.mark.parametrize("page_size", [2, 4, 16])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("op", ["and", "or", "diff"])
def test_is_the_label_table_over_the_one_merge(op, seed, page_size, repeat_step):
    """``boolean_merge`` == set semantics == ``labeled_merge`` filtered by
    the operator's labels (same objects, same order), at exactly one read
    per input page and one write per output page."""
    seed += 1000 * repeat_step
    _instance, (left, right) = random_sublists(seed, size=90)
    pager = Pager(page_size=page_size, buffer_pages=4)
    left_run = sorted_run(pager, left)
    right_run = sorted_run(pager, right)
    pager.flush()
    live = pager.live_pages
    before = pager.stats.snapshot()
    result = boolean_merge(pager, op, labeled_merge((left_run, right_run)))
    delta = pager.stats.since(before)
    assert delta.logical_reads == left_run.page_count + right_run.page_count, seed
    assert delta.logical_writes == -(-len(result) // page_size), seed
    assert delta.logical_writes == result.page_count
    assert pager.live_pages == live + result.page_count

    got = result.to_list()
    left_dns = {e.dn for e in left}
    right_dns = {e.dn for e in right}
    expected = {
        "and": left_dns & right_dns,
        "or": left_dns | right_dns,
        "diff": left_dns - right_dns,
    }[op]
    assert [e.dn for e in got] == sorted(expected, key=lambda dn: dn.key()), seed
    streamed = [
        entry
        for entry, label in labeled_merge([left_run, right_run])
        if label in LABEL_TABLE[op]
    ]
    assert [id(e) for e in got] == [id(e) for e in streamed], seed
