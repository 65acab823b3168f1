"""The generalised stack pass: annotations vs definitional witness sets."""

import pytest

from repro.engine.common import labeled_merge
from repro.engine.hsagg import hierarchical_select
from repro.engine.merge import boolean_merge
from repro.engine.stackjoin import hierarchical_annotate
from repro.query.aggregates import EntryAggregate
from repro.query.ast import HierarchySelect, QueryError
from repro.query.parser import parse_aggsel, parse_query
from repro.query.semantics import witness_set
from repro.storage.pager import Pager

from .conftest import random_sublists, sorted_run

COUNT = EntryAggregate("count", "$2", None)
SUM_WEIGHT = EntryAggregate("sum", "$2", "weight")
MIN_WEIGHT = EntryAggregate("min", "$2", "weight")


def annotate(op, seed, terms, size=90):
    lists = 3 if op in ("ac", "dc") else 2
    _instance, subsets = random_sublists(seed, size=size, lists=lists)
    pager = Pager(page_size=8, buffer_pages=6)
    runs = [sorted_run(pager, subset) for subset in subsets]
    annotated = hierarchical_annotate(pager, op, labeled_merge(runs), terms)
    return subsets, annotated.to_list()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("op", ["p", "c", "a", "d", "ac", "dc"])
def test_count_matches_witness_sets(op, seed):
    subsets, annotated = annotate(op, seed, [COUNT])
    first, second = subsets[0], subsets[1]
    third = subsets[2] if len(subsets) == 3 else None
    assert [entry.dn for entry, _ in annotated] == [e.dn for e in first]
    for entry, (count,) in annotated:
        expected = len(witness_set(op, entry, second, third))
        assert count == expected, "%s at %s" % (op, entry.dn)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("op", ["c", "d", "a", "p", "ac", "dc"])
def test_attribute_aggregates_match(op, seed):
    subsets, annotated = annotate(op, seed, [SUM_WEIGHT, MIN_WEIGHT, COUNT])
    second = subsets[1]
    third = subsets[2] if len(subsets) == 3 else None
    for entry, (total, minimum, count) in annotated:
        witnesses = witness_set(op, entry, second, third)
        values = [v for w in witnesses for v in w.values("weight")]
        assert count == len(witnesses)
        assert total == sum(values)
        assert minimum == (min(values) if values else None)


def test_output_sorted_and_complete():
    subsets, annotated = annotate("d", 11, [COUNT], size=200)
    keys = [entry.dn.key() for entry, _ in annotated]
    assert keys == sorted(keys)
    assert len(annotated) == len(subsets[0])


def test_arity_validation(pager):
    """The pass reads one labelled stream, so the operand count is checked
    where the operands are known -- the query node -- and the pass checks
    the operator."""
    a = parse_query("( ? sub ? kind=alpha)")
    with pytest.raises(QueryError):
        HierarchySelect("p", a, a, a)
    with pytest.raises(QueryError):
        HierarchySelect("ac", a, a)
    run = sorted_run(pager, [])
    with pytest.raises(ValueError):
        hierarchical_annotate(pager, "zz", labeled_merge([run, run]))
    with pytest.raises(ValueError):
        hierarchical_select(pager, "zz", labeled_merge([run, run]))


def test_linear_io_with_tiny_pool():
    """The stack pass completes in a 3-page pool with linear I/O, and
    without an entry-set aggregate it writes no annotated run: what it
    writes is the result and the deferred survivors of its spill lists."""
    _instance, (first, second) = random_sublists(2, size=3000)
    pager = Pager(page_size=16, buffer_pages=3)
    first_run = sorted_run(pager, first)
    second_run = sorted_run(pager, second)
    pager.flush()
    before = pager.stats.snapshot()
    annotated = hierarchical_annotate(pager, "d", labeled_merge([first_run, second_run]), [COUNT])
    delta = pager.stats.since(before)
    input_pages = first_run.page_count + second_run.page_count
    # Inputs once, annotated output written (plus spill-list page traffic,
    # each output record rides a spill page at most once in and once out).
    assert delta.total <= 3 * (input_pages + 2 * annotated.page_count) + 8
    annotated.free()

    for agg in (None, parse_aggsel("count($2) > 1")):
        before = pager.stats.snapshot()
        result = hierarchical_select(pager, "d", labeled_merge([first_run, second_run]), agg)
        delta = pager.stats.since(before)
        assert len(result) < len(first)
        # Every page written is a result page or holds deferred survivors,
        # each of which rides a spill page at most once.
        assert delta.logical_writes <= 2 * result.page_count + 8
        assert delta.logical_writes < annotated.page_count
        assert delta.total <= 3 * (input_pages + 2 * result.page_count) + 8
        result.free()


def _copies(entries, mark):
    """Distinct objects for the same dns, differing in one attribute value."""
    return [entry.with_values(tag=[mark]) for entry in entries]


@pytest.mark.parametrize("seed", range(3))
def test_every_operator_returns_the_first_operands_copies(seed, repeat_step):
    """A dn several operands hold is answered with the *first* operand's
    copy -- "returns the selected entries of ``first``" -- by every
    operator over the one labelled merge, boolean ones included."""
    seed += 40 + 1000 * repeat_step
    instance, subsets = random_sublists(seed, size=70, lists=3)
    core = list(instance)[::2]  # every operand holds these dns
    pager = Pager(page_size=4, buffer_pages=6)
    copies = [_copies(set(subset) | set(core), "run%d" % (index + 1))
              for index, subset in enumerate(subsets)]
    first, second, third = (sorted_run(pager, copy) for copy in copies)
    own = [{id(entry) for entry in copy} for copy in copies]
    returned = 0
    for op in ("p", "c", "a", "d", "ac", "dc"):
        operands = [first, second, third] if op in ("ac", "dc") else [first, second]
        out = hierarchical_select(pager, op, labeled_merge(operands)).to_list()
        assert all(id(entry) in own[0] for entry in out), op
        returned += len(out)
    assert returned
    first_dns = {e.dn for e in copies[0]}
    for op in ("and", "or", "diff"):
        for entry in boolean_merge(pager, op, first, second).to_list():
            # the second operand's copy only where the first has none
            holder = own[0] if entry.dn in first_dns else own[1]
            assert id(entry) in holder, op

    for entry, label in labeled_merge([first, second, third]):
        lowest = (label & -label).bit_length()  # the lowest run holding it
        assert id(entry) in own[lowest - 1]
        assert entry.values("tag")[-1] == "run%d" % lowest
