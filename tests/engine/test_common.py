"""Unit tests for the shared operator machinery: labelled merge, spill
lists and term resolution."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.common import (
    SpillList,
    WitnessFold,
    labeled_merge,
    witness_terms_of,
)
from repro.query.aggregates import AggSelFilter, Constant, EntryAggregate, EntrySetAggregate
from repro.storage.pager import Pager
from repro.storage.runs import RunWriter, run_from_iterable

from .conftest import random_sublists, sorted_run


class TestLabeledMerge:
    def test_labels_reflect_membership(self):
        _instance, (first, second) = random_sublists(3, size=60)
        pager = Pager(page_size=8, buffer_pages=6)
        runs = [sorted_run(pager, first), sorted_run(pager, second)]
        first_dns = {e.dn for e in first}
        second_dns = {e.dn for e in second}
        seen = set()
        previous_key = None
        for entry, label in labeled_merge(runs):
            assert bool(label & 1) == (entry.dn in first_dns)
            assert bool(label & 2) == (entry.dn in second_dns)
            assert entry.dn not in seen  # each dn exactly once
            seen.add(entry.dn)
            if previous_key is not None:
                assert previous_key < entry.dn.key()  # strictly increasing
            previous_key = entry.dn.key()
        assert seen == first_dns | second_dns

    def test_three_runs(self):
        _instance, subsets = random_sublists(4, size=40, lists=3)
        pager = Pager(page_size=8, buffer_pages=6)
        runs = [sorted_run(pager, s) for s in subsets]
        for entry, label in labeled_merge(runs):
            for index, subset in enumerate(subsets):
                assert (bool(label >> index & 1)
                        == (entry.dn in {e.dn for e in subset}))

    def test_empty_runs(self):
        pager = Pager()
        runs = [sorted_run(pager, []), sorted_run(pager, [])]
        assert list(labeled_merge(runs)) == []


class TestOneMergeContract:
    @pytest.mark.parametrize("page_size", [2, 4, 16])
    @pytest.mark.parametrize("lists", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_labels_are_interned_sets(self, seed, lists, page_size, repeat_step):
        """A label is the set of runs holding the entry, encoded as an int
        membership mask (bit ``i - 1`` for run ``i``): a small int, so
        equal labels from one merge are one object and nothing is built
        per entry.  Every input page is read exactly once."""
        seed += 1000 * repeat_step
        _instance, subsets = random_sublists(seed, size=70, lists=lists)
        pager = Pager(page_size=page_size, buffer_pages=4)
        runs = [sorted_run(pager, subset) for subset in subsets]
        members = [{e.dn for e in subset} for subset in subsets]
        pager.flush()
        before = pager.stats.snapshot()
        interned = {}
        merged = 0
        for entry, label in labeled_merge(runs):
            merged += 1
            assert interned.setdefault(label, label) is label, seed
            assert type(label) is int and 0 < label < 1 << lists
            for index, dns in enumerate(members):
                assert bool(label >> index & 1) == (entry.dn in dns), seed
        assert merged == len(set().union(*members))
        assert len(interned) <= 2 ** lists - 1
        delta = pager.stats.since(before)
        assert delta.logical_reads == sum(run.page_count for run in runs)
        assert delta.logical_writes == 0

    def test_tied_readers_advance_in_run_order(self):
        """The page-read sequence the exact I/O counts rest on: readers
        open in run order, and a dn several runs hold advances them in
        run order."""
        _instance, (subset,) = random_sublists(6, size=12, lists=1)
        pager = Pager(page_size=2, buffer_pages=4)
        runs = [sorted_run(pager, subset) for _ in range(3)]
        reads = []
        read = pager.read
        pager.read = lambda page_id: reads.append(page_id) or read(page_id)
        assert len(list(labeled_merge(runs))) == len(subset)
        assert reads == [
            run.page_ids[page]
            for page in range(runs[0].page_count)
            for run in runs
        ]


class TestSpillList:
    @given(st.lists(st.lists(st.integers(0, 99), max_size=12), max_size=8),
           st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_concat_preserves_sequence(self, groups, page_size):
        pager = Pager(page_size=page_size, buffer_pages=4)
        combined = SpillList(pager)
        expected = []
        for group in groups:
            other = SpillList(pager)
            for value in group:
                other.append(value)
            expected.extend(group)
            combined.concat(other)
        assert len(combined) == len(expected)
        writer = RunWriter(pager)
        combined.flush_to(writer)
        assert writer.close().to_list() == expected

    def test_flush_empties(self):
        pager = Pager(page_size=4)
        spill = SpillList(pager)
        for value in range(10):
            spill.append(value)
        writer = RunWriter(pager)
        spill.flush_to(writer)
        assert len(spill) == 0
        writer2 = RunWriter(pager)
        spill.flush_to(writer2)
        assert writer2.close().to_list() == []

    def test_concat_empty_is_noop(self):
        pager = Pager(page_size=4)
        spill = SpillList(pager)
        spill.append(1)
        spill.concat(SpillList(pager))
        assert len(spill) == 1

    def test_prepend_order(self):
        pager = Pager(page_size=3)
        spill = SpillList(pager)
        for value in (3, 4, 5):
            spill.append(value)
        for value in (2, 1, 0):
            spill.prepend(value)
        writer = RunWriter(pager)
        spill.flush_to(writer)
        assert writer.close().to_list() == [0, 1, 2, 3, 4, 5]

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("append"), st.integers(0, 99)),
                st.tuples(st.just("prepend"), st.integers(0, 99)),
                st.tuples(st.just("concat"), st.lists(st.integers(0, 99), max_size=9)),
            ),
            max_size=25,
        ),
        st.integers(2, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_operations_match_list_model(self, operations, page_size):
        pager = Pager(page_size=page_size, buffer_pages=4)
        spill = SpillList(pager)
        model = []
        for op, payload in operations:
            if op == "append":
                spill.append(payload)
                model.append(payload)
            elif op == "prepend":
                spill.prepend(payload)
                model.insert(0, payload)
            else:
                other = SpillList(pager)
                for value in payload:
                    other.append(value)
                spill.concat(other)
                model.extend(payload)
            assert len(spill) == len(model)
        writer = RunWriter(pager)
        spill.flush_to(writer)
        assert writer.close().to_list() == model

    def test_chain_unwinding_writes_full_pages(self):
        """The E19 regression: prepend-then-adopt (the pop path on a chain)
        must not fragment -- total spill I/O stays ~2 transfers per B
        records."""
        page_size = 16
        pager = Pager(page_size=page_size, buffer_pages=4)
        records = 2_000
        pager.flush()
        before = pager.stats.snapshot()
        current = SpillList(pager)
        for value in range(records):  # deepest-first unwinding
            parent = SpillList(pager)
            parent.prepend(records - value)
            parent.concat(current)
            current = parent
        writer = RunWriter(pager)
        current.flush_to(writer)
        run = writer.close()
        assert run.to_list() == list(range(1, records + 1))
        delta = pager.stats.since(before)
        # Each record: once into a spill page, once out, once into the run.
        assert delta.logical_reads + delta.logical_writes <= 4 * records / page_size + 8


class TestWitnessTerms:
    def test_default_is_count(self):
        terms = witness_terms_of(None)
        assert terms == [EntryAggregate("count", "$2", None)]

    def test_collects_witness_terms_only(self):
        agg = AggSelFilter(
            EntryAggregate("sum", "$2", "weight"),
            ">",
            EntryAggregate("min", "$1", "weight"),
        )
        terms = witness_terms_of(agg)
        assert terms == [EntryAggregate("sum", "$2", "weight")]

    def test_deduplicates(self):
        term = EntryAggregate("count", "$2", None)
        agg = AggSelFilter(term, "=", EntrySetAggregate("max", term))
        assert witness_terms_of(agg) == [term]

    def test_constant_sides(self):
        agg = AggSelFilter(Constant(1), "<", Constant(2))
        assert witness_terms_of(agg) == []


class TestStateHelpers:
    def test_add_and_merge(self):
        from repro.model.dn import DN
        from repro.model.entry import Entry

        terms = [
            EntryAggregate("count", "$2", None),
            EntryAggregate("sum", "$2", "weight"),
        ]
        fold = WitnessFold(terms)
        witness = Entry(DN.parse("cn=w"), ["c"], {"weight": [3, 4]})
        state = fold.add(fold.zero, witness)
        assert fold.values(state) == (1, 7)
        again = fold.add(state, witness)
        assert fold.values(state) == (1, 7)  # values: nothing changed in place
        assert fold.values(fold.merge(state, again)) == (3, 21)

    def test_count_alone_is_the_papers_int_counter(self):
        fold = WitnessFold(witness_terms_of(None))
        assert fold.counting and fold.zero == 0
        assert fold.merge(fold.add(0, None), 2) == 3
        assert fold.values(3) == (3,)

    @given(
        st.lists(st.lists(st.one_of(st.integers(-50, 50), st.sampled_from(["7", "x", True])), max_size=3), max_size=6),
        st.lists(st.lists(st.integers(-50, 50), max_size=3), max_size=6),
    )
    @settings(max_examples=60)
    def test_fold_equals_the_definition(self, left, right):
        """Adding witnesses one by one and merging two folds gives what
        ``EntryAggregate.evaluate`` gives on the concatenated witness set."""
        from repro.model.dn import DN
        from repro.model.entry import Entry

        terms = [EntryAggregate("count", "$2", None)] + [
            EntryAggregate(func, "$2", "weight")
            for func in ("min", "max", "count", "sum", "average")
        ]
        fold = WitnessFold(terms)

        def witnesses(value_lists, tag):
            return [
                Entry(DN.parse("cn=%s%d" % (tag, i)), ["c"], {"weight": values} if values else {})
                for i, values in enumerate(value_lists)
            ]

        def folded(entries):
            state = fold.zero
            for entry in entries:
                state = fold.add(state, entry)
            return state

        ones, twos = witnesses(left, "l"), witnesses(right, "r")
        merged = fold.values(fold.merge(folded(ones), folded(twos)))
        assert merged == tuple(term.evaluate(None, ones + twos) for term in terms)
