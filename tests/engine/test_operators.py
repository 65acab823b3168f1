"""Operator-level tests: hierarchical_select, simple_agg_select,
embedded_ref_select and the selection phase, against the definitional
semantics."""

import pytest

from repro.engine.common import labeled_merge
from repro.engine.eragg import embedded_ref_select
from repro.engine.hsagg import hierarchical_select
from repro.engine.selection import select_annotated
from repro.engine.simpleagg import simple_agg_select
from repro.query.aggregates import (
    AggSelFilter,
    Constant,
    EntryAggregate,
    EntrySetAggregate,
)
from repro.query.ast import EmbeddedRef, SimpleAggSelect
from repro.query.semantics import ReferenceEvaluator, witness_set
from repro.storage.pager import Pager
from repro.storage.runs import run_from_iterable

from .conftest import random_sublists, sorted_run

COUNT = EntryAggregate("count", "$2", None)


class TestHierarchicalSelect:
    @pytest.mark.parametrize("op", ["p", "c", "a", "d"])
    def test_plain_equals_nonempty_witness(self, op):
        _instance, (first, second) = random_sublists(5, size=100)
        pager = Pager(page_size=8, buffer_pages=6)
        out = hierarchical_select(
            pager, op, labeled_merge([sorted_run(pager, first), sorted_run(pager, second)])
        )
        expected = [e.dn for e in first if witness_set(op, e, second)]
        assert [e.dn for e in out.to_list()] == expected

    def test_aggregate_global_max(self):
        _instance, (first, second) = random_sublists(8, size=120)
        pager = Pager(page_size=8, buffer_pages=6)
        agg = AggSelFilter(COUNT, "=", EntrySetAggregate("max", COUNT))
        out = hierarchical_select(
            pager, "d", labeled_merge([sorted_run(pager, first), sorted_run(pager, second)]), agg
        )
        counts = {e.dn: len(witness_set("d", e, second)) for e in first}
        peak = max(counts.values(), default=0)
        expected = [e.dn for e in first if counts[e.dn] == peak]
        assert [e.dn for e in out.to_list()] == expected

    def test_zero_count_selección(self):
        """count($2) = 0 selects exactly the witness-less entries --
        something the plain operator cannot express."""
        _instance, (first, second) = random_sublists(9, size=80)
        pager = Pager(page_size=8, buffer_pages=6)
        agg = AggSelFilter(COUNT, "=", Constant(0))
        out = hierarchical_select(
            pager, "a", labeled_merge([sorted_run(pager, first), sorted_run(pager, second)]), agg
        )
        expected = [e.dn for e in first if not witness_set("a", e, second)]
        assert [e.dn for e in out.to_list()] == expected


class TestSimpleAgg:
    def test_two_scan_io(self):
        instance, (subset,) = random_sublists(4, size=1500, lists=1)
        pager = Pager(page_size=16, buffer_pages=4)
        run = sorted_run(pager, subset)
        pager.flush()
        agg = AggSelFilter(
            EntryAggregate("min", "$1", "weight"),
            "=",
            EntrySetAggregate("min", EntryAggregate("min", "$1", "weight")),
        )
        before = pager.stats.snapshot()
        out = simple_agg_select(pager, run, agg)
        delta = pager.stats.since(before)
        # Theorem 6.1: at most two scans of the input plus the output write.
        assert delta.logical_reads <= 2 * run.page_count + 2
        # Correctness: global minimum holders.
        weights = [e.first("weight") for e in subset if e.has("weight")]
        if weights:
            minimum = min(weights)
            expected = [
                e.dn for e in subset
                if e.has("weight") and min(e.values("weight")) == minimum
            ]
            assert [e.dn for e in out.to_list()] == expected

    def test_single_scan_without_set_aggregates(self):
        _instance, (subset,) = random_sublists(6, size=800, lists=1)
        pager = Pager(page_size=16, buffer_pages=4)
        run = sorted_run(pager, subset)
        pager.flush()
        agg = AggSelFilter(EntryAggregate("count", "$1", "tag"), ">=", Constant(1))
        before = pager.stats.snapshot()
        out = simple_agg_select(pager, run, agg)
        assert pager.stats.since(before).logical_reads <= run.page_count + 1
        assert [e.dn for e in out.to_list()] == [e.dn for e in subset if e.has("tag")]

    def test_rejects_witness_filter(self):
        pager = Pager()
        run = sorted_run(pager, [])
        agg = AggSelFilter(COUNT, ">", Constant(0))
        with pytest.raises(ValueError):
            simple_agg_select(pager, run, agg)


class TestEmbeddedRef:
    @pytest.mark.parametrize("op", ["vd", "dv"])
    @pytest.mark.parametrize("seed", range(5))
    def test_plain(self, op, seed):
        _instance, (first, second) = random_sublists(seed + 20, size=110)
        pager = Pager(page_size=8, buffer_pages=8)
        out = embedded_ref_select(
            pager, op, sorted_run(pager, first), sorted_run(pager, second), "ref"
        )
        expected = []
        second_dns = {e.dn for e in second}
        refs_to = {}
        for witness in second:
            for value in witness.values("ref"):
                refs_to.setdefault(value, set()).add(witness.dn)
        for entry in first:
            if op == "vd":
                hit = any(v in second_dns for v in entry.values("ref"))
            else:
                hit = bool(refs_to.get(entry.dn))
            if hit:
                expected.append(entry.dn)
        assert [e.dn for e in out.to_list()] == expected

    def test_aggregate_max_references(self):
        """Figure 3's count($2)=max(count($2)) case via the general path."""
        _instance, (first, second) = random_sublists(31, size=130)
        pager = Pager(page_size=8, buffer_pages=8)
        agg = AggSelFilter(COUNT, "=", EntrySetAggregate("max", COUNT))
        out = embedded_ref_select(
            pager, "dv", sorted_run(pager, first), sorted_run(pager, second), "ref", agg
        )
        counts = {}
        for entry in first:
            counts[entry.dn] = sum(
                1 for w in second if entry.dn in w.values("ref")
            )
        peak = max(counts.values(), default=0)
        expected = [e.dn for e in first if counts[e.dn] == peak]
        assert [e.dn for e in out.to_list()] == expected

    def test_unknown_op(self):
        pager = Pager()
        run = sorted_run(pager, [])
        with pytest.raises(ValueError):
            embedded_ref_select(pager, "xx", run, run, "ref")


class _OverLists(ReferenceEvaluator):
    """The definitional semantics with entry lists as operands."""

    def __init__(self):
        super().__init__(None)

    def _eval(self, query):
        return query if isinstance(query, list) else super()._eval(query)


class TestSimpleAggIsTheSelectionPhase:
    """``g`` is ``select_annotated`` with no witness terms."""

    @pytest.mark.parametrize("page_size", [2, 4, 16])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scans", [1, 2])
    def test_equals_select_annotated_over_empty_annotations(
        self, scans, seed, page_size, repeat_step
    ):
        seed += 1000 * repeat_step
        _instance, (subset,) = random_sublists(seed, size=90, lists=1)
        pager = Pager(page_size=page_size, buffer_pages=4)
        run = sorted_run(pager, subset)
        paired = run_from_iterable(pager, [(entry, ()) for entry in subset])
        least = EntryAggregate("min", "$1", "weight")
        if scans == 2:  # an entry-set aggregate costs the first scan
            agg = AggSelFilter(least, "=", EntrySetAggregate("min", least))
        else:
            agg = AggSelFilter(least, "<", Constant(50))
        pager.flush()
        before = pager.stats.snapshot()
        out = simple_agg_select(pager, run, agg)
        delta = pager.stats.since(before)
        assert delta.logical_reads == scans * run.page_count, seed
        assert delta.logical_writes == out.page_count
        expected = select_annotated(pager, paired, [], agg)
        assert [id(e) for e in out.to_list()] == [id(e) for e in expected.to_list()]
        oracle = _OverLists().evaluate(SimpleAggSelect(subset, agg))
        assert [id(e) for e in out.to_list()] == [id(e) for e in oracle], seed


class TestEmbeddedRefSharedFold:
    """``dv`` explodes L2, ``vd`` explodes L1; both fold witnesses through
    one co-scan and must equal the definitional semantics."""

    BAD_REF = "not a dn !!"

    @pytest.mark.parametrize("aggregate", [False, True])
    @pytest.mark.parametrize("op", ["vd", "dv"])
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_semantics_with_eval_errors(self, seed, op, aggregate, repeat_step):
        seed += 1000 * repeat_step
        _instance, (first, second) = random_sublists(seed + 20, size=110)
        # Every fourth entry also carries a value that is not a dn: it is
        # skipped, counted, and changes nobody's witnesses.
        first, second = (
            [
                entry.with_values(ref=[self.BAD_REF]) if index % 4 == 0 else entry
                for index, entry in enumerate(entries)
            ]
            for entries in (first, second)
        )
        agg = None
        if aggregate:
            agg = AggSelFilter(COUNT, "=", EntrySetAggregate("max", COUNT))
        pager = Pager(page_size=8, buffer_pages=8)
        live = pager.live_pages
        first_run, second_run = sorted_run(pager, first), sorted_run(pager, second)
        out = embedded_ref_select(pager, op, first_run, second_run, "ref", agg)
        expected = _OverLists().evaluate(EmbeddedRef(op, first, second, "ref", agg))
        assert [id(e) for e in out.to_list()] == [id(e) for e in expected], seed
        exploded = first if op == "vd" else second
        assert out.eval_errors == sum(
            self.BAD_REF in entry.values("ref") for entry in exploded
        )
        # pairs, sorted pairs, matches and the annotated run are all freed
        inputs = first_run.page_count + second_run.page_count
        assert pager.live_pages == live + inputs + out.page_count


class TestSelection:
    def test_default_filter_is_positive_count(self):
        pager = Pager(page_size=4)
        _instance, (subset,) = random_sublists(2, size=30, lists=1)
        annotated = run_from_iterable(
            pager,
            [(e, (i % 3,)) for i, e in enumerate(subset)],
        )
        out = select_annotated(pager, annotated, [COUNT], None)
        expected = [e.dn for i, e in enumerate(subset) if i % 3 > 0]
        assert [e.dn for e in out.to_list()] == expected
