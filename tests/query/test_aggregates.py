"""Aggregate terms, filters and incremental states (Section 6)."""

import pytest
from hypothesis import given, strategies as st

from repro.model.dn import DN
from repro.model.entry import Entry
from repro.query.aggregates import (
    AggError,
    AggSelFilter,
    AggState,
    Constant,
    EntryAggregate,
    EntrySetAggregate,
    WITNESS_COUNT_POSITIVE,
    agg_merge,
    apply_func,
)


def entry(name="x", **values):
    return Entry(DN.parse("cn=%s, dc=com" % name), ["c"], values)


class TestAggState:
    def test_count(self):
        state = AggState("count")
        state.add("anything")
        state.add_count(3)
        assert state.result() == 4

    def test_min_max_sum_average(self):
        for func, expected in (("min", 1), ("max", 9), ("sum", 15), ("average", 5)):
            state = AggState(func)
            for value in (9, 1, 5):
                state.add(value)
            assert state.result() == expected

    def test_empty_semantics(self):
        assert AggState("count").result() == 0
        assert AggState("sum").result() == 0
        assert AggState("min").result() is None
        assert AggState("max").result() is None
        assert AggState("average").result() is None

    def test_non_numeric_ignored(self):
        state = AggState("sum")
        state.add("abc")
        state.add("7")  # numeric strings count
        state.add(3)
        assert state.result() == 10

    def test_merge(self):
        a, b = AggState("min"), AggState("min")
        a.add(5)
        b.add(2)
        a.state = agg_merge(a.state, b.state)
        assert a.result() == 2

    def test_copy_independent(self):
        """A state is a value: one held aside does not see later adds."""
        a = AggState("count")
        a.add_count(2)
        held = a.state
        a.add_count(1)
        a.add(4)
        b = AggState("count")
        b.state = held
        assert a.result() == 4 and b.result() == 2

    def test_unknown_func(self):
        with pytest.raises(AggError):
            AggState("median")


@given(st.lists(st.integers(-100, 100), max_size=30))
def test_state_matches_python_builtins(values):
    assert apply_func("count", values) == len(values)
    assert apply_func("sum", values) == sum(values)
    if values:
        assert apply_func("min", values) == min(values)
        assert apply_func("max", values) == max(values)
        assert apply_func("average", values) == pytest.approx(sum(values) / len(values))


@given(st.lists(st.integers(-50, 50), max_size=20), st.lists(st.integers(-50, 50), max_size=20))
def test_merge_equals_concatenation(left, right):
    for func in ("min", "max", "count", "sum", "average"):
        a = AggState(func)
        for v in left:
            a.add(v)
        b = AggState(func)
        for v in right:
            b.add(v)
        a.state = agg_merge(a.state, b.state)
        assert a.result() == apply_func(func, left + right)


class TestEntryAggregate:
    def test_self_attr(self):
        ea = EntryAggregate("min", "$1", "n")
        assert ea.evaluate(entry(n=[5, 2])) == 2

    def test_witness_count(self):
        ea = EntryAggregate("count", "$2", None)
        assert ea.evaluate(entry(), [entry("a"), entry("b")]) == 2

    def test_witness_attr(self):
        ea = EntryAggregate("sum", "$2", "n")
        witnesses = [entry("a", n=[1, 2]), entry("b", n=[10])]
        assert ea.evaluate(entry(), witnesses) == 13

    def test_witness_required(self):
        ea = EntryAggregate("count", "$2", None)
        with pytest.raises(AggError):
            ea.evaluate(entry(), None)

    def test_only_count_may_omit_attribute(self):
        with pytest.raises(AggError):
            EntryAggregate("min", "$2", None)
        with pytest.raises(AggError):
            EntryAggregate("count", "$1", None)


class TestEntrySetAggregate:
    def test_count_population(self):
        esa = EntrySetAggregate("count", None)
        population = [(entry("a"), None), (entry("b"), None)]
        assert esa.evaluate(population) == 2

    def test_min_of_min(self):
        esa = EntrySetAggregate("min", EntryAggregate("min", "$1", "n"))
        population = [(entry("a", n=[5]), None), (entry("b", n=[2, 9]), None)]
        assert esa.evaluate(population) == 2

    def test_skips_undefined_inner(self):
        esa = EntrySetAggregate("max", EntryAggregate("max", "$1", "n"))
        population = [(entry("a"), None), (entry("b", n=[3]), None)]
        assert esa.evaluate(population) == 3

    def test_only_count_on_bare_set(self):
        with pytest.raises(AggError):
            EntrySetAggregate("min", None)


class TestAggSelFilter:
    def test_basic(self):
        f = AggSelFilter(EntryAggregate("min", "$1", "n"), "<", Constant(3))
        assert f.test(entry(n=[2]), None, {})
        assert not f.test(entry(n=[5]), None, {})

    def test_undefined_is_false(self):
        f = AggSelFilter(EntryAggregate("min", "$1", "n"), "<", Constant(3))
        assert not f.test(entry(), None, {})  # no n values: min undefined

    def test_needs_witnesses(self):
        assert WITNESS_COUNT_POSITIVE.needs_witnesses()
        f = AggSelFilter(EntryAggregate("min", "$1", "n"), "<", Constant(3))
        assert not f.needs_witnesses()
        g = AggSelFilter(
            Constant(1),
            "<",
            EntrySetAggregate("max", EntryAggregate("count", "$2", None)),
        )
        assert g.needs_witnesses()

    def test_set_values_used(self):
        esa = EntrySetAggregate("max", EntryAggregate("max", "$1", "n"))
        f = AggSelFilter(EntryAggregate("max", "$1", "n"), "=", esa)
        population = [(entry("a", n=[5]), None), (entry("b", n=[2]), None)]
        set_values = {id(esa): esa.evaluate(population)}
        assert f.test(entry("a", n=[5]), None, set_values)
        assert not f.test(entry("b", n=[2]), None, set_values)

    def test_test_resolved(self):
        term = EntryAggregate("count", "$2", None)
        f = AggSelFilter(term, ">", Constant(1))
        assert f.test_resolved(entry(), {term: 2}, {})
        assert not f.test_resolved(entry(), {term: 1}, {})
        assert not f.test_resolved(entry(), {term: None}, {})

    def test_bad_op(self):
        with pytest.raises(AggError):
            AggSelFilter(Constant(1), "~", Constant(2))

    def test_bad_side(self):
        with pytest.raises(AggError):
            AggSelFilter("nope", "=", Constant(2))
