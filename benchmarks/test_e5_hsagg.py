"""E5 (Theorem 6.2 / Figure 6): structural aggregate selection stays linear
for every hierarchical operator and several aggregate filters, including
the global-maximum filter of Figure 6 (count($2)=max(count($2)))."""

from repro.engine.common import labeled_merge
from repro.engine.hsagg import hierarchical_select
from repro.query.parser import parse_aggsel

from ._util import (
    as_runs,
    assert_linear,
    fresh_pager,
    measure_io,
    operand_lists,
    record,
)

SIZES = (1_000, 2_000, 4_000)

FILTERS = {
    "count>2": parse_aggsel("count($2) > 2"),
    "count=max(count)": parse_aggsel("count($2)=max(count($2))"),
    "min(w)<=50": parse_aggsel("min($2.weight) <= 50"),
}


def _cost(op, agg_filter, size):
    lists = 3 if op in ("ac", "dc") else 2
    _instance, subsets = operand_lists(seed=5, size=size, lists=lists)
    pager = fresh_pager()
    runs = as_runs(pager, subsets)
    result, logical, _physical = measure_io(
        pager,
        lambda: hierarchical_select(pager, op, labeled_merge(runs), agg_filter),
    )
    return len(result), logical


def test_e5_all_operators_linear(benchmark):
    rows = []
    agg_filter = FILTERS["count=max(count)"]
    for op in ("p", "c", "a", "d", "ac", "dc"):
        costs = []
        for size in SIZES:
            selected, logical = _cost(op, agg_filter, size)
            costs.append(logical)
            rows.append((op, size, selected, logical, round(logical / size, 3)))
        assert_linear(SIZES, costs)
    record(
        benchmark,
        "E5a: ComputeHSAgg with count($2)=max(count($2))",
        ("op", "entries", "selected", "logical I/O", "I/O per entry"),
        rows,
    )
    benchmark.pedantic(lambda: _cost("d", agg_filter, 2_000), rounds=3, iterations=1)


def test_e5_filter_variety_linear(benchmark):
    rows = []
    for label, agg_filter in FILTERS.items():
        costs = []
        for size in SIZES:
            selected, logical = _cost("d", agg_filter, size)
            costs.append(logical)
            rows.append((label, size, selected, logical))
        assert_linear(SIZES, costs)
    record(
        benchmark,
        "E5b: descendants with different aggregate filters",
        ("filter", "entries", "selected", "logical I/O"),
        rows,
    )
    benchmark.pedantic(
        lambda: _cost("d", FILTERS["min(w)<=50"], 2_000), rounds=3, iterations=1
    )
