"""E13 (Section 4.2): the boolean operators are single co-scans -- linear
I/O, sorted output preserved for the operators above."""

from repro.engine.common import labeled_merge
from repro.engine.merge import boolean_merge

from ._util import (
    as_runs,
    assert_linear,
    fresh_pager,
    measure_io,
    operand_lists,
    record,
)

SIZES = (2_000, 4_000, 8_000, 16_000)


def _cost(op, size):
    _instance, subsets = operand_lists(seed=13, size=size)
    pager = fresh_pager()
    left, right = as_runs(pager, subsets)
    result, logical, _physical = measure_io(
        pager, lambda: boolean_merge(pager, op, labeled_merge((left, right)))
    )
    input_pages = left.page_count + right.page_count
    return len(result), logical, input_pages


def test_e13_boolean_linear(benchmark):
    rows = []
    for op in ("and", "or", "diff"):
        costs = []
        for size in SIZES:
            selected, logical, input_pages = _cost(op, size)
            costs.append(logical)
            rows.append((op, size, selected, logical,
                         round(logical / input_pages, 2)))
            # One pass over inputs plus the output write.
            assert logical <= input_pages + selected / 16 + 3
        assert_linear(SIZES, costs)
    record(
        benchmark,
        "E13: boolean merge I/O vs input size",
        ("op", "entries", "result", "logical I/O", "I/O per input page"),
        rows,
    )
    benchmark.pedantic(lambda: _cost("or", 4_000), rounds=3, iterations=1)
