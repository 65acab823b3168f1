"""E3 (Theorem 5.1 / Figure 5): the path-constrained ComputeHSADc runs in
I/O linear in |L1| + |L2| + |L3|."""

from repro.engine.common import labeled_merge
from repro.engine.hsagg import hierarchical_select

from ._util import (
    as_runs,
    assert_linear,
    fresh_pager,
    measure_io,
    operand_lists,
    record,
)

SIZES = (1_000, 2_000, 4_000, 8_000)


def _cost(op, size, seed=3):
    _instance, subsets = operand_lists(seed=seed, size=size, lists=3)
    pager = fresh_pager()
    first, second, third = as_runs(pager, subsets)
    result, logical, physical = measure_io(
        pager, lambda: hierarchical_select(pager, op, labeled_merge([first, second, third]))
    )
    return len(result), logical, physical


def test_e3_hsadc_linear_io(benchmark):
    rows = []
    for op in ("ac", "dc"):
        costs = []
        for size in SIZES:
            selected, logical, physical = _cost(op, size)
            costs.append(logical)
            rows.append((op, size, selected, logical, physical, round(logical / size, 3)))
        assert_linear(SIZES, costs)
    record(
        benchmark,
        "E3: ComputeHSADc I/O vs input size (three operands)",
        ("op", "entries", "selected", "logical I/O", "physical I/O", "I/O per entry"),
        rows,
    )
    benchmark.pedantic(lambda: _cost("dc", 2_000), rounds=3, iterations=1)
