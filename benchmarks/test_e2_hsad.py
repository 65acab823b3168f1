"""E2 (Theorem 5.1 / Figure 4): ComputeHSAD (ancestors/descendants) runs in
linear I/O, independent of witness multiplicity (an entry can have many
ancestors, unlike parents)."""

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


def _cost(op, size, seed=2):
    _instance, subsets = operand_lists(seed=seed, size=size)
    pager = fresh_pager()
    first, second = as_runs(pager, subsets)
    result, logical, physical = measure_io(
        pager, lambda: hierarchical_select(pager, op, labeled_merge([first, second]))
    )
    return len(result), logical, physical


def test_e2_hsad_linear_io(benchmark):
    rows = []
    for op in ("a", "d"):
        costs = []
        for size in SIZES:
            selected, logical, physical = _cost(op, size)
            costs.append(logical)
            rows.append((op, size, selected, logical, physical, round(logical / size, 3)))
        assert_linear(SIZES, costs)
    record(
        benchmark,
        "E2: ComputeHSAD I/O vs input size",
        ("op", "entries", "selected", "logical I/O", "physical I/O", "I/O per entry"),
        rows,
    )
    benchmark.pedantic(lambda: _cost("a", 2_000), rounds=3, iterations=1)
