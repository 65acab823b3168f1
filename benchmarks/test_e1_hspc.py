"""E1 (Theorem 5.1 / Figure 2): ComputeHSPC runs in linear I/O; the naive
nested-loop strategy is quadratic.

Expected shape: doubling |L1|+|L2| doubles the stack algorithm's page
accesses, quadruples the naive baseline's, and the gap widens with size.
"""

from repro.engine.common import labeled_merge
from repro.engine.hsagg import hierarchical_select
from repro.engine.naive import naive_hierarchical_select

from ._util import (
    as_runs,
    assert_linear,
    assert_superlinear,
    fresh_pager,
    measure_io,
    operand_lists,
    record,
)

SIZES = (1_000, 2_000, 4_000, 8_000)
NAIVE_SIZES = (250, 500, 1_000)


def _stack_cost(op, size):
    _instance, subsets = operand_lists(seed=1, size=size)
    pager = fresh_pager()
    first, second = as_runs(pager, subsets)
    _result, logical, physical = measure_io(
        pager, lambda: hierarchical_select(pager, op, labeled_merge([first, second]))
    )
    return logical, physical


def _naive_cost(op, size):
    _instance, subsets = operand_lists(seed=1, size=size)
    pager = fresh_pager()
    first, second = as_runs(pager, subsets)
    _result, logical, _physical = measure_io(
        pager, lambda: naive_hierarchical_select(pager, op, first, second)
    )
    return logical


def test_e1_hspc_linear_io(benchmark):
    rows = []
    for op in ("p", "c"):
        costs = []
        for size in SIZES:
            logical, physical = _stack_cost(op, size)
            costs.append(logical)
            rows.append((op, size, logical, physical, round(logical / size, 3)))
        assert_linear(SIZES, costs)
    record(
        benchmark,
        "E1: ComputeHSPC I/O vs input size",
        ("op", "entries", "logical I/O", "physical I/O", "I/O per entry"),
        rows,
    )
    benchmark.pedantic(lambda: _stack_cost("c", 2_000), rounds=3, iterations=1)


def test_e1_naive_is_quadratic(benchmark):
    rows = []
    naive_costs = []
    stack_costs = []
    for size in NAIVE_SIZES:
        naive = _naive_cost("c", size)
        stack, _ = _stack_cost("c", size)
        naive_costs.append(naive)
        stack_costs.append(stack)
        rows.append((size, naive, stack, round(naive / max(stack, 1), 1)))
    assert_superlinear(NAIVE_SIZES, naive_costs)
    assert_linear(NAIVE_SIZES, stack_costs)
    assert naive_costs[-1] > 10 * stack_costs[-1]
    record(
        benchmark,
        "E1: naive vs stack (children)",
        ("entries", "naive I/O", "stack I/O", "speedup"),
        rows,
    )
    benchmark.pedantic(lambda: _naive_cost("c", 250), rounds=2, iterations=1)
