"""E14 (our ablation; DESIGN.md section 5): sensitivity of the stack
algorithms to the blocking factor B and the buffer-pool size.

Expected shape: logical I/O scales ~1/B (bigger pages, fewer transfers);
physical I/O approaches the logical cost as the pool shrinks but
correctness and the linear trend are unaffected."""

from repro.engine.common import labeled_merge
from repro.engine.hsagg import hierarchical_select
from repro.storage.pager import Pager
from repro.storage.runs import run_from_iterable

from ._util import measure_io, operand_lists, record

SIZE = 4_000


def _cost(page_size, buffer_pages):
    _instance, subsets = operand_lists(seed=14, size=SIZE)
    pager = Pager(page_size=page_size, buffer_pages=buffer_pages)
    first = run_from_iterable(pager, subsets[0])
    second = run_from_iterable(pager, subsets[1])
    result, logical, physical = measure_io(
        pager, lambda: hierarchical_select(pager, "d", labeled_merge([first, second]))
    )
    return len(result), logical, physical


def test_e14_blocking_factor(benchmark):
    rows = []
    reference = None
    for page_size in (4, 8, 16, 32, 64):
        selected, logical, physical = _cost(page_size, buffer_pages=6)
        if reference is None:
            reference = (selected, logical)
        assert selected == reference[0]  # answers independent of B
        rows.append((page_size, selected, logical, physical,
                     round(reference[1] / logical, 2)))
    record(
        benchmark,
        "E14a: blocking factor sweep (descendants, n=%d)" % SIZE,
        ("B", "selected", "logical I/O", "physical I/O", "speedup vs B=4"),
        rows,
    )
    # Quadrupling B from 4 to 16 should cut logical I/O ~4x (within slack).
    b4 = next(row for row in rows if row[0] == 4)
    b16 = next(row for row in rows if row[0] == 16)
    assert b4[2] / b16[2] > 2.5
    benchmark.pedantic(lambda: _cost(16, 6), rounds=3, iterations=1)


def test_e14_buffer_pool(benchmark):
    rows = []
    logicals = set()
    for buffer_pages in (2, 4, 8, 32):
        selected, logical, physical = _cost(16, buffer_pages)
        logicals.add(logical)
        rows.append((buffer_pages, selected, logical, physical))
    assert len(logicals) == 1  # model-level cost is pool-independent
    record(
        benchmark,
        "E14b: buffer pool sweep (descendants, n=%d, B=16)" % SIZE,
        ("pool pages", "selected", "logical I/O", "physical I/O"),
        rows,
    )
    # Physical I/O decreases (weakly) as the pool grows.
    physicals = [row[3] for row in rows]
    assert physicals[0] >= physicals[-1]
    benchmark.pedantic(lambda: _cost(16, 2), rounds=3, iterations=1)
