"""E15 (extension; DESIGN.md §5): the optimizer ablation.

Two effects are measured against the unoptimised engine:

- the R1 rewrite (Section 8.1's identity run backwards) removes the
  whole-instance third operand from ``ac``/``dc`` nodes;
- cost-based access-path choice uses secondary indices for selective
  leaves and clustered scans for unselective ones, never losing to a
  fixed policy.
"""

from repro.engine import QueryEngine
from repro.engine.optimizer import PlannedEngine
from repro.storage.store import DirectoryStore
from repro.workload import balanced_instance

from ._util import record

SIZES = (1_000, 2_000, 4_000)

R1_QUERY = "(ac ( ? sub ? name=e5) ( ? sub ? name=e1) ( ? sub ? objectClass=*))"
SELECTIVE = "( ? sub ? name=e123)"
UNSELECTIVE = "( ? sub ? kind=alpha)"


def _stores(size):
    instance = balanced_instance(size, fanout=4, seed=15)
    store = DirectoryStore.from_instance(instance, page_size=16, buffer_pages=8)
    store.build_indices(("weight", "name", "kind"))
    return store


def _logical(result):
    return result.io.logical_reads + result.io.logical_writes


def test_e15_rewrite_ablation(benchmark):
    rows = []
    for size in SIZES:
        store = _stores(size)
        planned = PlannedEngine(store)
        plain = QueryEngine(store, use_indices=False)
        optimised = planned.run(R1_QUERY)
        unoptimised = plain.run(R1_QUERY)
        assert optimised.dns() == unoptimised.dns()
        rows.append((size, _logical(optimised), _logical(unoptimised),
                     round(_logical(unoptimised) / max(_logical(optimised), 1), 1)))
    record(
        benchmark,
        "E15a: R1 rewrite ablation (ac with whole-instance operand)",
        ("entries", "optimised I/O", "unoptimised I/O", "saving"),
        rows,
    )
    assert rows[-1][3] > rows[0][3]  # the saving grows with the directory
    benchmark.pedantic(lambda: PlannedEngine(_stores(1_000)).run(R1_QUERY),
                       rounds=2, iterations=1)


def test_e15_access_path_ablation(benchmark):
    rows = []
    for size in SIZES:
        store = _stores(size)
        planned = PlannedEngine(store)
        always_scan = QueryEngine(store, use_indices=False)
        always_index = QueryEngine(store, use_indices=True)
        for label, query in (("selective", SELECTIVE), ("unselective", UNSELECTIVE)):
            planned_cost = _logical(planned.run(query))
            scan_cost = _logical(always_scan.run(query))
            index_cost = _logical(always_index.run(query))
            rows.append((size, label, planned_cost, scan_cost, index_cost))
            # Cost-based choice is never beaten badly by either fixed policy.
            assert planned_cost <= min(scan_cost, index_cost) * 1.2 + 2
    record(
        benchmark,
        "E15b: access-path choice vs fixed policies",
        ("entries", "leaf", "planned I/O", "always-scan I/O", "always-index I/O"),
        rows,
    )
    benchmark.pedantic(lambda: PlannedEngine(_stores(1_000)).run(SELECTIVE),
                       rounds=2, iterations=1)
