"""A tour of the external-memory machinery: watch the I/O model at work.

Shows what the paper's theorems mean operationally -- the pager's
counters, the linear scaling of the stack algorithms, the blocking factor,
the optimizer's EXPLAIN -- on one synthetic directory.

Run:  python examples/external_memory_tour.py
"""

from repro.engine import QueryEngine
from repro.engine.naive import naive_hierarchical_select
from repro.engine.optimizer import PlannedEngine, explain
from repro.query.parser import parse_query
from repro.storage.store import DirectoryStore
from repro.workload import balanced_instance

QUERY = "(a ( ? sub ? kind=alpha) ( ? sub ? kind=beta))"


def main() -> None:
    print("== 1. linear I/O: the ancestors operator across a size sweep ==")
    print("   %8s %12s %14s" % ("entries", "page I/Os", "I/Os per entry"))
    for n in (1_000, 2_000, 4_000, 8_000):
        engine = QueryEngine.from_instance(
            balanced_instance(n, seed=3), page_size=16, buffer_pages=6
        )
        engine.pager.flush()
        result = engine.run(QUERY)
        logical = result.io.logical_reads + result.io.logical_writes
        print("   %8d %12d %14.3f" % (n, logical, logical / n))

    print("\n== 2. the same join, the naive way (quadratic) ==")
    for n in (250, 500, 1_000):
        engine = QueryEngine.from_instance(
            balanced_instance(n, seed=3), page_size=16, buffer_pages=6
        )
        first = engine.evaluate_to_run(parse_query("( ? sub ? kind=alpha)"))
        second = engine.evaluate_to_run(parse_query("( ? sub ? kind=beta)"))
        engine.pager.flush()
        before = engine.pager.stats.snapshot()
        naive_hierarchical_select(engine.pager, "a", first, second)
        delta = engine.pager.stats.since(before)
        print("   n=%5d  naive I/Os=%7d" % (n, delta.logical_reads + delta.logical_writes))

    print("\n== 3. the blocking factor B: bigger pages, fewer transfers ==")
    for page_size in (4, 16, 64):
        engine = QueryEngine.from_instance(
            balanced_instance(4_000, seed=3), page_size=page_size, buffer_pages=6
        )
        engine.pager.flush()
        result = engine.run(QUERY)
        logical = result.io.logical_reads + result.io.logical_writes
        print("   B=%2d  page I/Os=%6d" % (page_size, logical))

    print("\n== 4. constant memory: a 2-page buffer pool answers everything ==")
    tiny = QueryEngine.from_instance(
        balanced_instance(4_000, seed=3), page_size=16, buffer_pages=2
    )
    roomy = QueryEngine.from_instance(
        balanced_instance(4_000, seed=3), page_size=16, buffer_pages=64
    )
    assert tiny.run(QUERY).dns() == roomy.run(QUERY).dns()
    print("   identical answers with 2 and 64 resident pages")

    print("\n== 5. EXPLAIN: estimates, access paths, rewrites ==")
    instance = balanced_instance(2_000, seed=3)
    store = DirectoryStore.from_instance(instance, page_size=16, buffer_pages=8)
    store.build_indices(("weight", "name"))
    plan = explain(
        store,
        parse_query(
            "(& ( ? sub ? name=e42)"
            "   (ac ( ? sub ? kind=alpha) ( ? sub ? kind=beta)"
            "       ( ? sub ? objectClass=*)))"
        ),
        analyze=True,
    )
    print(plan.render(indent=1))


if __name__ == "__main__":
    main()
