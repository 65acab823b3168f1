"""E19 (extension): tree-shape sensitivity of the stack algorithms.

The linear bound of Theorem 5.1 is shape-independent: a 300-deep chain
(the stack holds everything, spilling through the paged stack), a flat
star (the stack never exceeds depth 2) and a bushy balanced tree must all
cost the same I/O per entry, within constants.
"""

from repro.engine.common import labeled_merge
from repro.engine.hsagg import hierarchical_select
from repro.model.dn import ROOT_DN
from repro.model.instance import DirectoryInstance
from repro.storage.pager import Pager
from repro.storage.runs import run_from_iterable
from repro.workload import balanced_instance, synthetic_schema

from ._util import record

SIZE = 4_000


def _chain(size):
    instance = DirectoryInstance(synthetic_schema())
    dn = ROOT_DN
    for index in range(size):
        dn = dn.child("name=c%06d" % index)
        instance.add(dn, ["node"], name="c%06d" % index,
                     kind="alpha" if index % 2 == 0 else "beta")
    return instance


def _star(size):
    instance = DirectoryInstance(synthetic_schema())
    root = ROOT_DN.child("name=root")
    instance.add(root, ["node"], name="root", kind="alpha")
    for index in range(size - 1):
        instance.add(root.child("name=s%06d" % index), ["node"],
                     name="s%06d" % index,
                     kind="alpha" if index % 2 == 0 else "beta")
    return instance


SHAPES = {
    "chain (depth=n)": _chain,
    "star (depth=2)": _star,
    "balanced (fanout=4)": lambda size: balanced_instance(size, fanout=4, seed=19),
}


def _cost(instance):
    entries = list(instance)
    alphas = [e for e in entries if "alpha" in map(str, e.values("kind"))]
    betas = [e for e in entries if "beta" in map(str, e.values("kind"))]
    pager = Pager(page_size=16, buffer_pages=4)
    first = run_from_iterable(pager, alphas)
    second = run_from_iterable(pager, betas)
    pager.flush()
    before = pager.stats.snapshot()
    result = hierarchical_select(pager, "a", labeled_merge([first, second]))
    delta = pager.stats.since(before)
    return len(result), delta.logical_reads + delta.logical_writes


def test_e19_shape_independence(benchmark):
    rows = []
    per_entry = {}
    for label, factory in SHAPES.items():
        selected, logical = _cost(factory(SIZE))
        per_entry[label] = logical / SIZE
        rows.append((label, SIZE, selected, logical, round(logical / SIZE, 3)))
    record(
        benchmark,
        "E19: ancestors over three extreme tree shapes (n=%d)" % SIZE,
        ("shape", "entries", "selected", "logical I/O", "I/O per entry"),
        rows,
    )
    # Shape-independence: the costliest shape is within a small constant of
    # the cheapest (the chain pays the stack spill, nothing more).
    assert max(per_entry.values()) <= 4 * min(per_entry.values())
    benchmark.pedantic(lambda: _cost(_chain(1_000)), rounds=2, iterations=1)
