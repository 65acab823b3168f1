"""E10 (Section 8.1): why L1 keeps p/c despite {ac, dc} subsuming them.

``(p Q1 Q2)`` equals ``(ac Q1 Q2 (null-dn ? sub ? objectClass=*))``, but
the rewriting drags the *whole directory instance* in as the third
operand.  With selective (index-backed) operands the direct p costs a few
page accesses regardless of directory size, while the ac rewriting scans
everything -- "a very expensive evaluation as written, since our
algorithms have I/O complexity linear in the size of the inputs".
"""

from repro.engine import QueryEngine
from repro.workload import balanced_instance

from ._util import record

SIZES = (1_000, 2_000, 4_000, 8_000)

# In balanced_instance, entry e5's parent is e1 ((5-1)//4): a selective,
# deterministic parent/child pair at every size.
P_QUERY = "(p ( ? sub ? name=e5) ( ? sub ? name=e1))"
AC_QUERY = "(ac ( ? sub ? name=e5) ( ? sub ? name=e1) ( ? sub ? objectClass=*))"


def _cost(query, size):
    instance = balanced_instance(size, fanout=4, seed=10)
    engine = QueryEngine.from_instance(
        instance, page_size=16, buffer_pages=8, indices=("name",)
    )
    engine.pager.flush()
    result = engine.run(query)
    return result.dns(), result.io.logical_reads + result.io.logical_writes


def test_e10_ac_rewriting_cost(benchmark):
    rows = []
    for size in SIZES:
        p_dns, p_cost = _cost(P_QUERY, size)
        ac_dns, ac_cost = _cost(AC_QUERY, size)
        assert p_dns == ac_dns  # Theorem 8.2(d): same answers
        assert len(p_dns) == 1  # e5 has parent e1
        rows.append((size, p_cost, ac_cost, round(ac_cost / max(p_cost, 1), 1)))
    record(
        benchmark,
        "E10: (p Q1 Q2) vs the ac rewriting with whole-instance operand",
        ("entries", "p I/O", "ac I/O", "blow-up"),
        rows,
    )
    # p stays flat; the rewriting grows with the directory.
    assert rows[-1][1] <= 2 * rows[0][1] + 4
    assert rows[-1][2] > 4 * rows[0][2] / 2
    assert rows[-1][3] > 5 * rows[0][3]
    benchmark.pedantic(lambda: _cost(AC_QUERY, 2_000), rounds=3, iterations=1)
