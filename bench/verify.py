"""The untimed verify pass: are the measured service's answers right?

Three independent witnesses, all fed from the scripts the timed passes
executed:

- a **reference service** (``planner="none"``, ``cache_bytes=0``: the
  paper-literal engine, nothing cached) that received the same
  acknowledged writes -- sampled searches must return the same dn list;
- the **definitional semantics** (``repro.query.semantics``) evaluated on
  an in-memory model kept in step with the writes -- checked on
  small-operand queries, the only ones a quadratic oracle can afford;
- for a durable service, a **crash image** of its data directory taken
  while it is still open: a service reopened from those bytes alone must
  hold every acknowledged write.

Every comparison that disagrees is one failed op.
"""

from __future__ import annotations

import shutil
from typing import Dict, List, Sequence

from repro.model.dn import DN
from repro.model.instance import DirectoryInstance
from repro.query.parser import parse_query
from repro.query.semantics import evaluate

from .harness import SUCCESS, Bench, apply_op, open_service
from .workloads import READBACK, SEARCH, WRITES, Op

#: Searches compared against the reference service, and against the
#: definitional semantics, per run.
REFERENCE_SAMPLE = 96
ORACLE_SAMPLE = 24
#: An oracle query is "small-operand" when every atomic base dn has at
#: least this many rdns (tree depth 3: subtrees of at most ~340 entries).
ORACLE_MIN_RDNS = 4


class Verdict:
    """How many comparisons were made and what each failed one said."""

    def __init__(self):
        self.checked = 0
        self.mismatches: List[str] = []

    def check(self, ok: bool, note: str) -> None:
        self.checked += 1
        if not ok:
            self.mismatches.append(note)


def _evenly(items: Sequence, count: int) -> List:
    if len(items) <= count:
        return list(items)
    step = len(items) / float(count)
    return [items[int(index * step)] for index in range(count)]


def _distinct_searches(scripts: Sequence[Sequence[Op]]) -> List[str]:
    seen: Dict[str, None] = {}
    for script in scripts:
        for op in script:
            if op.kind in (SEARCH, READBACK):
                seen.setdefault(op.target, None)
    return list(seen)


def _model(instance: DirectoryInstance, touched: Dict[DN, object],
           bases: Sequence[DN]) -> DirectoryInstance:
    """The entries under ``bases`` as the scripted writes (``touched``:
    final attributes per written dn, None once deleted) left them.  A
    query's answer depends only on the entries its atomic scopes admit, so
    this slice is all the oracle needs."""
    model = DirectoryInstance(instance.schema)
    for base in bases:
        for entry in instance.subtree(base):
            if entry.dn not in touched and entry.dn not in model:
                model.add_entry(entry)
    for dn, attrs in touched.items():
        if attrs is not None and any(base.is_prefix_of(dn) for base in bases):
            model.add(dn, ["node"], attrs)
    return model


def verify(bench: Bench, scripts: Sequence[Sequence[Op]]) -> Verdict:
    verdict = Verdict()
    workload, measured = bench.workload, bench.service
    writes = [op for script in scripts for op in script if op.kind in WRITES]

    reference = open_service(workload.instance, planner="none", cache_bytes=0)
    try:
        for op in writes:
            verdict.check(
                apply_op(reference, op) == SUCCESS, "reference refused %r" % (op,)
            )
        searches = _distinct_searches(scripts)
        for text in _evenly(searches, REFERENCE_SAMPLE):
            got = measured.search(text).dns()
            want = reference.search(text).dns()
            verdict.check(got == want, "reference disagrees on %s" % text)
    finally:
        reference.close()

    small = []
    for text in searches:
        bases = [leaf.base for leaf in parse_query(text).atomic_leaves()]
        if min(base.depth() for base in bases) >= ORACLE_MIN_RDNS:
            small.append((text, bases))
    touched = {DN.parse(dn): attrs for dn, attrs in workload.touched.items()}
    for text, bases in _evenly(small, ORACLE_SAMPLE):
        model = _model(workload.instance, touched, bases)
        want = [str(e.dn) for e in evaluate(parse_query(text), model)]
        verdict.check(
            measured.search(text).dns() == want, "semantics disagree on %s" % text
        )
    if len(small) < min(ORACLE_SAMPLE, 20):
        verdict.check(False, "only %d small-operand queries to check" % len(small))

    if bench.durable_dir is not None:
        _verify_crash_image(bench, verdict)
    return verdict


def _verify_crash_image(bench: Bench, verdict: Verdict) -> None:
    """Copy the data directory while the service is open -- what a killed
    process would leave, the operating system's cache intact -- reopen
    from the copy alone and look every written dn up."""
    image = bench.durable_dir + ".image"
    shutil.rmtree(image, ignore_errors=True)
    shutil.copytree(bench.durable_dir, image)
    reopened = open_service(None, image)
    try:
        for dn, attrs in bench.workload.touched.items():
            found = reopened.search("(%s ? base ? objectClass=*)" % dn).entries
            if attrs is None:
                ok = not found
            else:
                ok = len(found) == 1 and all(
                    [str(v) for v in found[0].values(attr)] == [str(v) for v in values]
                    for attr, values in attrs.items()
                )
            verdict.check(ok, "reopened service lost the write to %s" % dn)
        for text in bench.workload.pool.queries:
            verdict.check(
                reopened.search(text).dns() == bench.service.search(text).dns(),
                "reopened service disagrees on %s" % text,
            )
    finally:
        reopened.close()
        shutil.rmtree(image, ignore_errors=True)
