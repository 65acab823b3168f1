"""Overlay-merged reads: a search reads *through* the pending MVCC overlay
instead of compacting it first, and must be indistinguishable from
compact-then-read.

Seeded random write histories -- add, modify, modify of a just-added
entry, leaf delete, recursive delete, delete-then-re-add, add under a
deleted root -- are applied to three copies of one directory:

- the **subject**, never compacted, read through pinned views;
- a **twin** read through ``directory.engine()``, which compacts first
  (the reference arm the tentpole keeps);
- a plain in-memory **model**, read by the definitional semantics.

After every step, queries at L0--L3 and atomic probes at every scope
around the write -- at the written dn, one level above it and two levels
above it, so a ``one``/``base`` read sees the write as its base, as a
child and as a grandchild it must seek past -- must agree dn-for-dn,
value-for-value and in order, and no read may compact, leave a pin behind
or leak a pager page.  A failing assertion names the seed and the step.

CI runs this module repeatedly (``pytest-repeat``) in the
parallel-stress and planner-differential jobs.
"""

import random
import statistics
import time

import pytest

from repro.engine import QueryEngine
from repro.engine.optimizer import PlannedEngine
from repro.model.dn import DN, ROOT_DN
from repro.model.instance import DirectoryInstance
from repro.query.ast import AtomicQuery, Scope
from repro.query.semantics import evaluate
from repro.filters.ast import Equality, MatchAll
from repro.server import DirectoryService, ResultCode
from repro.storage.maintenance import UpdatableDirectory
from repro.storage.store import DirectoryStore
from repro.workload import RandomQueries, balanced_instance, random_instance

from tests.meter import Meter, reading

SEEDS = range(6)
STEPS = 24
KINDS = ("alpha", "beta", "gamma", "delta")
TAGS = ("red", "green", "blue", "redish", "dark-red")
INDICES = ("weight", "level", "kind", "name", "tag")
NEVER = 10 ** 9  # an auto_compact_at no history reaches


# -- the model and the history generator --------------------------------------


class Model:
    """The directory as a dict, mutated by the same ops as the subject."""

    def __init__(self, instance):
        self.schema = instance.schema
        self.entries = {entry.dn: entry for entry in instance}

    def instance(self) -> DirectoryInstance:
        fresh = DirectoryInstance(self.schema)
        for entry in self.entries.values():
            fresh.add_entry(entry)
        return fresh

    def children(self, dn):
        return [other for other in self.entries if dn.is_parent_of(other)]

    def apply(self, op):
        kind = op[0]
        if kind == "add":
            _, dn, attrs = op
            scratch = DirectoryInstance(self.schema)
            self.entries[dn] = scratch.add(dn, ["node"], attrs)
        elif kind == "modify":
            _, dn, replace = op
            current = self.entries[dn]
            values = {
                attr: list(current.values(attr))
                for attr in current.attributes()
                if attr != "objectClass"
            }
            values.update(replace)
            scratch = DirectoryInstance(self.schema)
            self.entries[dn] = scratch.add(dn, current.classes, values)
        else:
            _, dn, recursive = op
            doomed = [d for d in self.entries if dn.is_prefix_of(d)] if recursive else [dn]
            for victim in doomed:
                del self.entries[victim]


class History:
    """Seeded ops that are valid against the model at the time they are
    drawn; every history kind the issue lists comes up within a run."""

    STEP_KINDS = (
        "add", "modify", "modify_added", "delete_leaf", "delete_recursive",
        "readd", "add_under_deleted_root",
    )

    def __init__(self, seed, model):
        self.rng = random.Random(seed * 7919 + 3)
        self.model = model
        self.counter = 0
        self.added = []          # dns this history added
        self.deleted = []        # dns deleted (point or recursive root)
        self.deleted_roots = []  # recursive-delete roots
        self.seen_kinds = set()

    def _attrs(self, name):
        rng = self.rng
        attrs = {
            "name": [name],
            "kind": [rng.choice(KINDS)],
            "level": [rng.randint(0, 9)],
            "weight": [rng.randint(0, 100)],
        }
        if rng.random() < 0.6:
            attrs["tag"] = rng.sample(TAGS, rng.randint(1, 2))
        if rng.random() < 0.4:
            attrs["ref"] = [rng.choice(self._live())]
        return attrs

    def _live(self):
        return sorted(self.model.entries, key=DN.key)

    def _add(self, dn):
        name = dn.rdn.canonical().split("=", 1)[1]
        self.added.append(dn)
        return ("add", dn, self._attrs(name))

    def _fresh_child(self, parent):
        self.counter += 1
        return parent.child("name=n%d" % self.counter)

    def next_ops(self, kind=None):
        """One step: usually one op, two when a deleted root is re-added
        so that something can be added beneath it."""
        rng = self.rng
        kind = kind or rng.choice(self.STEP_KINDS)
        live = self._live()
        if kind == "modify_added":
            candidates = [dn for dn in self.added if dn in self.model.entries]
            if not candidates:
                kind = "add"
        if kind == "delete_leaf":
            candidates = [dn for dn in live if not self.model.children(dn)]
        if kind == "delete_recursive":
            candidates = [
                dn for dn in live
                if dn.depth() > 1 and self.model.children(dn)
            ]
            if not candidates:
                kind = "add"
        if kind == "readd":
            candidates = [dn for dn in self.deleted if dn not in self.model.entries]
            if not candidates:
                kind = "delete_leaf"
                candidates = [dn for dn in live if not self.model.children(dn)]
        if kind == "add_under_deleted_root":
            if not self.deleted_roots:
                kind = "delete_recursive"
                candidates = [
                    dn for dn in live
                    if dn.depth() > 1 and self.model.children(dn)
                ]
                if not candidates:
                    kind = "add"
        self.seen_kinds.add(kind)
        if kind == "add":
            return [self._add(self._fresh_child(rng.choice(live)))]
        if kind in ("modify", "modify_added"):
            dn = rng.choice(live if kind == "modify" else candidates)
            return [("modify", dn, {
                "kind": [rng.choice(KINDS)], "tag": [rng.choice(TAGS)],
            })]
        if kind == "delete_leaf":
            dn = rng.choice(candidates)
            self.deleted.append(dn)
            return [("delete", dn, False)]
        if kind == "delete_recursive":
            dn = rng.choice(candidates)
            self.deleted.append(dn)
            self.deleted_roots.append(dn)
            return [("delete", dn, True)]
        if kind == "readd":
            return [self._add(rng.choice(candidates))]
        root = rng.choice(self.deleted_roots)
        ops = [] if root in self.model.entries else [self._add(root)]
        return ops + [self._add(self._fresh_child(root))]


def apply_to_directory(directory, op):
    kind = op[0]
    if kind == "add":
        directory.add(op[1], ["node"], op[2])
    elif kind == "modify":
        directory.modify(op[1], replace=op[2])
    else:
        directory.delete(op[1], recursive=op[2])


def apply_to_service(service, op):
    kind = op[0]
    if kind == "add":
        code = service.add(op[1], ["node"], op[2])
    elif kind == "modify":
        code = service.modify(op[1], replace=op[2])
    else:
        code = service.delete(op[1], recursive=op[2])
    assert code == ResultCode.SUCCESS, (op, code)


# -- comparisons and invariants -------------------------------------------------


def signature(entries):
    """dn-for-dn, value-for-value, in order."""
    return [
        (
            str(entry.dn),
            tuple(sorted(entry.classes)),
            tuple(
                (attr, tuple(str(v) for v in entry.values(attr)))
                for attr in sorted(entry.attributes())
            ),
        )
        for entry in entries
    ]


def assert_sorted_and_duplicate_free(entries, context):
    keys = [entry.dn.key() for entry in entries]
    assert all(a < b for a, b in zip(keys, keys[1:])), context


def step_queries(model_instance, seed, step, touched):
    """One query per language level plus atomic probes at every scope
    around the write (the written dn, its parent, its grandparent, the
    whole forest)."""
    queries = RandomQueries(model_instance, seed=seed * 1009 + step)
    out = [queries.l0(2), queries.l1(1), queries.l2(1), queries.l3(1)]
    bases = {ROOT_DN}
    for dn in touched:
        bases.add(dn)
        if dn.depth() > 1:
            bases.add(dn.parent)
        if dn.depth() > 2:
            bases.add(dn.parent.parent)
    for base in sorted(bases, key=DN.key):
        for scope in (Scope.BASE, Scope.ONE, Scope.SUB):
            out.append(AtomicQuery(base, scope, MatchAll()))
        out.append(AtomicQuery(base, Scope.SUB, Equality("kind", "alpha")))
        out.append(AtomicQuery(base, Scope.SUB, queries.random_filter()))
    return out


def make_directory(instance, indexed):
    store = DirectoryStore.from_instance(instance, page_size=8, buffer_pages=6)
    if indexed:
        store.build_indices(INDICES)
    return UpdatableDirectory(store, auto_compact_at=NEVER)


# -- the differential suite --------------------------------------------------------


@pytest.mark.parametrize("indexed", [False, True], ids=["scan", "indexed"])
@pytest.mark.parametrize("seed", SEEDS)
def test_view_reads_match_compact_then_read_and_semantics(seed, indexed):
    instance = random_instance(seed, size=70)
    model = Model(instance)
    history = History(seed, model)
    subject = make_directory(instance, indexed)
    twin = make_directory(instance, indexed)
    pager = subject.store.pager
    for step in range(STEPS):
        # The first steps walk every kind once; the rest are drawn.
        forced = History.STEP_KINDS[step] if step < len(History.STEP_KINDS) else None
        ops = history.next_ops(forced)
        for op in ops:
            model.apply(op)
            apply_to_directory(subject, op)
            apply_to_directory(twin, op)
        model_instance = model.instance()
        reference = twin.engine()  # compact-then-read
        live_before = pager.live_pages
        for query in step_queries(model_instance, seed, step, [op[1] for op in ops]):
            context = "seed=%d indexed=%s step=%d ops=%r query=%s" % (
                seed, indexed, step, ops, query,
            )
            want = signature(evaluate(query, model_instance))
            assert signature(reference.run(query).entries) == want, context
            with subject.acquire_view() as view:
                literal = QueryEngine(view).run(query).entries
                planned = PlannedEngine(view).run(query).entries
            assert signature(literal) == want, context
            assert signature(planned) == want, context
            assert_sorted_and_duplicate_free(literal, context)
        assert subject.compactions == 0
        assert subject._pins == {}
        assert pager.live_pages == live_before
    assert subject.pending() > 0
    assert twin.pending() == 0 and twin.compactions > 0
    # Folding the subject at the end lands on the twin's image exactly.
    subject.compact()
    assert signature(subject.store.scan_all()) == signature(twin.store.scan_all())
    assert len(subject) == len(model.entries)


@pytest.mark.parametrize("planner", ["cost", "none"])
@pytest.mark.parametrize("seed", SEEDS)
def test_service_reads_never_compact(seed, planner):
    instance = random_instance(seed + 100, size=70)
    model = Model(instance)
    history = History(seed, model)
    service = DirectoryService(instance, page_size=8, planner=planner)
    directory = service.directory
    pager = directory.store.pager
    try:
        for step in range(STEPS):
            forced = History.STEP_KINDS[step] if step < len(History.STEP_KINDS) else None
            ops = history.next_ops(forced)
            for op in ops:
                model.apply(op)
                apply_to_service(service, op)
            model_instance = model.instance()
            compactions = directory.compactions
            live_before = pager.live_pages
            for query in step_queries(model_instance, seed, step, [op[1] for op in ops]):
                context = "seed=%d planner=%s step=%d ops=%r query=%s" % (
                    seed, planner, step, ops, query,
                )
                want = [str(e.dn) for e in evaluate(query, model_instance)]
                assert service.search(query).dns() == want, context
                paged = [
                    str(entry.dn)
                    for page in service.search_paged(query, 5)
                    for entry in page
                ]
                assert paged == want, context
            probe = ops[-1][1]
            present = probe in model.entries
            assert service.compare(probe, "name", "no-such-value") == (
                ResultCode.COMPARE_FALSE if present else ResultCode.NO_SUCH_OBJECT
            )
            assert service.bind(probe, "no-such-credential") == (
                ResultCode.INVALID_CREDENTIALS if present else ResultCode.NO_SUCH_OBJECT
            )
            len(directory)
            assert directory.compactions == compactions
            assert directory._pins == {}
            assert pager.live_pages == live_before
        assert directory.compactions == 0
        assert directory.pending() > 0
        assert history.seen_kinds >= set(History.STEP_KINDS)
    finally:
        service.close()


def test_threshold_is_the_only_compaction_trigger():
    instance = random_instance(7, size=60)
    service = DirectoryService(instance, page_size=8, cache_bytes=0)
    directory = service.directory
    directory.auto_compact_at = 8
    root = next(iter(instance.roots())).dn
    try:
        for i in range(40):
            before = directory.compactions
            service.search("( ? sub ? kind=alpha)")
            service.search("(%s ? one ? name=*)" % root)
            assert directory.compactions == before  # reads never fold
            assert service.add(
                root.child("name=t%d" % i), ["node"], name="t%d" % i, kind="alpha"
            ) == ResultCode.SUCCESS
            assert directory.pending() < 8
        assert directory.compactions == 40 // 8
        assert len(service.search("(%s ? one ? name=t*)" % root).entries) == 40
    finally:
        service.close()


# -- depth-bounded reads ----------------------------------------------------------


def test_bounded_scopes_read_through_the_overlay():
    """``one`` and ``base`` reads of a base whose master subtree the scan
    seeks through, with every overlay shape pending at once: adds two
    levels below the base, a modified child, a point-deleted child, a
    recursively deleted child subtree, an add under a deleted root."""
    from repro.engine.atomic import scope_admits

    instance = balanced_instance(340, fanout=4, seed=5)
    base = [e.dn for e in instance if e.dn.depth() == 2][1]
    kids = [e.dn for e in instance.children_of(base)]
    lone = base.child("name=lone")
    instance.add(lone, ["node"], name="lone", kind="alpha")  # a leaf child
    model = Model(instance)
    subject = UpdatableDirectory(
        DirectoryStore.from_instance(instance, page_size=8, buffer_pages=6),
        auto_compact_at=NEVER,
    )
    twin = make_directory(instance, indexed=False)
    ops = [
        ("add", kids[0].child("name=g1"), {"name": ["g1"], "kind": ["alpha"]}),
        ("add", kids[0].child("name=g2"), {"name": ["g2"], "kind": ["beta"]}),
        ("add", kids[0].child("name=g1").child("name=gg"), {"name": ["gg"]}),
        ("modify", kids[1], {"kind": ["delta"], "tag": ["dark-red"]}),
        ("delete", lone, False),
        ("delete", kids[2], True),
        ("delete", kids[3], True),
        ("add", kids[3], {"name": [kids[3].rdn.canonical().split("=", 1)[1]]}),
        ("add", kids[3].child("name=u"), {"name": ["u"], "kind": ["gamma"]}),
        ("add", base.child("name=fresh"), {"name": ["fresh"]}),
    ]
    for op in ops:
        model.apply(op)
        apply_to_directory(subject, op)
        apply_to_directory(twin, op)
    model_instance = model.instance()
    folded = twin.engine().store  # compact-then-read
    pager = subject.store.pager
    live_before = pager.live_pages
    bases = [ROOT_DN, base.parent, base, lone, kids[0].child("name=g1")] + kids
    with subject.acquire_view() as view:
        for probe in bases:
            for scope, max_depth in Scope.MAX_DEPTH.items():
                context = (str(probe), scope)
                want = signature(
                    e for e in model_instance if scope_admits(probe, scope, e.dn)
                )
                query = AtomicQuery(probe, scope, MatchAll())
                assert signature(evaluate(query, model_instance)) == want, context
                assert signature(folded.scan_subtree(probe, max_depth)) == want, context
                walked = reading("repro_overlay_merged_entries_total")
                assert signature(view.scan_subtree(probe, max_depth)) == want, context
                walked = reading("repro_overlay_merged_entries_total") - walked
                if scope == Scope.SUB and probe == base:
                    # Eight overlay images under the base plus its two
                    # deleted roots: what the unbounded merge always cost.
                    assert walked == 10, context
                elif scope == Scope.BASE:
                    # At most the head of the overlay slice and the first
                    # deleted root, never the slice.
                    assert walked <= 2, context
                assert signature(QueryEngine(view).run(query).entries) == want, context
        assert [str(dn) for dn in view.children(base)] == [
            str(e.dn) for e in model_instance.children_of(base)
        ]
    assert subject.compactions == 0
    assert subject._pins == {}
    assert pager.live_pages == live_before


# -- accounting ---------------------------------------------------------------


def test_overlay_entries_are_charged_as_logical_page_reads():
    instance = balanced_instance(200, fanout=4, seed=5)
    directory = UpdatableDirectory.from_instance(
        instance, page_size=8, auto_compact_at=NEVER
    )
    pager = directory.store.pager
    root = next(iter(instance.roots())).dn
    meter = Meter()

    def merged():
        return meter("repro_overlay_merged_entries_total")

    def scan_cost():
        before = pager.stats.snapshot()
        with directory.acquire_view() as view:
            count = sum(1 for _ in view.scan_subtree(root))
        return count, pager.stats.since(before)

    count, clean = scan_cost()
    assert merged() == 0  # an empty overlay costs a scan nothing
    for i in range(20):  # 20 overlay entries = ceil(20 / 8) = 3 pages
        directory.add(root.child("name=x%d" % i), ["node"], name="x%d" % i)
    merged_before = merged()
    grown, dirty = scan_cost()
    assert grown == count + 20
    assert dirty.logical_reads == clean.logical_reads + 3
    assert dirty.reads <= clean.reads  # memory resident: no transfers
    assert merged() == merged_before + 20
    assert directory.pending() == 20
    # A scan whose range holds no overlay entry is the store's own scan.
    leaf = [e.dn for e in instance if e.dn.depth() == 3][0]
    merged_before = merged()
    with directory.acquire_view() as view:
        list(view.scan_subtree(leaf))
    assert merged() == merged_before
    # An abandoned scan (a base-scope probe stops after the base entry)
    # is charged what it walked, not the 20-entry slice under its base.
    before = pager.stats.snapshot()
    with directory.acquire_view() as view:
        scan = view.scan_subtree(root)
        assert next(scan).dn == root
        scan.close()
    assert merged() == merged_before
    assert pager.stats.since(before).logical_reads <= 1  # the base's page
    directory.compact()
    assert directory.pending() == 0


# -- the key successor (ROADMAP 3a) --------------------------------------------------


class TestSubtreeUpperBound:
    """Sibling RDNs where one canonical string extends the other
    (``name=a`` / ``name=ab``) and an RDN value above the BMP."""

    NAMES = ["a", "ab", "a\U0001F600", "a￿", "b"]

    def _instance(self):
        from repro.workload import synthetic_schema

        instance = DirectoryInstance(synthetic_schema())
        instance.add("name=top", ["node"], name="top")
        for name in self.NAMES:
            parent = DN.parse("name=top").child("name=%s" % name)
            instance.add(parent, ["node"], name=name, kind="alpha")
            for i in range(6):
                instance.add(
                    parent.child("name=k%d" % i), ["node"], name="k%d" % i, kind="beta"
                )
        return instance

    def test_bound_cuts_exactly_the_subtree(self):
        from bisect import bisect_left
        from repro.model.dn import subtree_upper_bound

        instance = self._instance()
        keys = [entry.dn.key() for entry in instance]
        for entry in instance:
            key = entry.dn.key()
            low = bisect_left(keys, key)
            high = bisect_left(keys, subtree_upper_bound(key))
            assert keys[low:high] == [k for k in keys if k[: len(key)] == key]

    def test_page_range_is_no_wider_than_the_subtree(self):
        instance = self._instance()
        store = DirectoryStore.from_instance(instance, page_size=2, buffer_pages=4)
        page_keys = [
            [entry.dn.key() for entry in store.pager.read(page_id)]
            for page_id in store.master.page_ids
        ]
        for entry in instance:
            base = entry.dn
            want = [str(e.dn) for e in instance.subtree(base)]
            assert [str(e.dn) for e in store.scan_subtree(base)] == want
            start, end = store.page_range_for_subtree(base)
            key = base.key()
            for page in page_keys[start:end]:
                assert any(k[: len(key)] == key for k in page), (
                    "page range of %s includes a page with no entry of its subtree" % base
                )

    def test_overlay_slices_use_the_same_bound(self):
        instance = self._instance()
        directory = UpdatableDirectory.from_instance(
            instance, page_size=2, auto_compact_at=NEVER
        )
        top = DN.parse("name=top")
        for name in self.NAMES:
            directory.add(
                top.child("name=%s" % name).child("name=new"), ["node"], name="new"
            )
        directory.delete(top.child("name=ab"), recursive=True)
        with directory.acquire_view() as view:
            for name in self.NAMES:
                base = top.child("name=%s" % name)
                got = [str(e.dn) for e in view.scan_subtree(base)]
                if name == "ab":
                    assert got == []
                else:
                    assert len(got) == 8 and got[0] == str(base)
                    assert all(dn.endswith(str(base)) for dn in got)
            assert [str(dn) for dn in view.children(top)] == [
                str(top.child("name=%s" % name))
                for name in sorted(n for n in self.NAMES if n != "ab")
            ]


# -- write cost is flat in pending ----------------------------------------------


def test_modify_cost_is_flat_in_pending():
    """A modify at 1 000 pending costs about what it costs at <= 100
    (the per-version re-fold made it ~9x)."""
    instance = balanced_instance(1500, fanout=4, seed=9)
    directory = UpdatableDirectory.from_instance(
        instance, page_size=16, buffer_pages=256, auto_compact_at=NEVER
    )
    dns = [entry.dn for entry in instance]

    def timed(victims):
        samples = []
        for i, dn in enumerate(victims):
            started = time.perf_counter()
            directory.modify(dn, replace={"weight": [i]})
            samples.append(time.perf_counter() - started)
        return statistics.median(samples)

    few = timed(dns[:100])
    for i, dn in enumerate(dns[100:1000]):
        directory.modify(dn, replace={"weight": [i]})
    assert directory.pending() == 1000
    many = timed(dns[1000:1100])
    assert directory.compactions == 0
    assert many <= 3 * few, "modify at 1000 pending %.1f us vs %.1f us at <=100" % (
        many * 1e6, few * 1e6,
    )
