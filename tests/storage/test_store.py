"""The directory store: clustering, sparse index, subtree ranges."""

import pytest

from repro.model.dn import DN, ROOT_DN
from repro.storage.pager import Pager
from repro.storage.store import DirectoryStore
from repro.workload import balanced_instance, random_instance


@pytest.fixture(scope="module")
def loaded():
    instance = random_instance(3, size=150, max_children=4)
    store = DirectoryStore.from_instance(instance, page_size=8, buffer_pages=4)
    return instance, store


class TestLayout:
    def test_all_entries_in_order(self, loaded):
        instance, store = loaded
        stored = [e.dn for e in store.scan_all()]
        assert stored == [e.dn for e in instance]
        assert len(store) == len(instance)

    def test_entry_at(self, loaded):
        instance, store = loaded
        entries = list(instance)
        for position in (0, 7, len(entries) - 1):
            assert store.entry_at(position).dn == entries[position].dn

    def test_fetch_positions_dedupes_and_sorts(self, loaded):
        _instance, store = loaded
        fetched = store.fetch_positions([5, 2, 5, 9])
        assert [e.dn.key() for e in fetched] == sorted(e.dn.key() for e in fetched)
        assert len(fetched) == 3


class TestSubtreeScans:
    def test_matches_instance_subtree(self, loaded):
        instance, store = loaded
        for entry in list(instance)[::17]:
            base = entry.dn
            expected = [e.dn for e in instance.subtree(base)]
            got = [e.dn for e in store.scan_subtree(base)]
            assert got == expected

    def test_null_base_scans_everything(self, loaded):
        instance, store = loaded
        assert len(list(store.scan_subtree(ROOT_DN))) == len(instance)

    def test_missing_base_yields_nothing(self, loaded):
        _instance, store = loaded
        assert list(store.scan_subtree(DN.parse("name=doesnotexist"))) == []

    def test_range_io_proportional_to_subtree(self):
        # Scanning a small subtree must not read the whole master run.
        instance = balanced_instance(2000, fanout=4)
        store = DirectoryStore.from_instance(instance, page_size=8, buffer_pages=4)
        store.pager.flush()
        leafish = [e for e in instance if e.dn.depth() >= 5][0]
        subtree_size = len(list(instance.subtree(leafish.dn)))
        before = store.pager.stats.snapshot()
        scanned = list(store.scan_subtree(leafish.dn))
        assert len(scanned) == subtree_size
        delta = store.pager.stats.since(before)
        assert delta.logical_reads <= subtree_size // 8 + 3
        assert delta.logical_reads < store.page_count / 4


class TestIndices:
    def test_build_and_consistency(self):
        instance = random_instance(11, size=120)
        store = DirectoryStore.from_instance(instance, page_size=8)
        store.build_indices(("weight", "kind"))
        # Every indexed posting points at an entry actually carrying it.
        for _key, position in store.indices["weight"].scan():
            assert store.entry_at(position).has("weight")
        positions = [p for _key, p in store.indices["kind"].scan("alpha", "alpha")]
        for position in positions:
            assert "alpha" in [str(v) for v in store.entry_at(position).values("kind")]
        expected = sum(1 for e in instance if "alpha" in map(str, e.values("kind")))
        assert len(positions) == expected

    def test_undeclared_attribute_is_rejected(self):
        store = DirectoryStore.from_instance(random_instance(11, size=20), page_size=8)
        with pytest.raises(ValueError, match=r"undeclared attribute 'wieght' .*weight"):
            store.build_indices(("kind", "wieght"))
        assert store.indices == {}
