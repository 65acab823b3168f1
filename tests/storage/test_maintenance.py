"""Updates against the read-optimised store: log, compaction, semantics."""

import pytest

from repro.model.schema import SchemaError
from repro.model.instance import DirectoryInstance
from repro.storage.maintenance import ReplayError, UpdatableDirectory, UpdateError
from repro.txn.records import ChangeRecord
from repro.workload import random_instance, synthetic_schema


@pytest.fixture
def updatable():
    instance = random_instance(23, size=80)
    return instance, UpdatableDirectory.from_instance(instance, page_size=8)


class TestAdd:
    def test_add_then_query(self, updatable):
        instance, directory = updatable
        root = next(iter(instance.roots())).dn
        directory.add(root.child("name=new1"), ["node"], name="new1", kind="alpha")
        engine = directory.engine()
        result = engine.run("( ? sub ? name=new1)")
        assert len(result) == 1

    def test_duplicate_rejected(self, updatable):
        instance, directory = updatable
        existing = next(iter(instance)).dn
        with pytest.raises(UpdateError):
            directory.add(existing, ["node"], name="x")

    def test_duplicate_within_log_rejected(self, updatable):
        instance, directory = updatable
        root = next(iter(instance.roots())).dn
        dn = root.child("name=dup")
        directory.add(dn, ["node"], name="dup")
        with pytest.raises(UpdateError):
            directory.add(dn, ["node"], name="dup")

    def test_schema_still_enforced(self, updatable):
        instance, directory = updatable
        root = next(iter(instance.roots())).dn
        with pytest.raises(SchemaError):
            directory.add(root.child("name=bad"), ["martian"], name="bad")

    def test_length_tracks_pending(self, updatable):
        instance, directory = updatable
        before = len(directory)
        root = next(iter(instance.roots())).dn
        directory.add(root.child("name=n1"), ["node"], name="n1")
        assert len(directory) == before + 1


class TestDelete:
    def test_delete_leaf(self, updatable):
        instance, directory = updatable
        leaf = next(
            e.dn for e in instance if not any(True for _ in instance.children_of(e.dn))
        )
        directory.delete(leaf)
        assert directory.lookup(leaf) is None
        directory.compact()
        assert all(e.dn != leaf for e in directory.store.scan_all())

    def test_delete_inner_requires_recursive(self, updatable):
        instance, directory = updatable
        inner = next(
            e.dn for e in instance if any(True for _ in instance.children_of(e.dn))
        )
        with pytest.raises(UpdateError):
            directory.delete(inner)
        subtree_size = len(list(instance.subtree(inner)))
        directory.delete(inner, recursive=True)
        directory.compact()
        assert len(directory.store) == len(instance) - subtree_size

    def test_delete_missing(self, updatable):
        _instance, directory = updatable
        with pytest.raises(UpdateError):
            directory.delete("name=ghost")

    def test_delete_pending_add(self, updatable):
        instance, directory = updatable
        root = next(iter(instance.roots())).dn
        dn = root.child("name=temp")
        directory.add(dn, ["node"], name="temp")
        directory.delete(dn)
        directory.compact()
        assert directory.lookup(dn) is None


class TestModify:
    def test_replace_values(self, updatable):
        instance, directory = updatable
        victim = next(e for e in instance if e.has("kind"))
        directory.modify(victim.dn, replace={"kind": ["omega"]})
        assert directory.lookup(victim.dn).values("kind") == ("omega",)
        directory.compact()
        stored = directory.lookup(victim.dn)
        assert stored.values("kind") == ("omega",)

    def test_add_and_remove_values(self, updatable):
        instance, directory = updatable
        victim = next(e for e in instance if e.has("kind"))
        directory.modify(victim.dn, add_values={"tag": ["added"]})
        assert "added" in directory.lookup(victim.dn).values("tag")
        directory.modify(victim.dn, remove_values={"tag": ["added"]})
        assert "added" not in directory.lookup(victim.dn).values("tag")

    def test_remove_attribute_entirely(self, updatable):
        instance, directory = updatable
        victim = next(e for e in instance if e.has("tag"))
        directory.modify(victim.dn, replace={"tag": []})
        assert not directory.lookup(victim.dn).has("tag")

    def test_protected_attributes(self, updatable):
        instance, directory = updatable
        victim = next(iter(instance))
        rdn_attr = next(victim.dn.rdn.attributes())
        with pytest.raises(UpdateError):
            directory.modify(victim.dn, replace={rdn_attr: ["evil"]})
        with pytest.raises(UpdateError):
            directory.modify(victim.dn, replace={"objectClass": ["other"]})

    def test_modify_missing(self, updatable):
        _instance, directory = updatable
        with pytest.raises(UpdateError):
            directory.modify("name=ghost", replace={"kind": ["x"]})


class TestErrorCodes:
    """UpdateError carries a structured code -- no message sniffing."""

    def test_duplicate_add(self, updatable):
        instance, directory = updatable
        existing = next(iter(instance)).dn
        with pytest.raises(UpdateError) as excinfo:
            directory.add(existing, ["node"], name="x")
        assert excinfo.value.code == UpdateError.ALREADY_EXISTS

    def test_delete_missing(self, updatable):
        _instance, directory = updatable
        with pytest.raises(UpdateError) as excinfo:
            directory.delete("name=ghost")
        assert excinfo.value.code == UpdateError.NO_SUCH_ENTRY

    def test_delete_nonleaf(self, updatable):
        instance, directory = updatable
        inner = next(
            e.dn for e in instance if any(True for _ in instance.children_of(e.dn))
        )
        with pytest.raises(UpdateError) as excinfo:
            directory.delete(inner)
        assert excinfo.value.code == UpdateError.HAS_CHILDREN

    def test_modify_missing(self, updatable):
        _instance, directory = updatable
        with pytest.raises(UpdateError) as excinfo:
            directory.modify("name=ghost", replace={"kind": ["x"]})
        assert excinfo.value.code == UpdateError.NO_SUCH_ENTRY

    def test_modify_protected(self, updatable):
        instance, directory = updatable
        victim = next(iter(instance))
        with pytest.raises(UpdateError) as excinfo:
            directory.modify(victim.dn, replace={"objectClass": ["other"]})
        assert excinfo.value.code == UpdateError.PROTECTED_ATTRIBUTE

    def test_default_code(self):
        assert UpdateError("boom").code == UpdateError.OTHER


class TestCompaction:
    def test_noop_when_empty(self, updatable):
        _instance, directory = updatable
        store = directory.store
        assert directory.compact() is store  # unchanged

    def test_order_preserved(self, updatable):
        instance, directory = updatable
        root = next(iter(instance.roots())).dn
        for index in range(10):
            directory.add(root.child("name=zz%d" % index), ["node"], name="zz%d" % index)
        directory.compact()
        keys = [e.dn.key() for e in directory.store.scan_all()]
        assert keys == sorted(keys)

    def test_auto_compaction(self):
        instance = random_instance(24, size=40)
        directory = UpdatableDirectory.from_instance(instance, auto_compact_at=5)
        root = next(iter(instance.roots())).dn
        for index in range(12):
            directory.add(root.child("name=a%d" % index), ["node"], name="a%d" % index)
        assert directory.compactions >= 2
        assert directory.pending() < 5

    def test_indices_rebuilt(self, updatable):
        instance, directory = updatable
        directory.store.build_indices(("name",))
        root = next(iter(instance.roots())).dn
        directory.add(root.child("name=indexedx"), ["node"], name="indexedx")
        directory.compact()
        positions = list(directory.store.indices["name"].scan("indexedx", "indexedx"))
        assert len(positions) == 1

    def test_queries_see_all_updates(self, updatable):
        instance, directory = updatable
        root = next(iter(instance.roots())).dn
        directory.add(root.child("name=q1"), ["node"], name="q1", kind="delta")
        victim = next(e for e in instance if e.has("kind") and e.dn != root)
        directory.modify(victim.dn, replace={"kind": ["delta"]})
        engine = directory.engine()
        result = engine.run("( ? sub ? kind=delta)")
        dns = result.dns()
        assert str(root.child("name=q1")) in dns
        assert str(victim.dn) in dns


class TestReplay:
    """``apply_record``: the path crash recovery and replication share."""

    def _record(self, directory, name, lsn):
        root = next(iter(directory.store.scan_all())).dn
        dn = root.child("name=%s" % name)
        entry = DirectoryInstance(directory.schema).add(dn, ["node"], name=name)
        return ChangeRecord("add", dn, entry=entry, lsn=lsn)

    def test_duplicate_delivery_is_skipped(self, updatable):
        _instance, directory = updatable
        record = self._record(directory, "replayed", 1)
        assert directory.apply_record(record) is True
        assert directory.apply_record(record) is False
        assert directory.head_lsn == 1 and directory.pending() == 1

    def test_gapped_record_is_rejected_before_it_is_applied(self, updatable):
        _instance, directory = updatable
        assert directory.head_lsn == 0
        gapped = self._record(directory, "gapped", 5)
        with pytest.raises(ReplayError, match="log says 5, chain says 1"):
            directory.apply_record(gapped)
        assert directory.head_lsn == 0
        assert directory.pending() == 0
        assert directory.lookup(gapped.dn) is None
        # The replica is intact: the record that was due still applies.
        in_order = self._record(directory, "in-order", 1)
        assert directory.apply_record(in_order) is True
        assert directory.head_lsn == 1
        assert directory.lookup(in_order.dn) is not None
        assert directory.lookup(gapped.dn) is None
