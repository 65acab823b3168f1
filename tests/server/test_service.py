"""The directory service: bind, search, compare, mutations, controls."""

import pytest

from repro.cache import fingerprint
from repro.model.instance import DirectoryInstance
from repro.model.schema import DirectorySchema
from repro.query.builder import Q
from repro.query.parser import parse_query
from repro.security import AccessControlList
from repro.server import DirectoryService, ResultCode

from ..engine.test_eval_errors import ER_QUERY, ref_instance  # noqa: F401 (fixture)


def make_schema() -> DirectorySchema:
    schema = DirectorySchema()
    schema.add_attribute("dc", "string")
    schema.add_attribute("uid", "string")
    schema.add_attribute("cn", "string")
    schema.add_attribute("userPassword", "string")
    schema.add_attribute("grade", "int")
    schema.add_class("dcObject", {"dc"})
    schema.add_class("account", {"uid", "cn", "userPassword", "grade"})
    return schema


def make_instance() -> DirectoryInstance:
    instance = DirectoryInstance(make_schema())
    instance.add("dc=com", ["dcObject"], dc="com")
    for uid, password, grade in (
        ("alice", "wonder", 7),
        ("bob", "builder", 5),
        ("carol", "singer", 5),
    ):
        instance.add(
            "uid=%s, dc=com" % uid,
            ["account"],
            uid=uid,
            cn="%s person" % uid,
            userPassword=password,
            grade=grade,
        )
    return instance


@pytest.fixture
def service():
    instance = make_instance()
    acl = AccessControlList(default_allow=False)
    acl.allow("*", "dc=com", base_only=True)
    acl.allow("uid=alice, dc=com", "dc=com")       # alice reads everything
    acl.allow("uid=bob, dc=com", "uid=bob, dc=com")  # bob reads only himself
    return DirectoryService(instance, acl=acl, page_size=4)


class TestBind:
    def test_success(self, service):
        assert service.bind("uid=alice, dc=com", "wonder") == ResultCode.SUCCESS
        assert service.bound_subject == "uid=alice, dc=com"

    def test_wrong_password(self, service):
        assert service.bind("uid=alice, dc=com", "nope") == ResultCode.INVALID_CREDENTIALS
        assert service.bound_subject is None

    def test_unknown_subject(self, service):
        assert service.bind("uid=ghost, dc=com", "x") == ResultCode.NO_SUCH_OBJECT

    def test_anonymous(self, service):
        service.bind("uid=alice, dc=com", "wonder")
        assert service.bind_anonymous() == ResultCode.SUCCESS
        assert service.bound_subject is None


class TestSearch:
    QUERY = "( ? sub ? objectClass=account)"

    def test_acl_enforced_per_subject(self, service):
        service.bind("uid=alice, dc=com", "wonder")
        assert len(service.search(self.QUERY)) == 3
        service.bind("uid=bob, dc=com", "builder")
        assert service.search(self.QUERY).dns() == ["uid=bob, dc=com"]
        service.bind_anonymous()
        assert len(service.search(self.QUERY)) == 0

    def test_builder_queries_accepted(self, service):
        service.bind("uid=alice, dc=com", "wonder")
        result = service.search(Q.sub("dc=com", "grade>=6"))
        assert result.dns() == ["uid=alice, dc=com"]

    def test_size_limit(self, service):
        service.bind("uid=alice, dc=com", "wonder")
        result = service.search(self.QUERY, size_limit=2)
        assert result.code == ResultCode.SIZE_LIMIT_EXCEEDED
        assert len(result) == 2
        assert result.total_size == 3
        assert result.dns() == service.search(self.QUERY).dns()[:2]

    def test_paged(self, service):
        service.bind("uid=alice, dc=com", "wonder")
        pages = list(service.search_paged(self.QUERY, page_entries=2))
        assert [len(p) for p in pages] == [2, 1]

    def test_projection(self, service):
        service.bind("uid=alice, dc=com", "wonder")
        result = service.search(self.QUERY, attributes=["cn"])
        entry = result.entries[0]
        assert entry.has("cn")
        assert entry.has("uid")  # rdn attribute always kept
        assert not entry.has("userPassword")

    def test_strict_typecheck(self, service):
        service.bind("uid=alice, dc=com", "wonder")
        bad = service.search("( ? sub ? bogus=1)", strict=True)
        assert bad.code == ResultCode.PROTOCOL_ERROR
        assert len(bad) == 0
        good = service.search(self.QUERY, strict=True)
        assert good.code == ResultCode.SUCCESS


class TestSearchPaged:
    QUERY = "( ? sub ? objectClass=account)"

    def test_accepts_string_queries(self, service):
        service.bind("uid=alice, dc=com", "wonder")
        from_str = list(service.search_paged(self.QUERY, page_entries=2))
        from_ast = list(
            service.search_paged(Q.sub("", "objectClass=account"), page_entries=2)
        )
        flatten = lambda pages: [str(e.dn) for page in pages for e in page]
        assert flatten(from_str) == flatten(from_ast)

    def test_pages_are_acl_filtered(self, service):
        service.bind("uid=bob, dc=com", "builder")
        pages = list(service.search_paged(self.QUERY, page_entries=2))
        assert [len(p) for p in pages] == [1]
        assert str(pages[0][0].dn) == "uid=bob, dc=com"

    def test_bad_page_size_raises_eagerly(self, service):
        with pytest.raises(ValueError):
            service.search_paged(self.QUERY, page_entries=0)

    def test_an_empty_answer_has_no_pages(self, service):
        service.bind("uid=alice, dc=com", "wonder")
        assert list(service.search_paged("( ? sub ? uid=nobody)", page_entries=2)) == []


class TestSizeAccounting:
    """total_size counts *visible* entries; the limit truncates them."""

    QUERY = "( ? sub ? objectClass=account)"

    def test_total_size_is_post_acl(self, service):
        service.bind("uid=bob, dc=com", "builder")
        result = service.search(self.QUERY)
        assert result.code == ResultCode.SUCCESS
        assert result.total_size == 1 == len(result)

    def test_limit_applies_to_visible_not_raw(self, service):
        # bob sees one entry; a limit of 1 is therefore NOT exceeded even
        # though three entries matched pre-ACL
        service.bind("uid=bob, dc=com", "builder")
        result = service.search(self.QUERY, size_limit=1)
        assert result.code == ResultCode.SUCCESS
        assert result.total_size == 1

    def test_bad_size_limit_rejected(self, service):
        with pytest.raises(ValueError):
            service.search(self.QUERY, size_limit=0)


class TestEvalErrors:
    def test_eval_errors_survive_the_acl_filter(self, ref_instance):
        # A result that skipped an undecodable reference must not read as
        # clean once an ACL is applied on top of it -- nor, on a repeat,
        # once the cache could have served it.
        acl = AccessControlList(default_allow=True).deny("*", "cn=bad, dc=com")
        service = DirectoryService(ref_instance, acl=acl, page_size=8)
        for _ in range(2):
            result = service.search(ER_QUERY)
            assert result.code == ResultCode.SUCCESS
            assert result.dns() == ["cn=good, dc=com"]
            assert result.eval_errors == 1
            assert not result.cached


class TestCompare:
    def test_true_false(self, service):
        service.bind("uid=alice, dc=com", "wonder")
        assert service.compare("uid=bob, dc=com", "grade", 5) == ResultCode.COMPARE_TRUE
        assert service.compare("uid=bob, dc=com", "grade", 9) == ResultCode.COMPARE_FALSE

    def test_no_such_object(self, service):
        service.bind("uid=alice, dc=com", "wonder")
        assert service.compare("uid=zz, dc=com", "grade", 1) == ResultCode.NO_SUCH_OBJECT

    def test_access_denied(self, service):
        service.bind("uid=bob, dc=com", "builder")
        assert (
            service.compare("uid=alice, dc=com", "grade", 7)
            == ResultCode.INSUFFICIENT_ACCESS
        )


    def test_reads_pending_writes_without_compacting(self, service):
        service.bind("uid=alice, dc=com", "wonder")
        directory = service.directory
        compactions = directory.compactions
        nested = "uid=eve, uid=bob, dc=com"
        assert service.add(nested, ["account"], uid="eve", grade=3) == ResultCode.SUCCESS
        assert service.compare(nested, "grade", 3) == ResultCode.COMPARE_TRUE
        service.modify("uid=bob, dc=com", replace={"grade": [9]})
        assert service.compare("uid=bob, dc=com", "grade", 9) == ResultCode.COMPARE_TRUE
        assert service.compare("uid=bob, dc=com", "grade", 5) == ResultCode.COMPARE_FALSE
        assert service.delete("uid=bob, dc=com", recursive=True) == ResultCode.SUCCESS
        assert service.compare("uid=bob, dc=com", "grade", 9) == ResultCode.NO_SUCH_OBJECT
        assert service.compare(nested, "grade", 3) == ResultCode.NO_SUCH_OBJECT
        # The MVCC overlay answered every compare: nothing was folded.
        assert directory.compactions == compactions
        assert directory.pending() > 0


class TestMutations:
    def test_add_then_visible(self, service):
        service.bind("uid=alice, dc=com", "wonder")
        code = service.add("uid=dave, dc=com", ["account"], uid="dave",
                           cn="dave person", userPassword="x", grade=1)
        assert code == ResultCode.SUCCESS
        assert "uid=dave, dc=com" in service.search("( ? sub ? uid=dave)").dns()

    def test_add_duplicate(self, service):
        assert (
            service.add("uid=alice, dc=com", ["account"], uid="alice")
            == ResultCode.ENTRY_ALREADY_EXISTS
        )

    def test_delete(self, service):
        service.bind("uid=alice, dc=com", "wonder")
        assert service.delete("uid=carol, dc=com") == ResultCode.SUCCESS
        assert service.search("( ? sub ? uid=carol)").dns() == []
        assert service.delete("uid=carol, dc=com") == ResultCode.NO_SUCH_OBJECT

    def test_delete_nonleaf_refused(self, service):
        assert service.delete("dc=com") == ResultCode.UNWILLING_TO_PERFORM

    def test_modify(self, service):
        service.bind("uid=alice, dc=com", "wonder")
        assert (
            service.modify("uid=bob, dc=com", replace={"grade": [9]})
            == ResultCode.SUCCESS
        )
        assert service.search("( ? sub ? grade>=9)").dns() == ["uid=bob, dc=com"]

    def test_modify_protected(self, service):
        assert (
            service.modify("uid=bob, dc=com", replace={"uid": ["eve"]})
            == ResultCode.UNWILLING_TO_PERFORM
        )

    def test_updates_rebuild_engine_view(self, service):
        service.bind("uid=alice, dc=com", "wonder")
        before = len(service.search("( ? sub ? objectClass=account)"))
        service.add("uid=eve, dc=com", ["account"], uid="eve",
                    cn="eve person", userPassword="p", grade=3)
        after = len(service.search("( ? sub ? objectClass=account)"))
        assert after == before + 1


class TestRuleFreeAclPass:
    """An ACL without rules gives every entry its default, so the service
    skips the per-entry walk -- and still hands out a list of its own."""

    QUERY = "( ? sub ? objectClass=account)"
    ACCOUNTS = ["uid=alice, dc=com", "uid=bob, dc=com", "uid=carol, dc=com"]

    @pytest.fixture
    def readable_calls(self, monkeypatch):
        calls = []
        original = AccessControlList.readable

        def counting(acl, subject, dn):
            calls.append(dn)
            return original(acl, subject, dn)

        monkeypatch.setattr(AccessControlList, "readable", counting)
        return calls

    def test_open_acl_returns_every_entry_without_a_walk(self, readable_calls):
        service = DirectoryService(make_instance(), page_size=4)
        for _ in range(2):  # a miss, then a cache hit
            result = service.search(self.QUERY)
            assert result.code == ResultCode.SUCCESS
            assert sorted(result.dns()) == self.ACCOUNTS
            assert result.total_size == 3
        assert result.cached
        assert readable_calls == []

    def test_a_hit_is_a_fresh_list(self):
        service = DirectoryService(make_instance(), page_size=4)
        service.search(self.QUERY)
        resident = service.cache.get(fingerprint(parse_query(self.QUERY)))
        held = list(resident.entries)
        hit = service.search(self.QUERY)
        assert hit.cached
        assert hit.entries is not resident.entries
        hit.entries.clear()
        hit.entries.append(None)
        assert list(resident.entries) == held
        again = service.search(self.QUERY)
        assert again.cached
        assert sorted(again.dns()) == self.ACCOUNTS

    def test_closed_acl_without_rules_is_empty_success(self, readable_calls):
        service = DirectoryService(
            make_instance(), acl=AccessControlList(default_allow=False), page_size=4
        )
        for _ in range(2):
            result = service.search(self.QUERY)
            assert result.code == ResultCode.SUCCESS
            assert len(result) == 0 and result.total_size == 0
        assert result.cached
        assert readable_calls == []

    def test_one_rule_walks_every_entry(self, readable_calls):
        acl = AccessControlList(default_allow=True).deny("*", "uid=bob, dc=com")
        service = DirectoryService(make_instance(), acl=acl, page_size=4)
        for _ in range(2):
            del readable_calls[:]
            result = service.search(self.QUERY)
            assert sorted(result.dns()) == ["uid=alice, dc=com", "uid=carol, dc=com"]
            assert result.total_size == 2
            assert sorted(str(dn) for dn in readable_calls) == self.ACCOUNTS
        assert result.cached
