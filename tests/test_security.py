"""Subtree access control and the secured engine."""

import pytest

from repro.apps import tops
from repro.engine import QueryEngine
from repro.model.dn import DN
from repro.security import AccessControlList, SecuredEngine

from .engine.test_eval_errors import ER_QUERY, ref_instance  # noqa: F401 (fixture)


@pytest.fixture(scope="module")
def setup():
    directory = tops.build_paper_fragment()
    directory.add_subscriber("divesh", "divesh srivastava", "srivastava")
    directory.add_qhp("divesh", "anyone", priority=1)
    engine = directory.engine(page_size=8)
    return directory, engine


JAG = "uid=jag, ou=userProfiles, dc=research, dc=att, dc=com"
DIVESH = "uid=divesh, ou=userProfiles, dc=research, dc=att, dc=com"


class TestACL:
    def test_default_deny(self):
        acl = AccessControlList()
        assert not acl.readable("anyone", DN.parse(JAG))

    def test_default_allow(self):
        acl = AccessControlList(default_allow=True)
        assert acl.readable(None, DN.parse(JAG))

    def test_subject_scoping(self):
        acl = AccessControlList()
        acl.allow("jag", JAG)
        assert acl.readable("jag", DN.parse(JAG))
        assert acl.readable("jag", DN.parse("QHPName=weekend, " + JAG))
        assert not acl.readable("divesh", DN.parse(JAG))
        assert not acl.readable(None, DN.parse(JAG))

    def test_most_specific_wins(self):
        acl = AccessControlList()
        acl.allow("*", "dc=research, dc=att, dc=com")
        acl.deny("*", JAG)  # deeper scope overrides the broad allow
        assert acl.readable("x", DN.parse(DIVESH))
        assert not acl.readable("x", DN.parse(JAG))
        assert not acl.readable("x", DN.parse("QHPName=weekend, " + JAG))

    def test_specific_allow_inside_deny(self):
        acl = AccessControlList()
        acl.deny("*", JAG)
        acl.allow("*", "QHPName=weekend, " + JAG)
        assert acl.readable("x", DN.parse("QHPName=weekend, " + JAG))
        assert not acl.readable("x", DN.parse(JAG))

    def test_base_only_rule(self):
        acl = AccessControlList()
        acl.allow("*", JAG, base_only=True)
        assert acl.readable("x", DN.parse(JAG))
        assert not acl.readable("x", DN.parse("QHPName=weekend, " + JAG))

    def test_named_subject_beats_wildcard_at_same_scope(self):
        acl = AccessControlList()
        acl.deny("*", JAG)
        acl.allow("jag", JAG)
        assert acl.readable("jag", DN.parse(JAG))
        assert not acl.readable("other", DN.parse(JAG))

    def test_order_breaks_specificity_ties(self):
        acl = AccessControlList()
        acl.deny("*", JAG)
        acl.allow("*", JAG)  # same specificity: the earlier rule wins
        assert not acl.readable("x", DN.parse(JAG))


class TestSecuredEngine:
    def test_subject_sees_own_subtree_only(self, setup):
        _directory, engine = setup
        acl = AccessControlList()
        acl.allow("*", "ou=userProfiles, dc=research, dc=att, dc=com", base_only=True)
        acl.allow("jag", JAG)
        acl.allow("divesh", DIVESH)
        secured = SecuredEngine(engine, acl)
        query = "( ? sub ? objectClass=QHP)"
        assert all("uid=jag" in dn for dn in secured.run(query, subject="jag").dns())
        assert all(
            "uid=divesh" in dn for dn in secured.run(query, subject="divesh").dns()
        )
        assert secured.run(query, subject=None).dns() == []

    def test_filtering_does_not_change_io_semantics(self, setup):
        _directory, engine = setup
        acl = AccessControlList(default_allow=True)
        secured = SecuredEngine(engine, acl)
        open_result = secured.run("( ? sub ? objectClass=*)", subject="anyone")
        raw = engine.run("( ? sub ? objectClass=*)")
        assert open_result.dns() == raw.dns()

    def test_eval_errors_survive_the_acl_filter(self, ref_instance):
        # A result that skipped an undecodable reference must not read as
        # clean once an ACL is applied on top of it.
        engine = QueryEngine.from_instance(ref_instance, page_size=8)
        secured = SecuredEngine(engine, AccessControlList(default_allow=True))
        result = secured.run(ER_QUERY, subject="anyone")
        assert result.dns() == ["cn=good, dc=com"]
        assert result.eval_errors == engine.run(ER_QUERY).eval_errors == 1
