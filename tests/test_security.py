"""Subtree access control: most-specific-match rule resolution.  The
service applies the list to search results (``tests/server``)."""

from repro.model.dn import DN
from repro.security import AccessControlList

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
