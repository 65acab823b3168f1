"""DN/RDN algebra: parsing, escaping, ordering, hierarchy tests."""

import pytest
from hypothesis import given, strategies as st

from repro.model.dn import (
    DN,
    ROOT_DN,
    RDN,
    DNSyntaxError,
    _split_escaped,
    _split_unescaped,
    escape_value,
    unescape_value,
)


class TestRDN:
    def test_single(self):
        rdn = RDN.single("dc", "com")
        assert rdn.canonical() == "dc=com"
        assert ("dc", "com") in rdn
        assert len(rdn) == 1

    def test_parse_multi_valued(self):
        rdn = RDN.parse("cn=jag+uid=17")
        assert len(rdn) == 2
        assert rdn.canonical() == "cn=jag+uid=17"

    def test_multi_valued_order_independent(self):
        assert RDN.parse("a=1+b=2") == RDN.parse("b=2+a=1")
        assert hash(RDN.parse("a=1+b=2")) == hash(RDN.parse("b=2+a=1"))

    def test_empty_rejected(self):
        with pytest.raises(DNSyntaxError):
            RDN([])

    def test_missing_equals_rejected(self):
        with pytest.raises(DNSyntaxError):
            RDN.parse("justaname")

    def test_empty_attribute_rejected(self):
        with pytest.raises(DNSyntaxError):
            RDN.parse("=value")

    def test_escaped_separator_in_value(self):
        rdn = RDN.parse(r"cn=doe\, john")
        assert ("cn", "doe, john") in rdn

    def test_attributes_iteration(self):
        rdn = RDN.parse("a=1+b=2")
        assert sorted(rdn.attributes()) == ["a", "b"]

    def test_ordering_by_canonical(self):
        assert RDN.parse("a=1") < RDN.parse("b=1")


class TestEscaping:
    @given(st.text(min_size=0, max_size=30))
    def test_roundtrip(self, value):
        assert unescape_value(escape_value(value)) == value

    def test_special_chars_escaped(self):
        assert escape_value("a,b") == r"a\,b"
        assert escape_value("a=b+c") == r"a\=b\+c"

    def test_dangling_escape_rejected(self):
        with pytest.raises(DNSyntaxError):
            unescape_value("abc\\")

    def test_edge_whitespace_escaped(self):
        assert escape_value(" w1") == r"\ w1"
        assert escape_value("w1 ") == "w1\\ "
        assert escape_value(" ") == "\\ "
        assert escape_value("a b") == "a b"

    def test_nothing_to_escape_is_returned_as_is(self):
        value = "plain value"
        assert escape_value(value) is value
        assert unescape_value(value) is value

    def test_escaped_trailing_space_parses(self):
        dn = DN.parse("name=w1\\ , name=e0")
        assert dn.rdn.avas == frozenset({("name", "w1 ")})
        assert DN.parse("name=w1\\ ").rdn.avas == frozenset({("name", "w1 ")})
        assert RDN.parse("  name = \\ w1\\  ").avas == frozenset({("name", " w1 ")})


class TestDNBasics:
    def test_parse_and_str_roundtrip(self):
        text = "dc=research, dc=att, dc=com"
        dn = DN.parse(text)
        assert str(dn) == text
        assert DN.parse(str(dn)) == dn

    def test_empty_is_root(self):
        assert DN.parse("") == ROOT_DN
        assert ROOT_DN.is_null()
        assert ROOT_DN.depth() == 0

    def test_rdn_and_parent(self):
        dn = DN.parse("a=1, b=2, c=3")
        assert dn.rdn == RDN.parse("a=1")
        assert dn.parent == DN.parse("b=2, c=3")
        assert dn.depth() == 3

    def test_root_has_no_rdn_or_parent(self):
        with pytest.raises(ValueError):
            _ = ROOT_DN.rdn
        with pytest.raises(ValueError):
            _ = ROOT_DN.parent

    def test_child(self):
        base = DN.parse("dc=com")
        assert base.child("dc=att") == DN.parse("dc=att, dc=com")
        assert base.child(RDN.single("dc", "att")) == DN.parse("dc=att, dc=com")

    def test_of(self):
        assert DN.of("dc=att", "dc=com") == DN.parse("dc=att, dc=com")

    def test_ancestors(self):
        dn = DN.parse("a=1, b=2, c=3")
        assert [str(a) for a in dn.ancestors()] == ["b=2, c=3", "c=3"]

    def test_value_with_comma_roundtrips(self):
        dn = ROOT_DN.child(RDN([("cn", "doe, john")]))
        assert DN.parse(str(dn)) == dn


class TestHierarchy:
    def test_parent_child(self):
        parent = DN.parse("dc=att, dc=com")
        child = DN.parse("dc=research, dc=att, dc=com")
        assert parent.is_parent_of(child)
        assert child.is_child_of(parent)
        assert not child.is_parent_of(parent)
        assert not parent.is_parent_of(parent)

    def test_ancestor_proper(self):
        top = DN.parse("dc=com")
        deep = DN.parse("x=1, dc=att, dc=com")
        assert top.is_ancestor_of(deep)
        assert deep.is_descendant_of(top)
        assert not top.is_ancestor_of(top)

    def test_root_is_ancestor_of_everything(self):
        assert ROOT_DN.is_ancestor_of(DN.parse("dc=com"))
        assert ROOT_DN.is_prefix_of(DN.parse("a=1, b=2"))

    def test_sibling_not_related(self):
        a = DN.parse("dc=a, dc=com")
        b = DN.parse("dc=b, dc=com")
        assert not a.is_ancestor_of(b)
        assert not b.is_ancestor_of(a)
        assert not a.is_prefix_of(b)

    def test_similar_prefix_strings_not_confused(self):
        # "dc=ab" is NOT an ancestor of "dc=abc..." even though the string
        # is a prefix: keys are per-RDN, not per-character.
        a = DN.parse("dc=ab")
        b = DN.parse("x=1, dc=abc")
        assert not a.is_ancestor_of(b)


# -- hypothesis: the reverse-dn key order has exactly the properties the
# -- paper's algorithms need.

_rdn = st.tuples(
    st.sampled_from(["dc", "ou", "cn"]),
    st.text(alphabet="abcz019,=+\\", min_size=1, max_size=4),
)
_dn = st.lists(_rdn, min_size=0, max_size=5).map(
    lambda pairs: DN([RDN([p]) for p in pairs])
)


@given(_dn, _dn)
def test_key_prefix_iff_ancestor_or_self(a, b):
    is_prefix = a.key() == b.key()[: len(a.key())] and len(a.key()) <= len(b.key())
    assert a.is_prefix_of(b) == is_prefix
    assert a.is_ancestor_of(b) == (is_prefix and a.depth() < b.depth())


@given(_dn, _dn)
def test_ancestor_sorts_before_descendant(a, b):
    if a.is_ancestor_of(b):
        assert a.key() < b.key()


@given(st.lists(_dn, min_size=1, max_size=12))
def test_subtrees_contiguous_in_sorted_order(dns):
    ordered = sorted(set(dns), key=lambda dn: dn.key())
    for base in ordered:
        inside = [dn for dn in ordered if base.is_prefix_of(dn)]
        positions = [ordered.index(dn) for dn in inside]
        assert positions == list(range(min(positions), max(positions) + 1))


@given(_dn, _dn)
def test_total_order_consistent_with_equality(a, b):
    assert (a == b) == (a.key() == b.key())
    assert (a < b) == (a.key() < b.key())


# -- the escape-free fast path returns what the escape-aware path returns.


def _outcome(build):
    """What a construction yields, comparably: the dn's key, pairs, string
    and hash -- or the fact that it raised DNSyntaxError."""
    try:
        value = build()
    except DNSyntaxError:
        return DNSyntaxError
    rdns = value.rdns if isinstance(value, DN) else (value,)
    return (
        value.key() if isinstance(value, DN) else value.canonical(),
        [rdn.avas for rdn in rdns],
        str(value),
        hash(value),
    )


def _general_dn(text):
    """``DN.parse`` through the character loop and the general RDN parse."""
    if not text.strip():
        return ROOT_DN
    return DN([RDN._parse_escaped(part) for part in _split_escaped(text, ",")])


_PARSE_TEXT = st.text(alphabet="abx1=,+\\; \t", max_size=16)
_BASE = DN.parse("dc=att, dc=com")


def _assert_fast_equals_general(text):
    assert _outcome(lambda: RDN.parse(text)) == _outcome(
        lambda: RDN._parse_escaped(text)
    )
    assert _outcome(lambda: DN.parse(text)) == _outcome(lambda: _general_dn(text))
    assert _outcome(lambda: _BASE.child(text)) == _outcome(
        lambda: DN((RDN._parse_escaped(text),) + _BASE.rdns)
    )


@given(_PARSE_TEXT)
def test_fast_path_equals_escape_aware_path(text):
    _assert_fast_equals_general(text)


@given(_PARSE_TEXT, st.sampled_from(",+="))
def test_split_equals_character_loop(text, sep):
    assert _split_unescaped(text, sep) == list(_split_escaped(text, sep))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("a=", [frozenset({("a", "")})]),
        ("=b", DNSyntaxError),
        ("a==b", DNSyntaxError),
        ("a=b,,c=d", DNSyntaxError),
        ("a=x;y", [frozenset({("a", "x;y")})]),
        ("a=b+c=d", [frozenset({("a", "b"), ("c", "d")})]),
        (" a = b , c=d ", [frozenset({("a", "b")}), frozenset({("c", "d")})]),
        ("a", DNSyntaxError),
        ("a=b,", DNSyntaxError),
    ],
)
def test_fast_path_edge_cases(text, expected):
    _assert_fast_equals_general(text)
    outcome = _outcome(lambda: DN.parse(text))
    if expected is DNSyntaxError:
        assert outcome is DNSyntaxError
    else:
        assert outcome[1] == expected


@given(
    st.lists(
        st.tuples(st.sampled_from(["dc", "ou", "name"]), st.text(max_size=8)),
        max_size=5,
    )
)
def test_str_parse_roundtrip_over_arbitrary_values(pairs):
    dn = DN([RDN.single(attr, value) for attr, value in pairs])
    parsed = DN.parse(str(dn))
    assert parsed == dn
    assert [rdn.avas for rdn in parsed.rdns] == [rdn.avas for rdn in dn.rdns]
