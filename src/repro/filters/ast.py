"""Atomic filters (Section 4.1) and LDAP-style boolean filter combinations.

An entry ``r`` satisfies an atomic filter ``F`` (written ``r |= F``) if at
least one (attribute, value) pair of ``val(r)`` satisfies it.  The paper
gives three representative forms, which we implement together with their
obvious relatives:

- presence      ``a=*``
- comparison    ``a < v`` (and ``<=``, ``>``, ``>=``, ``=`` on ints)
- equality      ``a = v`` (typed: string, int or distinguishedName)
- substring     ``a = *v2*`` (wildcard patterns over strings)

The boolean combinations (:class:`FilterAnd`, :class:`FilterOr`,
:class:`FilterNot`) exist for the **LDAP baseline** of Section 8: in LDAP
only *filters* compose, under a single base and scope, whereas in L0 whole
*queries* compose.  The L0+ languages use only atomic filters at the leaves.

Every filter answers ``r |= F`` two ways: :meth:`Filter.matches` walks the
filter for one entry (the definitional semantics uses it), and
:meth:`Filter.page_form` compiles the filter once against a schema into a
``page -> list`` closure that a scan calls per page, with the schema's
type tests, the constant's coercions and the operator resolved up front
and the test inline in one loop over the page.  :meth:`Filter.predicate`
is the page form asked about one entry.  The two agree on every entry,
and count the same evaluation errors.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, List, Optional, Sequence

from ..model.dn import DN, DNSyntaxError
from ..model.entry import Entry
from ..model.schema import DirectorySchema
from ..obs.metrics import get_registry

__all__ = [
    "Filter",
    "Presence",
    "Equality",
    "Substring",
    "Comparison",
    "MatchAll",
    "FilterAnd",
    "FilterOr",
    "FilterNot",
    "FilterError",
]


#: A compiled filter: ``entry -> r |= F``.
Predicate = Callable[[Entry], bool]
#: A compiled filter's page form: ``page -> [r in page | r |= F]``, in page
#: order (always a new list).
PageForm = Callable[[Sequence[Entry]], List[Entry]]


class FilterError(ValueError):
    """Raised for ill-formed filters (bad operator, bad pattern)."""


def _nothing(page: Sequence[Entry]) -> List[Entry]:
    return []


class Filter:
    """Base class.  Subclasses implement :meth:`matches` and
    :meth:`page_form`."""

    def matches(self, entry: Entry, schema: Optional[DirectorySchema] = None) -> bool:
        raise NotImplementedError

    def page_form(self, schema: Optional[DirectorySchema] = None) -> PageForm:
        """This filter compiled against ``schema``: a closure equal to
        ``lambda page: [e for e in page if self.matches(e, schema)]`` that
        does the per-filter work once and makes no call per entry.  Entry
        values are read from the entry's attribute map directly
        (``Entry._values``) instead of through a method."""
        raise NotImplementedError

    def predicate(self, schema: Optional[DirectorySchema] = None) -> Predicate:
        """The page form asked about one entry: ``entry -> r |= F`` (for
        callers that hold one entry, not a page)."""
        select = self.page_form(schema)
        return lambda entry: bool(select((entry,)))

    def __repr__(self) -> str:
        return "<%s %s>" % (type(self).__name__, self)


class MatchAll(Filter):
    """The ``objectClass=*`` idiom: satisfied by every entry (every entry
    has at least one class, hence at least one objectClass value)."""

    def matches(self, entry: Entry, schema: Optional[DirectorySchema] = None) -> bool:
        return True

    def page_form(self, schema: Optional[DirectorySchema] = None) -> PageForm:
        return list

    def __str__(self) -> str:
        return "objectClass=*"

    def __eq__(self, other):
        return isinstance(other, MatchAll)

    def __hash__(self):
        return hash("MatchAll")


class Presence(Filter):
    """``a=*`` -- some value exists for attribute ``a``."""

    def __init__(self, attribute: str):
        self.attribute = attribute

    def matches(self, entry: Entry, schema: Optional[DirectorySchema] = None) -> bool:
        return entry.has(self.attribute)

    def page_form(self, schema: Optional[DirectorySchema] = None) -> PageForm:
        attribute = self.attribute
        return lambda page: [entry for entry in page if attribute in entry._values]

    def __str__(self) -> str:
        return "%s=*" % self.attribute

    def __eq__(self, other):
        return isinstance(other, Presence) and other.attribute == self.attribute

    def __hash__(self):
        return hash(("Presence", self.attribute))


class Equality(Filter):
    """``a = v`` with no wildcards.

    Values are compared after string-normalisation for string attributes,
    numerically for ints, and structurally for DN-valued attributes, so the
    filter works uniformly whether or not a schema is supplied."""

    def __init__(self, attribute: str, value: Any):
        self.attribute = attribute
        self.value = value

    def matches(self, entry: Entry, schema: Optional[DirectorySchema] = None) -> bool:
        target = self.value
        for value in entry.values(self.attribute):
            if _values_equal(value, target):
                return True
        return False

    def page_form(self, schema: Optional[DirectorySchema] = None) -> PageForm:
        """:func:`_values_equal` with the constant's ``str`` and ``int``
        forms computed once: an exact ``str`` value is compared with the
        one, an exact ``int`` with the other.  Every other value (a
        ``bool``, an ``int`` subclass, a ``DN``, an ``int`` against a
        constant with no int form) takes :func:`_values_equal`, which
        counts its coercion failures."""
        attribute, target = self.attribute, self.value
        if isinstance(target, DN):  # every value is compared as a dn
            matches = self.matches
            return lambda page: [entry for entry in page if matches(entry, schema)]
        text = str(target)
        try:
            number: Optional[int] = int(target)
        except (TypeError, ValueError):
            number = None

        def select(page: Sequence[Entry]) -> List[Entry]:
            out = []
            for entry in page:
                values = entry._values
                if attribute not in values:
                    continue
                for value in values[attribute]:
                    kind = value.__class__
                    if kind is str:
                        if value == text:
                            break
                    elif kind is int and number is not None:
                        if value == number:
                            break
                    elif _values_equal(value, target):
                        break
                else:
                    continue
                out.append(entry)
            return out
        return select

    def __str__(self) -> str:
        return "%s=%s" % (self.attribute, self.value)

    def __eq__(self, other):
        return (
            isinstance(other, Equality)
            and other.attribute == self.attribute
            and str(other.value) == str(self.value)
        )

    def __hash__(self):
        return hash(("Equality", self.attribute, str(self.value)))


class Substring(Filter):
    """Wildcard comparison over string values, e.g. ``commonName=*jag*``.

    The pattern is a sequence of literal segments separated by ``*``.  The
    paper's formal definition (``v = v1 v2 v3``) is the two-sided wildcard;
    we support arbitrary patterns like LDAP's substring filters."""

    def __init__(self, attribute: str, pattern: str):
        if "*" not in pattern:
            raise FilterError(
                "substring pattern %r has no wildcard; use Equality" % pattern
            )
        self.attribute = attribute
        self.pattern = pattern
        regex = "".join(
            ".*" if piece == "*" else re.escape(piece)
            for piece in re.split(r"(\*)", pattern)
        )
        #: The pattern compiled: a value matches when the whole of it does
        #: (``regex.fullmatch``; ``*`` spans newlines too).
        self.regex = re.compile(regex, re.DOTALL)

    def matches(self, entry: Entry, schema: Optional[DirectorySchema] = None) -> bool:
        if schema is not None and schema.has_attribute(self.attribute):
            if schema.type_name_of(self.attribute) != "string":
                return False  # tau(a) = string is required (Section 4.1)
        for value in entry.values(self.attribute):
            if isinstance(value, str) and self.regex.fullmatch(value):
                return True
        return False

    def page_form(self, schema: Optional[DirectorySchema] = None) -> PageForm:
        if _mistyped(schema, self.attribute, "string"):
            return _nothing
        attribute, fullmatch = self.attribute, self.regex.fullmatch

        def select(page: Sequence[Entry]) -> List[Entry]:
            out = []
            for entry in page:
                values = entry._values
                if attribute not in values:
                    continue
                for value in values[attribute]:
                    if (value.__class__ is str or isinstance(value, str)) and fullmatch(value):
                        out.append(entry)
                        break
            return out
        return select

    def __str__(self) -> str:
        return "%s=%s" % (self.attribute, self.pattern)

    def __eq__(self, other):
        return (
            isinstance(other, Substring)
            and other.attribute == self.attribute
            and other.pattern == self.pattern
        )

    def __hash__(self):
        return hash(("Substring", self.attribute, self.pattern))


#: Comparison operators admitted on int attributes.
_COMPARATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class Comparison(Filter):
    """``a OP v`` for ``OP`` in ``< <= > >=`` over int attributes, e.g.
    ``SLARulePriority < 3``."""

    def __init__(self, attribute: str, op: str, value: int):
        if op not in _COMPARATORS:
            raise FilterError("unknown comparison operator %r" % op)
        try:
            value = int(value)
        except (TypeError, ValueError):
            raise FilterError("comparison needs an int bound, got %r" % (value,))
        self.attribute = attribute
        self.op = op
        self.value = value

    def matches(self, entry: Entry, schema: Optional[DirectorySchema] = None) -> bool:
        if schema is not None and schema.has_attribute(self.attribute):
            if schema.type_name_of(self.attribute) != "int":
                return False  # tau(a) = int is required (Section 4.1)
        compare = _COMPARATORS[self.op]
        for value in entry.values(self.attribute):
            if isinstance(value, int) and not isinstance(value, bool):
                if compare(value, self.value):
                    return True
        return False

    def page_form(self, schema: Optional[DirectorySchema] = None) -> PageForm:
        if _mistyped(schema, self.attribute, "int"):
            return _nothing
        attribute, bound = self.attribute, self.value
        # The operator inline, with no call per value.
        below, equal = self.op[0] == "<", self.op.endswith("=")

        def select(page: Sequence[Entry]) -> List[Entry]:
            out = []
            for entry in page:
                values = entry._values
                if attribute not in values:
                    continue
                for value in values[attribute]:
                    if value.__class__ is int or (
                        isinstance(value, int) and not isinstance(value, bool)
                    ):
                        if (value < bound if below else value > bound) or (
                            equal and value == bound
                        ):
                            out.append(entry)
                            break
            return out
        return select

    def __str__(self) -> str:
        return "%s%s%s" % (self.attribute, self.op, self.value)

    def __eq__(self, other):
        return (
            isinstance(other, Comparison)
            and (other.attribute, other.op, other.value)
            == (self.attribute, self.op, self.value)
        )

    def __hash__(self):
        return hash(("Comparison", self.attribute, self.op, self.value))


# -- boolean combinations (LDAP baseline only) --------------------------------


def _grouped(filter_: Filter) -> str:
    """Render an operand with exactly one level of parentheses."""
    text = str(filter_)
    if text.startswith("(") and text.endswith(")"):
        return text
    return "(%s)" % text


class FilterAnd(Filter):
    """LDAP ``(&(f1)(f2)...)``."""

    def __init__(self, operands: Sequence[Filter]):
        if not operands:
            raise FilterError("(&) needs at least one operand")
        self.operands: List[Filter] = list(operands)

    def matches(self, entry: Entry, schema: Optional[DirectorySchema] = None) -> bool:
        return all(f.matches(entry, schema) for f in self.operands)

    def page_form(self, schema: Optional[DirectorySchema] = None) -> PageForm:
        """Each operand's page form over what the ones before it kept."""
        selects = [f.page_form(schema) for f in self.operands]

        def select(page: Sequence[Entry]) -> List[Entry]:
            for operand in selects:
                page = operand(page)
            return page
        return select

    def __str__(self) -> str:
        return "(&%s)" % "".join(_grouped(f) for f in self.operands)


class FilterOr(Filter):
    """LDAP ``(|(f1)(f2)...)``."""

    def __init__(self, operands: Sequence[Filter]):
        if not operands:
            raise FilterError("(|) needs at least one operand")
        self.operands: List[Filter] = list(operands)

    def matches(self, entry: Entry, schema: Optional[DirectorySchema] = None) -> bool:
        return any(f.matches(entry, schema) for f in self.operands)

    def page_form(self, schema: Optional[DirectorySchema] = None) -> PageForm:
        """Each operand's page form over what the ones before it left, the
        union kept in page order."""
        selects = [f.page_form(schema) for f in self.operands]

        def select(page: Sequence[Entry]) -> List[Entry]:
            chosen: set = set()
            rest = page
            for operand in selects:
                hits = operand(rest)
                if hits:
                    chosen.update(map(id, hits))
                    rest = [entry for entry in rest if id(entry) not in chosen]
            return [entry for entry in page if id(entry) in chosen]
        return select

    def __str__(self) -> str:
        return "(|%s)" % "".join(_grouped(f) for f in self.operands)


class FilterNot(Filter):
    """LDAP ``(!(f))``.  Not part of L0's query-level operators (L0 has set
    difference instead), but part of the LDAP filter language."""

    def __init__(self, operand: Filter):
        self.operand = operand

    def matches(self, entry: Entry, schema: Optional[DirectorySchema] = None) -> bool:
        return not self.operand.matches(entry, schema)

    def page_form(self, schema: Optional[DirectorySchema] = None) -> PageForm:
        inner = self.operand.page_form(schema)

        def select(page: Sequence[Entry]) -> List[Entry]:
            hits = set(map(id, inner(page)))
            return [entry for entry in page if id(entry) not in hits]
        return select

    def __str__(self) -> str:
        return "(!%s)" % _grouped(self.operand)


def _mistyped(schema: Optional[DirectorySchema], attribute: str, type_name: str) -> bool:
    """Whether ``schema`` declares ``attribute`` with a type other than
    ``type_name`` (an undeclared attribute, or no schema, is not).  Asked
    once per compile; ``matches`` keeps the same test inline because it
    runs once per entry."""
    return (
        schema is not None
        and schema.has_attribute(attribute)
        and schema.type_name_of(attribute) != type_name
    )


def _count_eval_error(kind: str) -> None:
    """Count one silently-absorbed evaluation failure.  The registry is
    looked up per call (errors are rare) so a :func:`set_registry` swap
    is always observed."""
    get_registry().counter(
        "repro_filter_eval_errors_total",
        "Filter evaluations that failed to coerce a value and matched false",
        labelnames=("kind",),
    ).inc(kind=kind)


def _values_equal(value: Any, target: Any) -> bool:
    """Typed equality across the three built-in domains.

    A value that cannot be coerced to the comparison domain compares
    unequal -- but only the *expected* coercion failure is absorbed
    (``DNSyntaxError`` here, ``TypeError``/``ValueError`` for ints
    below), and each absorption is counted in
    ``repro_filter_eval_errors_total``; a bare ``except`` used to hide
    genuine bugs as empty results."""
    if isinstance(value, DN) or isinstance(target, DN):
        try:
            left = value if isinstance(value, DN) else DN.parse(str(value))
            right = target if isinstance(target, DN) else DN.parse(str(target))
        except DNSyntaxError:
            _count_eval_error("dn-coerce")
            return False
        return left == right
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            return value == int(target)
        except (TypeError, ValueError):
            _count_eval_error("int-coerce")
            return False
    return str(value) == str(target)
