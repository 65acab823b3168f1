"""Aggregate selection (Section 6): terms, filters and incremental states.

The grammar of Figure 9 builds aggregate selection filters
``AggAttribute IntOp AggAttribute`` from three kinds of aggregate
attributes:

- integer constants, e.g. ``10``;
- *entry aggregates* -- one value per entry: ``agg(a)`` / ``agg($1.a)``
  (over the entry's own values of ``a``), ``agg($2.a)`` (over the values of
  ``a`` across the entry's witness set) and ``count($2)`` (size of the
  witness set);
- *entry-set aggregates* -- one value per operator application:
  ``agg1(entry-aggregate)`` folded across all entries of the first operand,
  ``count($1)`` and ``count($$)``.

Besides the definitional evaluation used by the reference semantics, this
module provides the incremental (distributive/algebraic, in the
terminology the paper borrows from Ross et al.) accumulation of one
aggregate over a multiset: a state is a value ``(values counted, sum, min,
max)`` that :func:`agg_add` and :func:`agg_merge` return anew and
:func:`agg_result` resolves.  The stack passes hold such states per frame
(:class:`repro.engine.common.WitnessFold`); :class:`AggState` holds one
for the selection phase's entry-set aggregates.  ``min``/``max``/``average``
of an empty multiset are undefined; a comparison against an undefined
aggregate is false.  ``count`` of an empty multiset is 0 and ``sum`` is 0.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..model.entry import Entry

__all__ = [
    "AGG_EMPTY",
    "AGG_FUNCS",
    "INT_OPS",
    "AggError",
    "AggState",
    "agg_add",
    "agg_merge",
    "agg_result",
    "Constant",
    "EntryAggregate",
    "EntrySetAggregate",
    "AggSelFilter",
    "WITNESS_COUNT_POSITIVE",
]

AGG_FUNCS = ("min", "max", "count", "sum", "average")

INT_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class AggError(ValueError):
    """Raised for ill-formed aggregate terms."""


def _numeric(values: Iterable[Any]) -> List[float]:
    """Keep the values an integer aggregate can range over."""
    out = []
    for value in values:
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out.append(value)
        elif isinstance(value, str):
            try:
                out.append(int(value))
            except ValueError:
                continue
    return out


#: An aggregate's state over the empty multiset: (values counted, sum,
#: min, max).
AGG_EMPTY: Tuple[int, float, Optional[float], Optional[float]] = (0, 0, None, None)


def agg_add(func: str, state: tuple, values: Sequence[Any]) -> tuple:
    """``state`` with ``values`` added: ``count`` counts every value, the
    other functions the numeric ones."""
    counted, total, low, high = state
    if func == "count":
        return counted + len(values), total, low, high
    for number in _numeric(values):
        counted += 1
        total += number
        if low is None or number < low:
            low = number
        if high is None or number > high:
            high = number
    return counted, total, low, high


def agg_merge(state: tuple, other: tuple) -> tuple:
    """The state of the union of the two states' multisets."""
    low, high = state[2], state[3]
    if other[2] is not None and (low is None or other[2] < low):
        low = other[2]
    if other[3] is not None and (high is None or other[3] > high):
        high = other[3]
    return state[0] + other[0], state[1] + other[1], low, high


def agg_result(func: str, state: tuple) -> Optional[float]:
    """The value of ``func`` over ``state``'s multiset."""
    counted, total, low, high = state
    if func == "count":
        return counted
    if func == "sum":
        return total
    if counted == 0:
        return None  # min/max/average of the empty multiset
    if func == "min":
        return low
    if func == "max":
        return high
    return total / counted  # average


class AggState:
    """One aggregate function's state over a growing multiset, held in
    ``state`` (an :func:`agg_add` value).  ``count`` ignores the values
    themselves; for it, ``add_count`` bumps the counter by an arbitrary
    amount."""

    __slots__ = ("func", "state")

    def __init__(self, func: str):
        if func not in AGG_FUNCS:
            raise AggError("unknown aggregate function %r" % func)
        self.func = func
        self.state = AGG_EMPTY

    def add(self, value: Any) -> None:
        self.state = agg_add(self.func, self.state, (value,))

    def add_count(self, amount: int) -> None:
        if self.func != "count":
            raise AggError("add_count only applies to count aggregates")
        counted, total, low, high = self.state
        self.state = (counted + amount, total, low, high)

    def result(self) -> Optional[float]:
        return agg_result(self.func, self.state)

    def __repr__(self) -> str:
        return "AggState(%s=%r)" % (self.func, self.result())


def apply_func(func: str, values: Iterable[Any]) -> Optional[float]:
    """One-shot evaluation of an aggregate function over a multiset."""
    state = AggState(func)
    if func == "count":
        state.add_count(sum(1 for _ in values))
    else:
        for value in values:
            state.add(value)
    return state.result()


class Constant:
    """An integer constant aggregate attribute."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = int(value)

    def __str__(self) -> str:
        return str(self.value)

    def __eq__(self, other):
        return isinstance(other, Constant) and other.value == self.value

    def __hash__(self):
        return hash(("Constant", self.value))


class EntryAggregate:
    """``agg(target)`` producing one value per entry.

    ``source`` selects the multiset:

    - ``"$1"`` -- values of ``attribute`` on the entry itself (also the
      meaning of a bare attribute name);
    - ``"$2"`` with an attribute -- values of ``attribute`` across the
      entry's witnesses;
    - ``"$2"`` with ``attribute=None`` -- the witness count, i.e.
      ``count($2)``.
    """

    __slots__ = ("func", "source", "attribute")

    def __init__(self, func: str, source: str, attribute: Optional[str]):
        if func not in AGG_FUNCS:
            raise AggError("unknown aggregate function %r" % func)
        if source not in ("$1", "$2"):
            raise AggError("entry aggregate source must be $1 or $2")
        if attribute is None and not (source == "$2" and func == "count"):
            raise AggError("only count($2) may omit the attribute")
        self.func = func
        self.source = source
        self.attribute = attribute

    def needs_witnesses(self) -> bool:
        return self.source == "$2"

    def evaluate(
        self,
        entry: Entry,
        witnesses: Optional[Sequence[Entry]] = None,
    ) -> Optional[float]:
        """``ea[r]`` (Definition 6.1) or ``ea[r, Rs]`` (Definition 6.2)."""
        if self.source == "$1":
            return apply_func(self.func, entry.values(self.attribute))
        if witnesses is None:
            raise AggError(
                "%s references $2 but no witness set is available "
                "(simple aggregate selection has no witnesses)" % self
            )
        if self.attribute is None:
            return len(witnesses)
        values: List[Any] = []
        for witness in witnesses:
            values.extend(witness.values(self.attribute))
        return apply_func(self.func, values)

    def __str__(self) -> str:
        if self.attribute is None:
            return "count($2)"
        prefix = "" if self.source == "$1" else "$2."
        if self.source == "$1":
            prefix = "$1."
        return "%s(%s%s)" % (self.func, prefix, self.attribute)

    def __eq__(self, other):
        return (
            isinstance(other, EntryAggregate)
            and (other.func, other.source, other.attribute)
            == (self.func, self.source, self.attribute)
        )

    def __hash__(self):
        return hash(("EntryAggregate", self.func, self.source, self.attribute))


class EntrySetAggregate:
    """``agg1(ea)``, ``count($1)`` or ``count($$)`` -- one value per
    operator application.

    ``inner is None`` encodes the two counting forms: ``count($1)`` in the
    structural context and ``count($$)`` in the simple context; both count
    the entries of the first operand, so they share a representation and
    differ only in concrete syntax (kept in ``spelling``).
    """

    __slots__ = ("func", "inner", "spelling")

    def __init__(
        self,
        func: str,
        inner: Optional[EntryAggregate],
        spelling: Optional[str] = None,
    ):
        if func not in AGG_FUNCS:
            raise AggError("unknown aggregate function %r" % func)
        if inner is None and func != "count":
            raise AggError("only count may aggregate the bare entry set")
        self.func = func
        self.inner = inner
        self.spelling = spelling or ("count($$)" if inner is None else None)

    def evaluate(
        self,
        population: Sequence[Tuple[Entry, Optional[Sequence[Entry]]]],
    ) -> Optional[float]:
        """``esa[R1]`` / ``esa[R1, R2, f]``: ``population`` pairs every entry
        of the first operand with its witness set (``None`` in the simple
        context)."""
        if self.inner is None:
            return len(population)
        inner_values = [
            self.inner.evaluate(entry, witnesses)
            for entry, witnesses in population
        ]
        return apply_func(
            self.func, [v for v in inner_values if v is not None]
        )

    def __str__(self) -> str:
        if self.inner is None:
            return self.spelling
        return "%s(%s)" % (self.func, self.inner)

    def __eq__(self, other):
        return (
            isinstance(other, EntrySetAggregate)
            and (other.func, other.inner) == (self.func, self.inner)
        )

    def __hash__(self):
        return hash(("EntrySetAggregate", self.func, self.inner))


class AggSelFilter:
    """``aa1 IntOp aa2`` -- the aggregate selection filter."""

    __slots__ = ("left", "op", "right")

    def __init__(self, left, op: str, right):
        if op not in INT_OPS:
            raise AggError("unknown integer comparison %r" % op)
        for side in (left, right):
            if not isinstance(side, (Constant, EntryAggregate, EntrySetAggregate)):
                raise AggError("bad aggregate attribute %r" % (side,))
        self.left = left
        self.op = op
        self.right = right

    def needs_witnesses(self) -> bool:
        """True iff any side references $2 (witness-dependent)."""
        return any(
            isinstance(side, EntryAggregate) and side.needs_witnesses()
            or isinstance(side, EntrySetAggregate)
            and side.inner is not None
            and side.inner.needs_witnesses()
            for side in (self.left, self.right)
        )

    def entry_set_aggregates(self) -> List[EntrySetAggregate]:
        return [
            side
            for side in (self.left, self.right)
            if isinstance(side, EntrySetAggregate)
        ]

    def test(
        self,
        entry: Entry,
        witnesses: Optional[Sequence[Entry]],
        set_values: dict,
    ) -> bool:
        """Evaluate the filter for one entry.  ``set_values`` maps each
        entry-set aggregate (by identity of the object) to its precomputed
        value for this operator application."""
        left = self._side_value(self.left, entry, witnesses, set_values)
        right = self._side_value(self.right, entry, witnesses, set_values)
        if left is None or right is None:
            return False
        return INT_OPS[self.op](left, right)

    @staticmethod
    def _side_value(side, entry, witnesses, set_values):
        if isinstance(side, Constant):
            return side.value
        if isinstance(side, EntryAggregate):
            return side.evaluate(entry, witnesses)
        return set_values[id(side)]

    def test_resolved(
        self,
        entry: Entry,
        resolved: dict,
        set_values: dict,
    ) -> bool:
        """Like :meth:`test`, but $2-sourced entry aggregates are looked up
        in ``resolved`` (a mapping from term to its already-computed value,
        as produced by the external-memory stack pass) instead of being
        recomputed from a witness list."""
        left = self._side_value_resolved(self.left, entry, resolved, set_values)
        right = self._side_value_resolved(self.right, entry, resolved, set_values)
        if left is None or right is None:
            return False
        return INT_OPS[self.op](left, right)

    @staticmethod
    def _side_value_resolved(side, entry, resolved, set_values):
        if isinstance(side, Constant):
            return side.value
        if isinstance(side, EntryAggregate):
            if side.needs_witnesses():
                return resolved[side]
            return side.evaluate(entry, None)
        return set_values[id(side)]

    def __str__(self) -> str:
        return "%s %s %s" % (self.left, self.op, self.right)

    def __eq__(self, other):
        return (
            isinstance(other, AggSelFilter)
            and (other.left, other.op, other.right)
            == (self.left, self.op, self.right)
        )

    def __hash__(self):
        return hash(("AggSelFilter", self.left, self.op, self.right))


#: ``count($2) > 0``: the aggregate filter that turns a structural aggregate
#: operator back into the plain L1 hierarchical operator (end of Section 6.2).
WITNESS_COUNT_POSITIVE = AggSelFilter(
    EntryAggregate("count", "$2", None), ">", Constant(0)
)
