"""The snapshot/delta protocol shared by every counter block.

The repository observes itself through plain-integer counter blocks --
:class:`~repro.storage.pager.IOStats` for page transfers,
:class:`~repro.cache.stats.CacheStats` for cache activity -- and the usual
way to measure one phase is to *bracket* it: snapshot the live counters,
run the phase, subtract (every span of :mod:`repro.obs.trace` brackets
the pager's ``IOStats`` so).  :class:`StatCounters` factors that protocol out
so every block offers the same three operations and new blocks get them for
free:

- :meth:`~StatCounters.snapshot` -- an immutable-by-convention copy;
- :meth:`~StatCounters.since` -- the counter-wise difference from an
  earlier snapshot;
- :meth:`~StatCounters.as_dict` -- the counters as a plain dict (the
  machine-readable form every exporter consumes).

Subclasses declare their counters (two or more) via ``__slots__`` and
accept them as arguments of ``__init__`` in declaration order (zero
defaults), which is all the base needs to reconstruct instances
generically; the base reads the counter names once per class, when the
subclass is defined.

Concurrency: a live block that is mutated by more than one thread (the
pager's ``IOStats`` under the federation worker pool, a shared cache's
``CacheStats``) can have its owner's lock attached via
:meth:`StatCounters.attach_lock`; :meth:`snapshot` and :meth:`since` then
read all fields under that lock, so a bracketed snapshot is always a
*consistent* point on the counter timeline -- never a torn view with one
field from before an operation and another from after it.  Snapshots
themselves are plain copies without the lock (immutable by convention).
"""

from __future__ import annotations

from operator import attrgetter, sub
from typing import Dict, Tuple

__all__ = ["StatCounters"]


class StatCounters:
    """Base class for counter blocks with snapshot/delta semantics."""

    __slots__ = ("_lock",)

    #: The counter names, in declaration order across the hierarchy
    #: (private slots such as the attached lock are not counters), and a
    #: getter of their values as a tuple; both set once per subclass.
    _fields: Tuple[str, ...] = ()
    _values = staticmethod(lambda counters: ())

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in getattr(klass, "__slots__", ())
            if not name.startswith("_")
        )
        cls._fields = names
        cls._values = attrgetter(*names)

    @classmethod
    def field_names(cls) -> Tuple[str, ...]:
        """The counter names, in declaration order across the hierarchy."""
        return cls._fields

    def attach_lock(self, lock) -> None:
        """Guard :meth:`snapshot`/:meth:`since` with the owner's lock (the
        same lock the owner holds while incrementing the counters)."""
        self._lock = lock

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain ``{name: value}`` dict."""
        return dict(zip(self._fields, self._values(self)))

    def snapshot(self) -> "StatCounters":
        """A point-in-time copy (use with :meth:`since` to bracket a
        phase)."""
        try:
            lock = self._lock
        except AttributeError:
            return type(self)(*self._values(self))
        with lock:
            return type(self)(*self._values(self))

    def since(self, earlier: "StatCounters") -> "StatCounters":
        """The counter-wise delta from an earlier snapshot."""
        if type(earlier) is not type(self):
            raise TypeError(
                "cannot diff %s against %s"
                % (type(self).__name__, type(earlier).__name__)
            )
        values = self._values
        try:
            lock = self._lock
        except AttributeError:
            return type(self)(*map(sub, values(self), values(earlier)))
        with lock:
            return type(self)(*map(sub, values(self), values(earlier)))
