"""Change records: the unit of logging, replay and cache maintenance.

Every validated mutation of an :class:`~repro.storage.maintenance.
UpdatableDirectory` is described by one :class:`ChangeRecord`:

- ``kind`` -- ``"add"`` / ``"delete"`` / ``"modify"``;
- ``dn`` -- the updated entry's dn;
- ``subtree`` -- True only for recursive deletes (the updated region is
  the dn's whole subtree);
- ``entry`` -- the *resulting* entry for adds and modifies (a modify is
  logged as the full post-image, so replay never needs the pre-image);
- ``lsn`` -- the log sequence number, assigned when the record enters the
  version chain (and, for a durable directory, the WAL).

Records are what the WAL serialises, what recovery replays, and what the
incremental cache maintainer consumes -- one shape for all three, so the
replay path and the online path cannot drift apart.

Serialisation is JSON (schema validation already happened before a record
exists, so replay applies records verbatim): attribute values survive as
the ``int``/``str`` values the schema coerced them to, and dn-valued
attributes (the references Section 7's ``vd``/``dv`` join on) as a tagged
``{"dn": text}`` object that decodes back to a :class:`~repro.model.dn.DN`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..model.dn import DN
from ..model.entry import Entry

__all__ = ["ChangeRecord", "RecordError"]

KINDS = ("add", "delete", "modify")


class RecordError(ValueError):
    """Raised for malformed serialised change records."""


class ChangeRecord:
    """One validated mutation, replayable without re-validation."""

    __slots__ = ("kind", "dn", "subtree", "entry", "lsn", "pre_image")

    def __init__(
        self,
        kind: str,
        dn: DN,
        subtree: bool = False,
        entry: Optional[Entry] = None,
        lsn: Optional[int] = None,
    ):
        if kind not in KINDS:
            raise RecordError("unknown record kind %r" % kind)
        if kind in ("add", "modify") and entry is None:
            raise RecordError("%s records carry the resulting entry" % kind)
        if subtree and kind != "delete":
            raise RecordError("only deletes can be subtree-wide")
        self.kind = kind
        self.dn = dn
        self.subtree = subtree
        self.entry = entry
        self.lsn = lsn
        #: The replaced/removed entry for deletes and modifies, attached by
        #: the online write path (which already holds it for validation).
        #: Transient: never serialised, so replayed records carry None and
        #: consumers needing it (incremental statistics) must fall back to
        #: a rebuild.
        self.pre_image: Optional[Entry] = None

    # -- serialisation -------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """A JSON-serialisable dict (the WAL's record payload)."""
        payload: Dict[str, Any] = {
            "lsn": self.lsn,
            "kind": self.kind,
            "dn": str(self.dn),
        }
        if self.subtree:
            payload["subtree"] = True
        if self.entry is not None:
            payload["classes"] = sorted(self.entry.classes)
            payload["attributes"] = {
                attr: [
                    {"dn": str(v)} if isinstance(v, DN) else v
                    for v in self.entry.values(attr)
                ]
                for attr in self.entry.attributes()
            }
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ChangeRecord":
        try:
            kind = payload["kind"]
            dn = DN.parse(payload["dn"])
            lsn = payload["lsn"]
        except (KeyError, TypeError, ValueError) as exc:
            raise RecordError("malformed change record: %s" % exc) from exc
        entry = None
        if kind in ("add", "modify"):
            try:
                attributes = {
                    attr: [
                        DN.parse(v["dn"]) if isinstance(v, dict) else v for v in values
                    ]
                    for attr, values in payload.get("attributes", {}).items()
                }
                entry = Entry(dn, payload["classes"], attributes)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise RecordError("malformed %s payload: %s" % (kind, exc)) from exc
        return cls(
            kind,
            dn,
            subtree=bool(payload.get("subtree", False)),
            entry=entry,
            lsn=lsn,
        )

    def __repr__(self) -> str:
        extra = "/subtree" if self.subtree else ""
        return "ChangeRecord(lsn=%s, %s%s %s)" % (self.lsn, self.kind, extra, self.dn)
