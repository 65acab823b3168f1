"""Benchmark telemetry: machine-readable ``BENCH_<experiment>.json`` files.

The benchmarks already print paper-style tables; this module persists the
same rows (plus wall-clock timings) so the performance trajectory can be
tracked across commits.  Each experiment gets one JSON document:

.. code-block:: json

    {
      "schema_version": 1,
      "experiment": "e13_boolean",
      "tables": {"E13: ...": [{"op": "and", "entries": 2000, ...}, ...]},
      "timings_s": {"count": 12, "total": 0.81, "max": 0.2},
      "meta": {"page_size": 16}
    }

:class:`BenchEmitter` merges repeated :meth:`~BenchEmitter.emit` calls for
the same experiment within one process run (a benchmark may record several
tables), always rewriting the whole file.  The output directory defaults
to ``benchmarks/results`` and honours ``REPRO_BENCH_DIR``.
:func:`validate_bench` is the well-formedness check CI's benchmark-smoke
job (and the tests) run against produced artifacts.

:func:`compare_bench` is the regression gate on top of the same schema:
given a baseline document and a fresh one it reports every row field that
moved the wrong way beyond a tolerance.  Fields are classified by name --
*timing* fields (``ms/query``, ``total_s``, ...) are wall-clock noise on
shared CI runners and are only gated when an explicit
``timing_tolerance`` is supplied; everything else (page counts, message
counts, hit rates, answers) is deterministic for a fixed seed and *is*
gated.  :func:`diff_bench_dirs` lifts the comparison to whole artifact
directories, which is what ``python -m repro bench-diff`` and the CI
perf-gate job run.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "BenchEmitter",
    "validate_bench",
    "load_bench",
    "compare_bench",
    "diff_bench_dirs",
    "DEFAULT_BENCH_DIR",
    "DEFAULT_BASELINE_DIR",
]

SCHEMA_VERSION = 1
DEFAULT_BENCH_DIR = os.path.join("benchmarks", "results")
DEFAULT_BASELINE_DIR = os.path.join("benchmarks", "baselines")

_EXPERIMENT_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

#: Row fields whose values are wall-clock measurements.  They are noisy
#: on shared runners, so the gate skips them unless asked not to.
_TIMING_FIELD_RE = re.compile(
    r"(^|[^a-z])(ms|s|sec|secs|seconds|time|latency|wall|speedup)([^a-z]|$)"
    r"|ms/|/s$|_ms$|_s$",
    re.IGNORECASE,
)

#: Deterministic fields where *larger* is the good direction (for
#: ``parallel_batches``, fewer batches means a scatter went serial);
#: everything else numeric (page transfers, messages, bytes shipped,
#: sizes) is treated as a cost where smaller is better.
_HIGHER_IS_BETTER_RE = re.compile(
    r"speedup|hit|availability|saved|exact|answered|coverage|recall"
    r"|parallel_batches",
    re.IGNORECASE,
)


def is_timing_field(name: str) -> bool:
    """Whether a row field holds a wall-clock measurement (by name)."""
    return bool(_TIMING_FIELD_RE.search(name))


def _direction(name: str) -> int:
    """+1 when larger values are better for this field, -1 when smaller."""
    return 1 if _HIGHER_IS_BETTER_RE.search(name) else -1


class BenchEmitter:
    """Accumulates one process run's benchmark tables and writes them as
    ``BENCH_<experiment>.json`` documents."""

    def __init__(self, out_dir: Optional[str] = None):
        self.out_dir = out_dir or os.environ.get("REPRO_BENCH_DIR", DEFAULT_BENCH_DIR)
        self._payloads: Dict[str, Dict[str, Any]] = {}

    def path_for(self, experiment: str) -> str:
        return os.path.join(self.out_dir, "BENCH_%s.json" % experiment)

    def _payload(self, experiment: str) -> Dict[str, Any]:
        if not _EXPERIMENT_RE.match(experiment):
            raise ValueError("bad experiment name %r" % experiment)
        return self._payloads.setdefault(
            experiment,
            {
                "schema_version": SCHEMA_VERSION,
                "experiment": experiment,
                "tables": {},
                "timings_s": {"count": 0, "total": 0.0, "max": 0.0},
                "meta": {},
            },
        )

    def add_timing(self, experiment: str, elapsed: float) -> None:
        """Fold one measured wall-clock duration into the experiment's
        latency summary (no file write; :meth:`emit` persists)."""
        timings = self._payload(experiment)["timings_s"]
        timings["count"] += 1
        timings["total"] += elapsed
        timings["max"] = max(timings["max"], elapsed)

    def emit(
        self,
        experiment: str,
        title: Optional[str] = None,
        rows: Optional[Sequence[Dict[str, Any]]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Merge a table (and/or metadata) into the experiment's document
        and write it out; returns the file path."""
        payload = self._payload(experiment)
        if title is not None:
            payload["tables"][title] = list(rows or [])
        if meta:
            payload["meta"].update(meta)
        os.makedirs(self.out_dir, exist_ok=True)
        path = self.path_for(experiment)
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=2, sort_keys=True)
            stream.write("\n")
        return path


def load_bench(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as stream:
        return json.load(stream)


def validate_bench(payload: Dict[str, Any]) -> List[str]:
    """Well-formedness problems of a BENCH document ([] when valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            "schema_version %r != %d" % (payload.get("schema_version"), SCHEMA_VERSION)
        )
    experiment = payload.get("experiment")
    if not isinstance(experiment, str) or not _EXPERIMENT_RE.match(experiment or ""):
        problems.append("bad experiment name %r" % (experiment,))
    tables = payload.get("tables")
    if not isinstance(tables, dict) or not tables:
        problems.append("tables missing or empty")
    else:
        for title, rows in tables.items():
            if not isinstance(rows, list) or not rows:
                problems.append("table %r has no rows" % title)
                continue
            for row in rows:
                if not isinstance(row, dict):
                    problems.append("table %r has a non-object row" % title)
                    break
    timings = payload.get("timings_s")
    if not isinstance(timings, dict) or not {"count", "total", "max"} <= set(
        timings or ()
    ):
        problems.append("timings_s missing count/total/max")
    return problems


def compare_bench(
    old: Dict[str, Any],
    new: Dict[str, Any],
    tolerance: float = 0.1,
    timing_tolerance: Optional[float] = None,
) -> Dict[str, Any]:
    """Compare a fresh BENCH document against a baseline.

    Walks every table/row/field of ``old`` and checks the matching cell
    of ``new`` (rows are matched positionally within same-titled tables,
    which is stable because the benchmarks emit rows in a fixed order).
    A *regression* is:

    - a table, row or field present in the baseline but missing now;
    - a non-numeric field (the paper-table ``answer`` strings, operator
      names, ...) whose value changed at all;
    - a numeric non-timing field that moved in its bad direction by more
      than ``tolerance`` (relative);
    - with ``timing_tolerance`` set, a timing field that did the same by
      more than ``timing_tolerance``.

    New tables/rows/fields only in ``new`` are reported as ``added`` but
    never fail the gate.  Returns a report dict; the gate is
    ``report["regressions"]``.
    """
    regressions: List[Dict[str, Any]] = []
    improvements: List[Dict[str, Any]] = []
    added: List[str] = []
    skipped_timing = 0
    compared = 0

    old_tables = old.get("tables") or {}
    new_tables = new.get("tables") or {}
    experiment = old.get("experiment") or new.get("experiment")

    for title in new_tables:
        if title not in old_tables:
            added.append("table %r" % title)

    for title, old_rows in old_tables.items():
        new_rows = new_tables.get(title)
        if new_rows is None:
            regressions.append(
                {"table": title, "problem": "table missing from new artifact"}
            )
            continue
        if len(new_rows) < len(old_rows):
            regressions.append(
                {
                    "table": title,
                    "problem": "row count shrank from %d to %d"
                    % (len(old_rows), len(new_rows)),
                }
            )
        elif len(new_rows) > len(old_rows):
            added.append("table %r rows %d..%d" % (title, len(old_rows), len(new_rows)))
        for index, old_row in enumerate(old_rows):
            if index >= len(new_rows):
                break
            new_row = new_rows[index]
            for field, old_value in old_row.items():
                if field not in new_row:
                    regressions.append(
                        {
                            "table": title,
                            "row": index,
                            "field": field,
                            "problem": "field missing from new artifact",
                            "old": old_value,
                        }
                    )
                    continue
                new_value = new_row[field]
                entry = _compare_field(
                    title, index, field, old_value, new_value,
                    tolerance, timing_tolerance,
                )
                if entry is None:
                    compared += 1
                    continue
                if entry == "skipped-timing":
                    skipped_timing += 1
                    continue
                compared += 1
                if entry.pop("_improved", False):
                    improvements.append(entry)
                else:
                    regressions.append(entry)

    return {
        "experiment": experiment,
        "tolerance": tolerance,
        "timing_tolerance": timing_tolerance,
        "compared_fields": compared,
        "skipped_timing_fields": skipped_timing,
        "regressions": regressions,
        "improvements": improvements,
        "added": added,
    }


def _compare_field(
    title: str,
    index: int,
    field: str,
    old_value: Any,
    new_value: Any,
    tolerance: float,
    timing_tolerance: Optional[float],
):
    """One cell of the diff: None (within tolerance), the string
    ``"skipped-timing"``, or an entry dict (``_improved`` marks the good
    direction)."""
    numeric = isinstance(old_value, (int, float)) and not isinstance(old_value, bool)
    if not numeric or not isinstance(new_value, (int, float)):
        if old_value != new_value:
            return {
                "table": title,
                "row": index,
                "field": field,
                "problem": "value changed",
                "old": old_value,
                "new": new_value,
            }
        return None
    timing = is_timing_field(field)
    if timing and timing_tolerance is None:
        return "skipped-timing"
    bound = timing_tolerance if timing else tolerance
    if old_value == 0:
        change = 0.0 if new_value == 0 else float("inf")
    else:
        change = (new_value - old_value) / abs(old_value)
    # A positive `signed` change is movement in the *bad* direction.
    signed = change * -_direction(field)
    if abs(change) <= bound:
        return None
    entry = {
        "table": title,
        "row": index,
        "field": field,
        "old": old_value,
        "new": new_value,
        "change": round(change, 6) if change != float("inf") else "inf",
    }
    if timing:
        entry["timing"] = True
    if signed <= 0:
        entry["_improved"] = True
    return entry


def diff_bench_dirs(
    old_dir: str,
    new_dir: str,
    tolerance: float = 0.1,
    timing_tolerance: Optional[float] = None,
) -> Dict[str, Any]:
    """Compare every ``BENCH_*.json`` baseline in ``old_dir`` against its
    namesake in ``new_dir``; a baseline with no counterpart is a
    regression.  Extra artifacts in ``new_dir`` are reported as added."""
    old_names = sorted(
        name for name in os.listdir(old_dir)
        if name.startswith("BENCH_") and name.endswith(".json")
    )
    new_names = sorted(
        name for name in os.listdir(new_dir)
        if name.startswith("BENCH_") and name.endswith(".json")
    ) if os.path.isdir(new_dir) else []
    artifacts: List[Dict[str, Any]] = []
    total = 0
    for name in old_names:
        new_path = os.path.join(new_dir, name)
        if not os.path.exists(new_path):
            artifacts.append(
                {
                    "artifact": name,
                    "regressions": [
                        {"problem": "artifact missing from %s" % new_dir}
                    ],
                }
            )
            total += 1
            continue
        report = compare_bench(
            load_bench(os.path.join(old_dir, name)),
            load_bench(new_path),
            tolerance=tolerance,
            timing_tolerance=timing_tolerance,
        )
        report["artifact"] = name
        artifacts.append(report)
        total += len(report["regressions"])
    return {
        "old_dir": old_dir,
        "new_dir": new_dir,
        "tolerance": tolerance,
        "timing_tolerance": timing_tolerance,
        "artifacts": artifacts,
        "added_artifacts": [n for n in new_names if n not in old_names],
        "regressions_total": total,
    }
