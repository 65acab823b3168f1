"""Benchmark telemetry: the ``BENCH_<experiment>.json`` documents and their gate.

Each benchmark module's tables are persisted as one JSON document::

    {"schema_version": 1, "experiment": "e13_boolean",
     "tables": {"E13: ...": [{"op": "and", "entries": 2000, ...}, ...]},
     "timings_s": {"count": 12, "total": 0.81, "max": 0.2},
     "meta": {"page_size": 16}}

:class:`BenchEmitter` writes them (to ``benchmarks/results`` unless
``REPRO_BENCH_DIR`` names another directory), :func:`validate_bench` checks
their shape, and :func:`compare_bench` gates one against its committed
baseline, field by field:

- a missing table, row, field or artifact fails, as does a shrunk row
  count; additions never fail;
- a non-numeric value must be equal;
- a deterministic number (page I/O, messages, hit rates, result sizes) that
  moves past the relative tolerance **in either direction** fails: a moved
  count means the baseline no longer describes the program;
- a wall-clock number (``ms/query``, ``wall ms``, ``total_s``) is never gated.

Run from the repository root (``check`` takes files or directories of
``BENCH_*.json``, ``diff`` two files or two directories; both exit 1 on a
failure)::

    python -m benchmarks.telemetry check PATH...
    python -m benchmarks.telemetry diff OLD NEW [--tolerance T] [--report PATH]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

SCHEMA_VERSION = 1
DEFAULT_BENCH_DIR = os.path.join("benchmarks", "results")

_EXPERIMENT_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

#: Row fields whose values are wall-clock measurements: noisy on shared
#: runners, so the gate never compares them.
_TIMING_FIELD_RE = re.compile(
    r"(^|[^a-z])(ms|s|sec|secs|seconds|time|latency|wall|speedup)([^a-z]|$)"
    r"|ms/|/s$|_ms$|_s$", re.IGNORECASE)


def is_timing_field(name: str) -> bool:
    """Whether a row field holds a wall-clock measurement (by name)."""
    return bool(_TIMING_FIELD_RE.search(name))


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
        return self._payloads.setdefault(experiment, {
            "schema_version": SCHEMA_VERSION, "experiment": experiment, "tables": {},
            "timings_s": {"count": 0, "total": 0.0, "max": 0.0}, "meta": {},
        })

    def add_timing(self, experiment: str, elapsed: float) -> None:
        """Fold one measured wall-clock duration into the experiment's
        latency summary (no file write; :meth:`emit` persists)."""
        timings = self._payload(experiment)["timings_s"]
        timings["count"] += 1
        timings["total"] += elapsed
        timings["max"] = max(timings["max"], elapsed)

    def emit(self, experiment: str, title: Optional[str] = None,
             rows: Optional[Sequence[Dict[str, Any]]] = None,
             meta: Optional[Dict[str, Any]] = None) -> str:
        """Merge a table (and/or metadata) into the experiment's document
        and write it out; returns the file path."""
        payload = self._payload(experiment)
        if title is not None:
            payload["tables"][title] = list(rows or [])
        if meta:
            payload["meta"].update(meta)
        os.makedirs(self.out_dir, exist_ok=True)
        return _write_json(self.path_for(experiment), payload)


def _write_json(path: str, payload: Dict[str, Any]) -> str:
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
        problems.append("schema_version %r != %d" % (
            payload.get("schema_version"), SCHEMA_VERSION))
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
            elif not all(isinstance(row, dict) for row in rows):
                problems.append("table %r has a non-object row" % title)
    timings = payload.get("timings_s")
    if not isinstance(timings, dict) or not {"count", "total", "max"} <= set(timings):
        problems.append("timings_s missing count/total/max")
    return problems


def compare_bench(old: Dict[str, Any], new: Dict[str, Any],
                  tolerance: float = 0.1) -> Dict[str, Any]:
    """Compare a fresh BENCH document against a baseline (the rules are in
    the module docstring).  Rows are matched by position within same-titled
    tables: the benchmarks emit them in a fixed order.  The gate is the
    report's ``regressions`` list."""
    regressions: List[Dict[str, Any]] = []
    compared = skipped_timing = 0
    old_tables = old.get("tables") or {}
    new_tables = new.get("tables") or {}
    added = ["table %r" % title for title in new_tables if title not in old_tables]
    for title, old_rows in old_tables.items():
        new_rows = new_tables.get(title)
        if new_rows is None:
            regressions.append({"table": title, "problem": "table missing"})
            continue
        if len(new_rows) < len(old_rows):
            regressions.append({"table": title, "problem": "row count shrank from %d to %d"
                                % (len(old_rows), len(new_rows))})
        elif len(new_rows) > len(old_rows):
            added.append("table %r rows %d..%d" % (title, len(old_rows), len(new_rows)))
        for index, (old_row, new_row) in enumerate(zip(old_rows, new_rows)):
            for field, old_value in old_row.items():
                cell = {"table": title, "row": index, "field": field, "old": old_value}
                if field not in new_row:
                    cell["problem"] = "field missing from new artifact"
                    regressions.append(cell)
                    continue
                new_value = cell["new"] = new_row[field]
                if not (_number(old_value) and _number(new_value)):
                    compared += 1
                    if old_value != new_value:
                        cell["problem"] = "value changed"
                        regressions.append(cell)
                elif is_timing_field(field):
                    skipped_timing += 1
                else:
                    compared += 1
                    change = _relative_change(old_value, new_value)
                    if abs(change) > tolerance:
                        cell["problem"] = "moved %+.1f%%" % (100 * change)
                        regressions.append(cell)
    return {"experiment": old.get("experiment") or new.get("experiment"),
            "compared_fields": compared, "skipped_timing_fields": skipped_timing,
            "regressions": regressions, "added": added}


def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _relative_change(old: float, new: float) -> float:
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - old) / abs(old)


def _bench_files(directory: str) -> List[str]:
    return sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))


def diff_bench(old: str, new: str, tolerance: float = 0.1) -> Dict[str, Any]:
    """Compare a baseline against a fresh artifact: two files, or every
    ``BENCH_*.json`` of one directory against its namesake in another.  A
    baseline with no counterpart is a regression; extra fresh artifacts
    are listed as added."""
    if os.path.isdir(old) != os.path.isdir(new):
        raise SystemExit("old and new must both be files or both directories")
    pairs: List[Tuple[str, str]] = [(old, new)]
    added: List[str] = []
    if os.path.isdir(old):
        names = [os.path.basename(path) for path in _bench_files(old)]
        pairs = [(os.path.join(old, name), os.path.join(new, name)) for name in names]
        added = [name for name in map(os.path.basename, _bench_files(new))
                 if name not in names]
    artifacts: List[Dict[str, Any]] = []
    for old_path, new_path in pairs:
        if os.path.exists(new_path):
            report = compare_bench(load_bench(old_path), load_bench(new_path), tolerance)
        else:
            report = {"regressions": [{"problem": "artifact missing: %s" % new_path}]}
        report["artifact"] = os.path.basename(new_path)
        artifacts.append(report)
    return {"old": old, "new": new, "tolerance": tolerance, "artifacts": artifacts,
            "added_artifacts": added,
            "regressions_total": sum(len(a["regressions"]) for a in artifacts)}


def _render(entry: Dict[str, Any]) -> str:
    where = entry.get("table", "artifact")
    if "row" in entry:
        where += "[%d].%s" % (entry["row"], entry["field"])
    if "old" in entry:
        return "%s: %s (%r -> %r)" % (where, entry["problem"], entry["old"], entry.get("new"))
    return "%s: %s" % (where, entry["problem"])


def _check(paths: Sequence[str]) -> int:
    failures = 0
    for path in paths:
        files = _bench_files(path) if os.path.isdir(path) else [path]
        if not files:
            # An empty artifact set must not pass CI silently.
            raise SystemExit("%s: no BENCH_*.json artifacts inside" % path)
        for name in files:
            try:
                payload = load_bench(name)
                problems = validate_bench(payload)
            except (OSError, ValueError) as exc:
                problems = ["unreadable (%s)" % exc]
            if problems:
                failures += 1
                print("%s: INVALID" % name)
                for problem in problems:
                    print("  - %s" % problem)
            else:
                tables = payload["tables"]
                rows = sum(len(r) for r in tables.values())
                print("%s: ok (%d tables, %d rows)" % (name, len(tables), rows))
    return 1 if failures else 0


def _diff(args: argparse.Namespace) -> int:
    report = diff_bench(args.old, args.new, args.tolerance)
    if args.report:
        _write_json(args.report, report)
    for artifact in report["artifacts"]:
        regressions = artifact["regressions"]
        if regressions:
            print("%s: %d REGRESSION(S)" % (artifact["artifact"], len(regressions)))
            for entry in regressions:
                print("  - %s" % _render(entry))
        else:
            print("%s: ok (%d fields compared, %d timing skipped)" % (
                artifact["artifact"], artifact["compared_fields"],
                artifact["skipped_timing_fields"]))
    if report["regressions_total"]:
        print("diff: %d regression(s) beyond tolerance %g" % (
            report["regressions_total"], args.tolerance))
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.telemetry")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="validate BENCH_*.json files or directories")
    check.add_argument("paths", nargs="+", metavar="PATH")
    diff = sub.add_parser("diff", help="fail when a baseline's table, row or "
                                       "deterministic field moved")
    diff.add_argument("old", help="baseline BENCH_*.json file or directory")
    diff.add_argument("new", help="fresh BENCH_*.json file or directory")
    diff.add_argument("--tolerance", type=float, default=0.1,
                      help="allowed relative change of a deterministic field, "
                           "either way (default 0.1)")
    diff.add_argument("--report", metavar="PATH", help="write the diff report as JSON")
    args = parser.parse_args(argv)
    if args.command == "check":
        return _check(args.paths)
    return _diff(args)


if __name__ == "__main__":
    sys.exit(main())
