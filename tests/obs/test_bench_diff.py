"""The bench-regression gate: compare_bench field semantics, directory
diffs, and the CLI exit-code contract the CI perf-gate job relies on."""

import copy
import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.telemetry import (
    compare_bench,
    diff_bench_dirs,
    is_timing_field,
)

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def artifact(rows=None, title="E99: synthetic", experiment="e99"):
    return {
        "schema_version": 1,
        "experiment": experiment,
        "tables": {title: rows if rows is not None else [
            {"op": "and", "logical I/O": 100, "result": 50, "hit rate": 0.9},
        ]},
        "timings_s": {"total": 1.0},
        "meta": {"page_size": 16},
    }


class TestTimingClassifier:
    def test_wall_clock_names_are_timing(self):
        for name in ("ms/query", "elapsed s", "wall_s", "latency", "speedup",
                     "build time", "queries/s"):
            assert is_timing_field(name), name

    def test_deterministic_names_are_not(self):
        for name in ("logical I/O", "result", "hit rate", "messages",
                     "entries", "pages"):
            assert not is_timing_field(name), name


class TestCompareBench:
    def test_identical_artifacts_have_no_regressions(self):
        old = artifact()
        report = compare_bench(old, copy.deepcopy(old))
        assert report["regressions"] == []
        assert report["compared_fields"] == 4  # op is non-numeric, compared too
        assert report["experiment"] == "e99"

    def test_cost_increase_beyond_tolerance_regresses(self):
        old, new = artifact(), artifact()
        new["tables"]["E99: synthetic"][0]["logical I/O"] = 125
        report = compare_bench(old, new, tolerance=0.1)
        assert len(report["regressions"]) == 1
        entry = report["regressions"][0]
        assert entry["field"] == "logical I/O"
        assert entry["old"] == 100 and entry["new"] == 125

    def test_cost_increase_within_tolerance_passes(self):
        old, new = artifact(), artifact()
        new["tables"]["E99: synthetic"][0]["logical I/O"] = 105
        assert compare_bench(old, new, tolerance=0.1)["regressions"] == []

    def test_higher_is_better_fields_regress_downward(self):
        old, new = artifact(), artifact()
        new["tables"]["E99: synthetic"][0]["hit rate"] = 0.5
        report = compare_bench(old, new, tolerance=0.1)
        assert [r["field"] for r in report["regressions"]] == ["hit rate"]
        # ... and improve upward (past the tolerance band).
        new["tables"]["E99: synthetic"][0]["hit rate"] = 1.0
        report = compare_bench(old, new, tolerance=0.1)
        assert report["regressions"] == []
        assert [i["field"] for i in report["improvements"]] == ["hit rate"]

    def test_a_serialised_scatter_regresses(self):
        old = artifact([{"workers": 4, "parallel_batches": 2}])
        new = artifact([{"workers": 4, "parallel_batches": 1}])
        report = compare_bench(old, new, tolerance=0.1)
        assert [r["field"] for r in report["regressions"]] == ["parallel_batches"]

    def test_timing_fields_are_skipped_unless_opted_in(self):
        old, new = artifact(), artifact()
        old["tables"]["E99: synthetic"][0]["ms/query"] = 10.0
        new["tables"]["E99: synthetic"][0]["ms/query"] = 100.0
        report = compare_bench(old, new, tolerance=0.1)
        assert report["regressions"] == []
        assert report["skipped_timing_fields"] == 1
        gated = compare_bench(old, new, tolerance=0.1, timing_tolerance=0.5)
        assert [r["field"] for r in gated["regressions"]] == ["ms/query"]

    def test_changed_non_numeric_value_regresses(self):
        old, new = artifact(), artifact()
        new["tables"]["E99: synthetic"][0]["op"] = "or"
        report = compare_bench(old, new)
        assert [r["field"] for r in report["regressions"]] == ["op"]

    def test_missing_table_row_and_field_all_regress(self):
        old = artifact(rows=[{"a": 1}, {"a": 2}])
        gone_table = copy.deepcopy(old)
        gone_table["tables"] = {}
        assert len(compare_bench(old, gone_table)["regressions"]) == 1
        fewer_rows = copy.deepcopy(old)
        fewer_rows["tables"]["E99: synthetic"] = [{"a": 1}]
        assert compare_bench(old, fewer_rows)["regressions"]
        gone_field = copy.deepcopy(old)
        del gone_field["tables"]["E99: synthetic"][0]["a"]
        assert compare_bench(old, gone_field)["regressions"]

    def test_additions_never_fail_the_gate(self):
        old, new = artifact(), artifact()
        new["tables"]["E99: synthetic"][0]["new metric"] = 7
        new["tables"]["E100: extra"] = [{"b": 1}]
        new["tables"]["E99: synthetic"].append({"op": "or"})
        report = compare_bench(old, new)
        assert report["regressions"] == []
        assert report["added"] == [
            "table 'E100: extra'",
            "table 'E99: synthetic' rows 1..2",
        ]


class TestDiffBenchDirs:
    def _copy_baselines(self, tmp_path):
        fresh = tmp_path / "fresh"
        shutil.copytree(BASELINES, fresh)
        return fresh

    def test_identical_directories_pass(self, tmp_path):
        fresh = self._copy_baselines(tmp_path)
        report = diff_bench_dirs(str(BASELINES), str(fresh), tolerance=0.1)
        assert report["regressions_total"] == 0
        baselines = len(list(BASELINES.glob("BENCH_*.json")))
        assert len(report["artifacts"]) == baselines >= 7

    def test_missing_artifact_is_a_regression(self, tmp_path):
        fresh = self._copy_baselines(tmp_path)
        (fresh / "BENCH_e13_boolean.json").unlink()
        report = diff_bench_dirs(str(BASELINES), str(fresh), tolerance=0.1)
        assert report["regressions_total"] == 1
        missing = report["artifacts"][0]
        assert missing["artifact"] == "BENCH_e13_boolean.json"
        assert "missing" in missing["regressions"][0]["problem"]

    def test_synthetic_2x_slowdown_fails_the_gate(self, tmp_path):
        # The acceptance scenario: double every logical-I/O count in a
        # baseline copy (a 2x cost slowdown) and the gate must fail.
        fresh = self._copy_baselines(tmp_path)
        path = fresh / "BENCH_e13_boolean.json"
        payload = json.loads(path.read_text())
        for row in payload["tables"]["E13: boolean merge I/O vs input size"]:
            row["logical I/O"] *= 2
            row["I/O per input page"] *= 2
        path.write_text(json.dumps(payload))
        report = diff_bench_dirs(str(BASELINES), str(fresh), tolerance=0.1)
        assert report["regressions_total"] >= 24  # 12 rows x 2 fields
        assert main([
            "bench-diff", str(BASELINES), str(fresh), "--tolerance", "0.1",
        ]) == 1

    def test_cli_exit_codes_and_report_file(self, tmp_path, capsys):
        fresh = self._copy_baselines(tmp_path)
        report_path = tmp_path / "diff.json"
        code = main([
            "bench-diff", str(BASELINES), str(fresh),
            "--report", str(report_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok" in out
        written = json.loads(report_path.read_text())
        assert written["regressions_total"] == 0

    def test_cli_single_file_pair(self, capsys):
        path = str(BASELINES / "BENCH_e20_cache.json")
        assert main(["bench-diff", path, path]) == 0
        assert "BENCH_e20_cache.json: ok" in capsys.readouterr().out
