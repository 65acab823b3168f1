"""Benchmark telemetry: BENCH_*.json emission and validation, the
regression gate's field rules, directory diffs, and the exit codes of
``python -m benchmarks.telemetry check|diff`` that CI relies on."""

import copy
import json
import shutil
from pathlib import Path

import pytest

from benchmarks.telemetry import (
    BenchEmitter,
    compare_bench,
    diff_bench,
    is_timing_field,
    load_bench,
    main,
    validate_bench,
)

BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"
ROWS = [{"n": 100, "io": 40}, {"n": 200, "io": 81}]


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


def copy_baselines(tmp_path):
    fresh = tmp_path / "fresh"
    shutil.copytree(BASELINES, fresh)
    return fresh


class TestBenchEmitter:
    def test_emit_writes_valid_document(self, tmp_path):
        emitter = BenchEmitter(out_dir=str(tmp_path))
        emitter.add_timing("e13_boolean", 0.25)
        emitter.add_timing("e13_boolean", 0.75)
        path = emitter.emit("e13_boolean", "E13: and/or", ROWS,
                            meta={"page_size": 16})
        assert path == emitter.path_for("e13_boolean")
        payload = load_bench(path)
        assert validate_bench(payload) == []
        assert payload["experiment"] == "e13_boolean"
        assert payload["tables"]["E13: and/or"] == ROWS
        assert payload["timings_s"] == {"count": 2, "total": 1.0, "max": 0.75}
        assert payload["meta"]["page_size"] == 16

    def test_repeated_emits_merge_tables(self, tmp_path):
        emitter = BenchEmitter(out_dir=str(tmp_path))
        emitter.emit("exp", "first", ROWS)
        path = emitter.emit("exp", "second", ROWS[:1])
        payload = load_bench(path)
        assert sorted(payload["tables"]) == ["first", "second"]

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "out"))
        emitter = BenchEmitter()
        path = emitter.emit("exp", "t", ROWS)
        assert str(tmp_path / "out") in path

    def test_bad_experiment_name_rejected(self, tmp_path):
        emitter = BenchEmitter(out_dir=str(tmp_path))
        with pytest.raises(ValueError):
            emitter.emit("no spaces allowed", "t", ROWS)


class TestValidateBench:
    def payload(self):
        return {
            "schema_version": 1,
            "experiment": "e5_updates",
            "tables": {"t": [{"n": 1}]},
            "timings_s": {"count": 1, "total": 0.1, "max": 0.1},
            "meta": {},
        }

    def test_accepts_well_formed(self):
        assert validate_bench(self.payload()) == []

    def test_flags_schema_version(self):
        bad = self.payload()
        bad["schema_version"] = 2
        assert any("schema_version" in p for p in validate_bench(bad))

    def test_flags_missing_tables(self):
        bad = self.payload()
        bad["tables"] = {}
        assert any("tables" in p for p in validate_bench(bad))

    def test_flags_rowless_table(self):
        bad = self.payload()
        bad["tables"] = {"t": []}
        assert any("no rows" in p for p in validate_bench(bad))

    def test_flags_non_object_rows(self):
        bad = self.payload()
        bad["tables"] = {"t": [1, 2]}
        assert any("non-object" in p for p in validate_bench(bad))

    def test_flags_missing_timings(self):
        bad = self.payload()
        del bad["timings_s"]
        assert any("timings_s" in p for p in validate_bench(bad))

    def test_flags_bad_experiment_name(self):
        bad = self.payload()
        bad["experiment"] = "oh no"
        assert any("experiment" in p for p in validate_bench(bad))


class TestBenchHelpers:
    def test_load_bench_reads_json(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"schema_version": 1}))
        assert load_bench(str(path)) == {"schema_version": 1}


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

    def test_a_deterministic_field_fails_in_either_direction(self):
        # Neither a hit rate nor a page count has a "better" way to move:
        # past the tolerance, the baseline no longer describes the program.
        for field, moved in (("hit rate", 0.5), ("hit rate", 1.0),
                             ("logical I/O", 125), ("logical I/O", 75)):
            old, new = artifact(), artifact()
            new["tables"]["E99: synthetic"][0][field] = moved
            report = compare_bench(old, new, tolerance=0.1)
            assert [r["field"] for r in report["regressions"]] == [field], moved

    def test_a_serialised_scatter_regresses(self):
        old = artifact([{"workers": 4, "parallel_batches": 2}])
        new = artifact([{"workers": 4, "parallel_batches": 1}])
        report = compare_bench(old, new, tolerance=0.1)
        assert [r["field"] for r in report["regressions"]] == ["parallel_batches"]

    def test_timing_fields_are_never_gated(self):
        old, new = artifact(), artifact()
        old["tables"]["E99: synthetic"][0]["ms/query"] = 10.0
        new["tables"]["E99: synthetic"][0]["ms/query"] = 100.0
        report = compare_bench(old, new, tolerance=0.1)
        assert report["regressions"] == []
        assert report["skipped_timing_fields"] == 1

    def test_a_non_numeric_timing_cell_is_compared_exactly(self):
        # E26's "io delta" row holds '' under "wall ms".
        old = artifact([{"mode": "io delta", "wall ms": ""}])
        assert compare_bench(old, copy.deepcopy(old))["compared_fields"] == 2
        new = artifact([{"mode": "io delta", "wall ms": "n/a"}])
        report = compare_bench(old, new)
        assert [r["field"] for r in report["regressions"]] == ["wall ms"]
        assert report["skipped_timing_fields"] == 0

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
    def test_identical_directories_pass(self, tmp_path):
        fresh = copy_baselines(tmp_path)
        report = diff_bench(str(BASELINES), str(fresh), tolerance=0.1)
        assert report["regressions_total"] == 0
        baselines = len(list(BASELINES.glob("BENCH_*.json")))
        assert len(report["artifacts"]) == baselines >= 7

    def test_missing_artifact_is_a_regression(self, tmp_path):
        fresh = copy_baselines(tmp_path)
        (fresh / "BENCH_e13_boolean.json").unlink()
        report = diff_bench(str(BASELINES), str(fresh), tolerance=0.1)
        assert report["regressions_total"] == 1
        missing = report["artifacts"][0]
        assert missing["artifact"] == "BENCH_e13_boolean.json"
        assert "missing" in missing["regressions"][0]["problem"]

    def test_synthetic_2x_slowdown_fails_the_gate(self, tmp_path):
        # Double every logical-I/O count in a baseline copy (a 2x cost
        # slowdown) and the gate must fail.
        fresh = copy_baselines(tmp_path)
        path = fresh / "BENCH_e13_boolean.json"
        payload = json.loads(path.read_text())
        for row in payload["tables"]["E13: boolean merge I/O vs input size"]:
            row["logical I/O"] *= 2
            row["I/O per input page"] *= 2
        path.write_text(json.dumps(payload))
        report = diff_bench(str(BASELINES), str(fresh), tolerance=0.1)
        assert report["regressions_total"] >= 24  # 12 rows x 2 fields
        assert main([
            "diff", str(BASELINES), str(fresh), "--tolerance", "0.1",
        ]) == 1

    def test_a_stale_lower_cost_baseline_fails_the_gate(self, tmp_path, capsys):
        # A baseline whose E26 "logical I/O" rows read 356 while a fresh
        # run reads 268 no longer describes the program: a count that
        # fell 24.7 % fails at CI's tolerance just as a rise would.
        stale = copy_baselines(tmp_path)
        path = stale / "BENCH_e26_workload.json"
        payload = json.loads(path.read_text())
        (title,) = [t for t in payload["tables"] if "identical logical I/O" in t]
        rows = payload["tables"][title]
        assert [(r["mode"], r["logical I/O"]) for r in rows[:2]] == [
            ("observed", 268), ("bare", 268)]
        for row in rows[:2]:
            row["logical I/O"] = 356
        path.write_text(json.dumps(payload))
        assert main([
            "diff", str(stale), str(BASELINES), "--tolerance", "0.1",
        ]) == 1
        out = capsys.readouterr().out
        assert "BENCH_e26_workload.json: 2 REGRESSION(S)" in out
        assert "moved -24.7% (356 -> 268)" in out

    def test_cli_exit_codes_and_report_file(self, tmp_path, capsys):
        fresh = copy_baselines(tmp_path)
        report_path = tmp_path / "diff.json"
        code = main([
            "diff", str(BASELINES), str(fresh),
            "--report", str(report_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok" in out
        written = json.loads(report_path.read_text())
        assert written["regressions_total"] == 0

    def test_cli_single_file_pair(self, capsys):
        path = str(BASELINES / "BENCH_e20_cache.json")
        assert main(["diff", path, path]) == 0
        assert "BENCH_e20_cache.json: ok" in capsys.readouterr().out


class TestBenchDiffUsage:
    @pytest.mark.parametrize("order", ["dir-file", "file-dir"])
    def test_a_file_and_a_directory_is_a_usage_error(self, order, capsys):
        pair = [str(BASELINES), str(BASELINES / "BENCH_e20_cache.json")]
        if order == "file-dir":
            pair.reverse()
        with pytest.raises(SystemExit, match="both be files or both directories"):
            main(["diff"] + pair)
        assert "missing" not in capsys.readouterr().out


class TestBenchCheck:
    def write(self, tmp_path, payload):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def valid_payload(self):
        return {
            "schema_version": 1,
            "experiment": "x",
            "tables": {"t": [{"n": 1, "io": 2}]},
            "timings_s": {"count": 1, "total": 0.1, "max": 0.1},
            "meta": {},
        }

    def test_valid_file_passes(self, tmp_path, capsys):
        path = self.write(tmp_path, self.valid_payload())
        assert main(["check", path]) == 0
        assert "ok (1 tables, 1 rows)" in capsys.readouterr().out

    def test_invalid_file_fails(self, tmp_path, capsys):
        bad = self.valid_payload()
        bad["tables"] = {}
        path = self.write(tmp_path, bad)
        assert main(["check", path]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_missing_file_fails(self, capsys):
        assert main(["check", "/does/not/exist.json"]) == 1
        assert "unreadable" in capsys.readouterr().out


class TestBenchCheckDirectories:
    def test_directory_of_valid_artifacts_passes(self, capsys):
        assert main(["check", str(BASELINES)]) == 0
        out = capsys.readouterr().out
        baselines = len(list(BASELINES.glob("BENCH_*.json")))
        assert out.count(": ok") == baselines >= 7

    def test_directory_with_an_invalid_artifact_lists_it(self, tmp_path, capsys):
        good = json.dumps({
            "schema_version": 1, "experiment": "e1",
            "tables": {"T": [{"a": 1}]},
            "timings_s": {"count": 1, "total": 0.5, "max": 0.5},
            "meta": {},
        })
        (tmp_path / "BENCH_good.json").write_text(good)
        (tmp_path / "BENCH_bad.json").write_text('{"schema_version": 99}')
        code = main(["check", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "BENCH_bad.json: INVALID" in out
        assert "BENCH_good.json: ok" in out

    def test_empty_directory_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["check", str(tmp_path)])
