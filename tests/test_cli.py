"""The command-line interface."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


@pytest.fixture
def qos_ldif(tmp_path, capsys):
    assert main(["dump-example", "qos"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "qos.ldif"
    path.write_text(text)
    return str(path)


class TestDumpExample:
    @pytest.mark.parametrize("which", ["qos", "tops", "whitepages"])
    def test_dumps_parse_back(self, which, capsys, tmp_path):
        assert main(["dump-example", which]) == 0
        text = capsys.readouterr().out
        assert "dn: " in text


class TestQuery:
    def test_basic(self, qos_ldif, capsys):
        code = main([
            "query", qos_ldif, "--schema", "qos",
            "(dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "SLAPolicyName=dso" in out

    def test_io_flag(self, qos_ldif, capsys):
        main(["query", qos_ldif, "--schema", "qos", "--io",
              "( ? sub ? objectClass=*)"])
        err = capsys.readouterr().err
        assert "page I/Os" in err

    def test_bad_query_reports_error(self, qos_ldif, capsys):
        code = main(["query", qos_ldif, "--schema", "qos", "(((broken"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_schema(self, qos_ldif):
        with pytest.raises(SystemExit):
            main(["query", qos_ldif, "--schema", "nope", "( ? sub ? a=*)"])

    def test_missing_file(self, capsys):
        code = main(["query", "/does/not/exist.ldif", "( ? sub ? a=*)"])
        assert code == 1

    def test_index_flag_is_typed_by_the_schema(self, qos_ldif, capsys):
        query = "(dc=att, dc=com ? sub ? SLARulePriority<3)"
        assert main(["query", qos_ldif, "--schema", "qos", query]) == 0
        scanned = capsys.readouterr().out
        assert scanned
        code = main(["query", qos_ldif, "--schema", "qos",
                     "--index", "SLARulePriority", "--index", "ou", query])
        assert code == 0
        assert capsys.readouterr().out == scanned

    def test_index_on_undeclared_attribute(self, qos_ldif):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", qos_ldif, "--schema", "qos", "--index", "nope",
                  "( ? sub ? objectClass=*)"])
        message = str(excinfo.value)
        assert "'nope'" in message and "SLARulePriority" in message
        assert "\n" not in message


class TestExplain:
    def test_plan_printed(self, qos_ldif, capsys):
        code = main([
            "explain", qos_ldif, "--schema", "qos", "--analyze",
            "(a (dc=att, dc=com ? sub ? objectClass=trafficProfile)"
            " (dc=att, dc=com ? sub ? ou=networkPolicies))",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hierarchy a" in out
        assert "actual=" in out


class TestStats:
    def test_summary(self, qos_ldif, capsys):
        assert main(["stats", qos_ldif, "--schema", "qos"]) == 0
        out = capsys.readouterr().out
        assert "entries: " in out
        assert "SLARulePriority" in out

    def test_json(self, qos_ldif, capsys):
        assert main(["stats", qos_ldif, "--schema", "qos", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] > 0
        assert "SLARulePriority" in payload["attributes"]
        assert payload["io"]["logical_reads"] >= 0

    def test_buffer_pages_reaches_the_pager(self, qos_ldif, capsys):
        # Five pages: the default 8-page buffer holds them all, 4 pages
        # do not.
        def io(*flags):
            assert main(["stats", qos_ldif, "--schema", "qos", "--json",
                         "--page-size", "4", *flags]) == 0
            return json.loads(capsys.readouterr().out)["io"]

        roomy, tight = io(), io("--buffer-pages", "4")
        assert tight["logical_reads"] == roomy["logical_reads"]
        assert roomy["reads"] == 0 < tight["reads"]


@pytest.mark.parametrize(
    "command",
    ["stats", "metrics", "top", "serve-admin"],
)
def test_index_is_offered_only_where_an_engine_is_built(command, qos_ldif):
    with pytest.raises(SystemExit) as excinfo:
        main([command, qos_ldif, "--schema", "qos", "--index", "weight"])
    assert excinfo.value.code == 2


SUBCOMMANDS = {
    "query", "explain", "plan", "stats", "metrics", "top", "serve-admin",
    "dump-example", "ldapurl", "wal-dump",
}


def test_the_subcommands_are_pinned():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == SUBCOMMANDS


@pytest.mark.parametrize(
    "command",
    ["chaos", "replication-status", "consistency", "alerts", "bench-check",
     "bench-diff"],
)
def test_deleted_demo_drivers_are_usage_errors(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


class TestTraceFlag:
    def test_trace_prints_span_tree(self, qos_ldif, capsys):
        code = main(["query", qos_ldif, "--schema", "qos", "--trace",
                     "( ? sub ? objectClass=*)"])
        assert code == 0
        err = capsys.readouterr().err
        assert "execute" in err
        assert "op:atomic" in err
        assert "io=" in err


class TestExplainJson:
    def test_analyze_json_reconciles(self, qos_ldif, capsys):
        code = main([
            "explain", qos_ldif, "--schema", "qos", "--analyze", "--json",
            "(a (dc=att, dc=com ? sub ? objectClass=trafficProfile)"
            " (dc=att, dc=com ? sub ? ou=networkPolicies))",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["actual"] >= 0

        def tree_io(node):
            return node["actual_io"] + sum(
                tree_io(child) for child in node["children"]
            )

        assert payload["total_io"] == tree_io(payload)
        assert payload["total_logical_io"] >= payload["total_io"]

    def test_plain_json_has_estimates_only(self, qos_ldif, capsys):
        code = main(["explain", qos_ldif, "--schema", "qos", "--json",
                     "( ? sub ? objectClass=*)"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "estimate" in payload
        assert "actual" not in payload
        assert "total_io" not in payload


def run_repro(*args) -> subprocess.CompletedProcess:
    """``python -m repro ARGS`` in a fresh interpreter, whose one process
    registry and event log then hold this command's work alone."""
    package_root = pathlib.Path(repro.__file__).resolve().parent.parent
    path = os.pathsep.join(
        filter(None, [str(package_root), os.environ.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed


class TestMetricsCommand:
    def test_prometheus_dump(self, qos_ldif):
        out = run_repro("metrics", qos_ldif, "--schema", "qos",
                          "--query", "( ? sub ? objectClass=*)").stdout
        assert "# TYPE repro_searches_total counter" in out
        assert 'repro_searches_total{code="success"} 1' in out
        assert "repro_search_seconds_bucket" in out

    def test_json_dump(self, qos_ldif):
        out = run_repro("metrics", qos_ldif, "--schema", "qos", "--json",
                          "--query", "( ? sub ? objectClass=*)",
                          "--query", "( ? sub ? objectClass=*)").stdout
        payload = json.loads(out)
        assert payload["repro_searches_total"]["values"][0]["value"] == 2
        assert payload["repro_cache_lookups_total"]["kind"] == "counter"

    def test_slow_log_printed(self, qos_ldif):
        err = run_repro("metrics", qos_ldif, "--schema", "qos", "--slow-ms", "0",
                          "--query", "( ? sub ? objectClass=*)").stderr
        assert "slow queries" in err
        assert "objectClass" in err

    def test_filter_coercion_failures_are_printed(self, qos_ldif):
        # An integer and a dn attribute compared with values that do not
        # coerce: each failure matches false and is counted by kind.
        lines = run_repro(
            "metrics",
            qos_ldif, "--schema", "qos",
            "--query", "(dc=com ? sub ? DSInProfilePeakRate=abc)",
            "--query", "(dc=com ? sub ? SLATPRef=notadn)",
        ).stdout.splitlines()
        assert 'repro_filter_eval_errors_total{kind="dn-coerce"} 4' in lines
        assert 'repro_filter_eval_errors_total{kind="int-coerce"} 3' in lines


class TestLdapUrl:
    def test_parsed_components(self, capsys):
        code = main(["ldapurl",
                     "ldap://h:389/dc=att,dc=com?cn?sub?(surName=jagadish)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scope:      sub" in out
        assert "ldapsearch" in out

    def test_bad_url(self, capsys):
        assert main(["ldapurl", "http://nope"]) == 1


class TestWalDump:
    @pytest.fixture
    def data_dir(self, tmp_path):
        from repro.txn.durable import DurableDirectory
        from repro.workload import random_instance

        instance = random_instance(3, size=10)
        directory = DurableDirectory.open(
            str(tmp_path / "data"), instance, page_size=8
        )
        root = next(iter(instance.roots())).dn
        directory.add(root.child("name=w1"), ["node"], name="w1")
        directory.delete(root.child("name=w1"))
        directory.close()
        return str(tmp_path / "data")

    def test_dumps_records_from_data_dir(self, data_dir, capsys):
        assert main(["wal-dump", data_dir]) == 0
        out = capsys.readouterr().out
        assert "add" in out and "delete" in out
        assert "2 record(s)" in out
        assert "TORN" not in out

    def test_accepts_log_file_path(self, data_dir, capsys):
        assert main(["wal-dump", data_dir + "/wal.log"]) == 0
        assert "2 record(s)" in capsys.readouterr().out

    def test_missing_log_fails(self, tmp_path, capsys):
        assert main(["wal-dump", str(tmp_path / "nope")]) == 1


class TestQueryBudget:
    def test_breach_exits_2_with_a_structured_error(self, qos_ldif, capsys):
        code = main([
            "query", qos_ldif, "--schema", "qos", "--max-pages", "0",
            "( ? sub ? objectClass=*)",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "query budget exceeded" in err
        assert "pages" in err

    def test_generous_budget_does_not_interfere(self, qos_ldif, capsys):
        code = main([
            "query", qos_ldif, "--schema", "qos", "--max-pages", "100000",
            "--max-wall-ms", "60000", "--max-entries", "100000",
            "(dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)",
        ])
        assert code == 0
        assert "SLAPolicyName=dso" in capsys.readouterr().out


class TestMetricsLatencySummary:
    def test_slow_section_reports_quantiles(self, qos_ldif):
        err = run_repro("metrics", qos_ldif, "--schema", "qos", "--slow-ms", "0",
                          "--query", "( ? sub ? objectClass=*)").stderr
        assert "-- search latency:" in err
        assert "p50=" in err and "p95=" in err and "p99=" in err


class TestStatsDepthQuantiles:
    def test_json_payload_includes_depth_quantiles(self, qos_ldif, capsys):
        assert main(["stats", qos_ldif, "--schema", "qos", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        quantiles = payload["depth_quantiles"]
        assert set(quantiles) == {"p50", "p95", "p99"}
        assert quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]


class TestServeAdmin:
    def test_serves_and_exits_after_duration(self, qos_ldif, capsys):
        import threading
        import time as _time
        import urllib.request

        captured = {}

        # Scrape from a listener thread while the command sleeps out its
        # --duration on the main thread.

        def scrape():
            deadline = _time.time() + 5
            while _time.time() < deadline and "body" not in captured:
                err_text = capsys.readouterr().err
                captured["err"] = captured.get("err", "") + err_text
                for line in captured["err"].splitlines():
                    if line.startswith("admin endpoint at "):
                        url = line.split()[3]
                        with urllib.request.urlopen(url + "/metrics", timeout=5) as r:
                            captured["body"] = r.read()
                        return
                _time.sleep(0.02)

        thread = threading.Thread(target=scrape)
        thread.start()
        code = main([
            "serve-admin", qos_ldif, "--schema", "qos", "--port", "0",
            "--duration", "1.5", "--slow-ms", "0",
            "--query", "( ? sub ? objectClass=*)",
        ])
        thread.join()
        assert code == 0
        assert b"repro_searches_total" in captured.get("body", b"")

    def test_log_flag_writes_json_lines_to_stderr(self, qos_ldif):
        query = "( ? sub ? objectClass=*)"
        err = run_repro(
            "serve-admin", qos_ldif, "--schema", "qos", "--port", "0",
            "--duration", "0", "--log", "--query", query,
        ).stderr
        events = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert [e["event"] for e in events] == ["search", "admin.start", "admin.stop"]
        assert events[0]["code"] == "success" and events[0]["rows"] > 0
        assert all(e["level"] == "info" for e in events)


class TestTopCommand:
    def test_zipf_workload_table(self, qos_ldif, capsys):
        code = main(["top", qos_ldif, "--schema", "qos",
                     "--queries", "60", "--distinct", "6", "-n", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "60 searches over 6 distinct shapes" in out
        assert "hottest subtrees" in out
        assert "qerror" in out

    def test_json_mode_ranks_by_skew(self, qos_ldif, capsys):
        code = main(["top", qos_ldif, "--schema", "qos", "--json",
                     "--queries", "120", "--distinct", "6", "--seed", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        top = payload["digest"]["top"]
        assert payload["digest"]["observed"] == 120
        # Zipf skew: the table is sorted by calls, heaviest first.
        calls = [row["calls"] for row in top]
        assert calls == sorted(calls, reverse=True)
        assert calls[0] > calls[-1]
        assert payload["heatmap"]["hottest"]

    def test_by_ordering_flag(self, qos_ldif, capsys):
        code = main(["top", qos_ldif, "--schema", "qos", "--json",
                     "--queries", "40", "--by", "pages"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["digest"]["by"] == "pages"
