"""The command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main


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


class TestMetricsCommand:
    def test_prometheus_dump(self, qos_ldif, capsys):
        code = main(["metrics", qos_ldif, "--schema", "qos",
                     "--query", "( ? sub ? objectClass=*)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_searches_total counter" in out
        assert 'repro_searches_total{code="success"} 1' in out
        assert "repro_search_seconds_bucket" in out

    def test_json_dump(self, qos_ldif, capsys):
        code = main(["metrics", qos_ldif, "--schema", "qos", "--json",
                     "--query", "( ? sub ? objectClass=*)",
                     "--query", "( ? sub ? objectClass=*)"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["repro_searches_total"]["values"][0]["value"] == 2
        assert payload["repro_cache_lookups_total"]["kind"] == "counter"

    def test_slow_log_printed(self, qos_ldif, capsys):
        code = main(["metrics", qos_ldif, "--schema", "qos", "--slow-ms", "0",
                     "--query", "( ? sub ? objectClass=*)"])
        assert code == 0
        err = capsys.readouterr().err
        assert "slow queries" in err
        assert "objectClass" in err


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
        assert main(["bench-check", path]) == 0
        assert "ok (1 tables, 1 rows)" in capsys.readouterr().out

    def test_invalid_file_fails(self, tmp_path, capsys):
        bad = self.valid_payload()
        bad["tables"] = {}
        path = self.write(tmp_path, bad)
        assert main(["bench-check", path]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_missing_file_fails(self, capsys):
        assert main(["bench-check", "/does/not/exist.json"]) == 1
        assert "unreadable" in capsys.readouterr().out


class TestChaos:
    def test_fault_free_run_is_fully_exact(self, qos_ldif, capsys):
        code = main(["chaos", qos_ldif, "--schema", "qos", "--queries", "20",
                     "--drop-rate", "0", "--latency-ms", "0", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["availability"] == 1.0
        assert report["exact"] == 20
        assert report["mismatch"] == 0 and report["failed"] == 0
        assert report["faults"] == {}
        assert report["retries"] == 0

    def test_seeded_drops_are_reported_and_deterministic(self, qos_ldif, capsys):
        argv = ["chaos", qos_ldif, "--schema", "qos", "--queries", "30",
                "--drop-rate", "0.15", "--seed", "5", "--no-cache", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["faults"].get("dropped", 0) > 0
        assert first["retries"] > 0
        assert first["mismatch"] == 0

    def test_crash_window_degrades_to_partials(self, qos_ldif, capsys):
        code = main(["chaos", qos_ldif, "--schema", "qos", "--queries", "15",
                     "--drop-rate", "0", "--crash", "server1:0",
                     "--no-cache", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["partial"] > 0
        assert report["failed"] == 0  # partial mode still answers
        assert "serverDown" in report["faults"]

    def test_human_report(self, qos_ldif, capsys):
        assert main(["chaos", qos_ldif, "--schema", "qos",
                     "--queries", "10"]) == 0
        out = capsys.readouterr().out
        assert "chaos report" in out
        assert "availability" in out

    def test_bad_window_spec(self, qos_ldif):
        with pytest.raises(SystemExit):
            main(["chaos", qos_ldif, "--schema", "qos",
                  "--crash", "server1"])


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
    def test_slow_section_reports_quantiles(self, qos_ldif, capsys):
        code = main([
            "metrics", qos_ldif, "--schema", "qos", "--slow-ms", "0",
            "--query", "( ? sub ? objectClass=*)",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "-- search latency:" in err
        assert "p50=" in err and "p95=" in err and "p99=" in err


class TestStatsDepthQuantiles:
    def test_json_payload_includes_depth_quantiles(self, qos_ldif, capsys):
        assert main(["stats", qos_ldif, "--schema", "qos", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        quantiles = payload["depth_quantiles"]
        assert set(quantiles) == {"p50", "p95", "p99"}
        assert quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]


class TestBenchCheckDirectories:
    def test_directory_of_valid_artifacts_passes(self, capsys):
        assert main(["bench-check", "benchmarks/baselines"]) == 0
        out = capsys.readouterr().out
        baselines = len(list(Path("benchmarks/baselines").glob("BENCH_*.json")))
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
        code = main(["bench-check", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "BENCH_bad.json: INVALID" in out
        assert "BENCH_good.json: ok" in out

    def test_empty_directory_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench-check", str(tmp_path)])


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


@pytest.fixture
def wp_ldif(tmp_path, capsys):
    assert main(["dump-example", "whitepages"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "wp.ldif"
    path.write_text(text)
    return str(path)


class TestReplicationStatus:
    def test_table(self, wp_ldif, capsys):
        code = main(["replication-status", wp_ldif])
        assert code == 0
        out = capsys.readouterr().out
        assert "REPLICA" in out and "primary" in out and "secondary0" in out

    def test_json_caught_up(self, wp_ldif, capsys):
        code = main(["replication-status", wp_ldif, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["epoch"] == 1
        assert payload["primary"] == "primary"
        assert all(r["lag"] == 0 for r in payload["replicas"].values())

    def test_failover_bumps_the_epoch(self, wp_ldif, capsys):
        code = main(["replication-status", wp_ldif, "--failover", "--json"])
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["epoch"] == 2
        roles = {name: r["role"] for name, r in payload["replicas"].items()}
        assert roles["primary"] == "deposed"
        assert payload["primary"] != "primary"


class TestConsistencyCommand:
    def test_matrix_table(self, capsys):
        code = main(["consistency", "--seeds", "2", "--steps", "24"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SEED" in out
        assert "held every invariant" in out

    def test_matrix_json(self, capsys):
        code = main(["consistency", "--seeds", "2", "--steps", "24",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert all(report["ok"] for report in payload)
        assert all(report["writes_lost_acked"] == 0 for report in payload)

    def test_durable_matrix(self, capsys):
        code = main(["consistency", "--seeds", "1", "--steps", "24",
                     "--durable", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["durable"] is True


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


#: ``repro alerts qos.ldif --schema qos --queries 80`` (seed 0), byte for
#: byte.
ALERTS_TEXT = """\
-- 1 rules, 87 evaluations, 0 firing
--   rule rate(repro_searches_total, 30) > 5: rate(repro_searches_total, 30) > 5 [warning]
t=    +0.1s  [firing  ] rate(repro_searches_total, 30) > 5 value=8.00
t=   +20.0s  [resolved] rate(repro_searches_total, 30) > 5 value=3.95
"""

_ALERTS_RULE = "rate(repro_searches_total, 30) > 5"


def _alerts_transition(to, value, ts):
    return {"rule": _ALERTS_RULE, "to": to, "condition": _ALERTS_RULE,
            "severity": "warning", "value": value, "ts": ts}


#: The same run's ``--json`` status.
ALERTS_JSON = {
    "evaluations": 87,
    "firing": [],
    "rules": [{
        "name": _ALERTS_RULE, "condition": _ALERTS_RULE,
        "severity": "warning", "for_samples": 1, "state": "ok",
        "streak": 0, "value": 0.0, "since": None,
    }],
    "transitions": [
        _alerts_transition("firing", 8.0, 0.125),
        _alerts_transition("resolved", 3.95, 20.0),
    ],
}


class TestAlertsCommand:
    def test_demo_fires_and_resolves(self, qos_ldif, capsys):
        code = main(["alerts", qos_ldif, "--schema", "qos",
                     "--queries", "80"])
        assert code == 0
        assert capsys.readouterr().out == ALERTS_TEXT

    def test_json_mode_reports_transitions(self, qos_ldif, capsys):
        code = main(["alerts", qos_ldif, "--schema", "qos", "--json",
                     "--queries", "80"])
        assert code == 0
        assert capsys.readouterr().out == json.dumps(ALERTS_JSON, indent=2) + "\n"

    def test_custom_rule_text(self, qos_ldif, capsys):
        code = main(["alerts", qos_ldif, "--schema", "qos", "--json",
                     "--rule", "rate(repro_searches_total, 20) > 2",
                     "--queries", "60"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["transitions"][0]["rule"].startswith("rate(")

    def test_bad_rule_reports_error(self, qos_ldif, capsys):
        code = main(["alerts", qos_ldif, "--schema", "qos",
                     "--rule", "not a rule"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
