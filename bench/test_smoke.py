"""Functional check of the benchmark itself (not of the program):

    PYTHONPATH=src python -m pytest bench/test_smoke.py

Runs ``bench/run.py --smoke`` once -- every workload, untraced and traced,
each in its own interpreter -- and checks what came out.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "bench", "out")

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _stream:
    CONTRACT = json.load(_stream)
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def _git_status():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, stdout=subprocess.PIPE,
        text=True, check=True,
    )
    return sorted(done.stdout.splitlines())


@pytest.fixture(scope="module")
def smoke():
    """{(workload, trace): last-line JSON}, plus git status before/after."""
    before = _git_status()
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.join("bench", "run.py"), "--smoke",
                 "--workload", workload, "--seed", "11", "--seconds", "1",
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stdout
            results[workload, trace] = json.loads(done.stdout.splitlines()[-1])
    return results, before, _git_status()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_finite(smoke, trace, section):
    results, _before, _after = smoke
    for workload in WORKLOADS:
        result = results[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, (workload, trace, result)
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in CONTRACT[section]}
        for metric in CONTRACT[section]:
            cell = result["metrics"][metric["name"]]
            assert cell["unit"] == metric["unit"]
            assert math.isfinite(cell["value"]), (workload, metric["name"])
            if section == "end_to_end":
                assert cell["value"] > 0, (workload, metric["name"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_share_an_id_per_op(smoke, workload):
    with open(os.path.join(OUT, "trace_%s.json" % workload), encoding="utf-8") as stream:
        trace = json.load(stream)
    column = {name: index for index, name in enumerate(trace["columns"])}
    spans = {row[column["id"]]: row for row in trace["spans"]}
    assert spans, "the traced repeat recorded nothing"
    roots = [row for row in spans.values() if row[column["parent"]] == 0]
    # One root span -- and so one op id -- per search or write.
    assert len(roots) == trace["ops"]
    assert len({row[column["op"]] for row in roots}) == trace["ops"]
    assert {row[column["name"]] for row in roots} <= {"server.search", "server.write"}
    slack = 1.0  # microseconds: rows are rounded to 0.1 us
    for row in spans.values():
        assert row[column["self_us"]] <= row[column["duration_us"]] + slack
        if row[column["parent"]] == 0:
            continue
        parent = spans[row[column["parent"]]]
        assert parent[column["op"]] == row[column["op"]]
        assert parent[column["thread"]] == row[column["thread"]]
        start, end = row[column["start_us"]], row[column["start_us"]] + row[column["duration_us"]]
        parent_start = parent[column["start_us"]]
        assert start >= parent_start - slack
        if parent[column["name"]] != "storage.scan":  # generator: busy time, not extent
            assert end <= parent_start + parent[column["duration_us"]] + slack


def test_nothing_written_outside_bench_out(smoke):
    _results, before, after = smoke
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before
