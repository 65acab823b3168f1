"""Command-line interface: query LDIF directories from the shell.

Usage (also via ``python -m repro``)::

    python -m repro dump-example qos > policies.ldif
    python -m repro query policies.ldif --schema qos \\
        "(g (dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules) count(SLAPVPRef) > 1)"
    python -m repro explain policies.ldif --schema qos --analyze --json "( ? sub ? objectClass=*)"
    python -m repro stats policies.ldif --schema qos --json
    python -m repro metrics policies.ldif --schema qos --query "( ? sub ? objectClass=*)"
    python -m repro bench-check benchmarks/results/BENCH_e13_boolean.json
    python -m repro chaos policies.ldif --schema qos --drop-rate 0.1 --queries 200
    python -m repro ldapurl "ldap://host/dc=att,dc=com?cn?sub?(surName=jagadish)"
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

from .model.ldif import dumps_ldif, loads_ldif
from .model.schema import DirectorySchema
from .model.standard import standard_schema
from .workload.generator import synthetic_schema

__all__ = ["main", "build_parser"]


def _schema_factories() -> Dict[str, Callable[[], DirectorySchema]]:
    from .apps.qos import qos_schema
    from .apps.tops import tops_schema

    return {
        "standard": standard_schema,
        "synthetic": synthetic_schema,
        "qos": qos_schema,
        "tops": tops_schema,
    }


def _load(path: str, schema_name: str):
    factories = _schema_factories()
    if schema_name not in factories:
        raise SystemExit(
            "unknown schema %r (choose from %s)" % (schema_name, ", ".join(factories))
        )
    with open(path, "r", encoding="utf-8") as stream:
        return loads_ldif(stream.read(), factories[schema_name]())


def _engine_for(instance, args):
    from .engine.engine import QueryEngine

    try:
        return QueryEngine.from_instance(
            instance,
            page_size=args.page_size,
            buffer_pages=args.buffer_pages,
            indices=tuple(args.index or ()),
        )
    except ValueError as exc:  # --index names an attribute the schema lacks
        raise SystemExit(str(exc))


def _budget_from(args):
    """A QueryBudget from the ``--max-*`` flags (None when unbounded)."""
    max_pages = getattr(args, "max_pages", None)
    max_wall_ms = getattr(args, "max_wall_ms", None)
    max_entries = getattr(args, "max_entries", None)
    if max_pages is None and max_wall_ms is None and max_entries is None:
        return None
    from .obs.budget import QueryBudget

    return QueryBudget(
        max_pages=max_pages,
        max_wall_s=max_wall_ms / 1e3 if max_wall_ms is not None else None,
        max_entries=max_entries,
    )


def _cmd_query(args) -> int:
    from .obs.budget import BudgetExceeded

    instance = _load(args.file, args.schema)
    engine = _engine_for(instance, args)
    if args.trace:
        from .obs.trace import Tracer

        engine.tracer = Tracer(probes={"io": engine.pager.stats})
    try:
        result = engine.run(args.query, budget=_budget_from(args))
    except BudgetExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for dn in result.dns():
        print(dn)
    if args.trace:
        root = engine.tracer.last_root()
        if root is not None:
            print(root.render(), file=sys.stderr)
    if args.io:
        print(
            "-- %d entries, %d physical page I/Os (%d logical reads), %.2f ms"
            % (
                len(result),
                result.io.total,
                result.io.logical_reads,
                result.elapsed * 1e3,
            ),
            file=sys.stderr,
        )
    return 0


def _cmd_explain(args) -> int:
    from .engine.optimizer import explain
    from .query.parser import parse_query

    store = _engine_for(_load(args.file, args.schema), args).store
    node = explain(store, parse_query(args.query), analyze=args.analyze)
    if args.json:
        payload = node.as_dict()
        if args.analyze:
            payload["total_io"] = node.total_io()
            payload["total_logical_io"] = node.total_logical_io()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(node.render())
    return 0


def _cmd_plan(args) -> int:
    from .engine.optimizer import AccessPlanner, explain
    from .query.parser import parse_query

    store = _engine_for(_load(args.file, args.schema), args).store
    planner = AccessPlanner(store)
    planned, rules = planner.plan(parse_query(args.query))
    # The same (deterministic) plan() explain applies -- the rendered
    # tree is exactly the plan an engine with this planner would execute.
    node = explain(store, parse_query(args.query), planner=planner)
    if args.json:
        payload = {
            "query": args.query,
            "planned": str(planned),
            "rules": rules,
            "plan": node.as_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("planned: %s" % planned)
        for rule in rules:
            print("  - %s" % rule)
        print(node.render())
    return 0


def _depth_quantiles(depth_counts):
    """p50/p95/p99 of the entry-depth distribution, interpolated through
    a fixed-bucket histogram (the same estimator the latency metrics
    use)."""
    if not depth_counts:
        return None
    from .obs.metrics import Histogram

    histogram = Histogram(
        "depth", "entry depth", buckets=sorted(depth_counts)
    )
    for depth, count in depth_counts.items():
        for _ in range(count):
            histogram.observe(depth)
    return histogram.quantiles()


def _cmd_stats(args) -> int:
    from .engine.stats import DirectoryStatistics
    from .storage.store import DirectoryStore

    instance = _load(args.file, args.schema)
    store = DirectoryStore.from_instance(instance, page_size=args.page_size)
    stats = DirectoryStatistics.collect(store)
    if args.json:
        payload = {
            "entries": stats.total_entries,
            "pages": store.page_count,
            "page_size": store.pager.page_size,
            "depths": {str(d): c for d, c in sorted(stats.depth_counts.items())},
            "depth_quantiles": _depth_quantiles(stats.depth_counts),
            "io": store.pager.stats.as_dict(),
            "attributes": {
                name: {
                    "entries_with": attr.entries_with,
                    "value_count": attr.value_count,
                    "distinct_estimate": attr.distinct_estimate,
                    "int_min": attr.int_min,
                    "int_max": attr.int_max,
                }
                for name, attr in sorted(stats.attributes.items())
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print("entries: %d   pages: %d (B=%d)" % (
        stats.total_entries, store.page_count, store.pager.page_size))
    print("depths:  %s" % ", ".join(
        "%d:%d" % (depth, count) for depth, count in sorted(stats.depth_counts.items())))
    print("%-24s %8s %8s %9s %s" % ("attribute", "entries", "values", "distinct", "int range"))
    for name in sorted(stats.attributes):
        attr = stats.attributes[name]
        int_range = (
            "%d..%d" % (attr.int_min, attr.int_max) if attr.int_min is not None else "-"
        )
        print(
            "%-24s %8d %8d %9d %s"
            % (name, attr.entries_with, attr.value_count, attr.distinct_estimate, int_range)
        )
    return 0


def _cmd_metrics(args) -> int:
    """Run searches through a full DirectoryService and dump the populated
    metrics registry (Prometheus text by default, --json for JSON)."""
    from .obs.metrics import MetricsRegistry
    from .server.service import DirectoryService

    instance = _load(args.file, args.schema)
    registry = MetricsRegistry()
    service = DirectoryService(
        instance,
        page_size=args.page_size,
        buffer_pages=args.buffer_pages,
        metrics=registry,
        slow_query_seconds=(
            args.slow_ms / 1e3 if args.slow_ms is not None else None
        ),
    )
    service.bind_anonymous()
    for query in args.query or ():
        service.search(query)
    if args.json:
        print(registry.to_json(indent=2))
    else:
        sys.stdout.write(registry.to_prometheus())
    if args.slow_ms is not None:
        quantiles = registry.get("repro_search_seconds").quantiles()
        if quantiles:
            print("-- search latency: %s" % "  ".join(
                "%s=%.2fms" % (name, value * 1e3)
                for name, value in sorted(quantiles.items())
            ), file=sys.stderr)
        if len(service.slow_queries):
            print("-- %d slow queries (>= %gms):" % (
                len(service.slow_queries), args.slow_ms), file=sys.stderr)
            for record in service.slow_queries:
                trace = (
                    " trace=%s" % record.trace_id
                    if record.trace_id is not None else ""
                )
                print("--   %.2fms io=%d%s %s" % (
                    record.elapsed * 1e3, record.pages, trace,
                    record.query_text),
                    file=sys.stderr)
    return 0


def _cmd_top(args) -> int:
    """Drive a Zipf-skewed workload through a DirectoryService and print
    its query digest table plus the hottest subtrees -- the CLI face of
    the workload observability plane."""
    import json

    from .obs.metrics import MetricsRegistry
    from .server.service import DirectoryService
    from .workload.generator import ZipfQueryStream

    instance = _load(args.file, args.schema)
    registry = MetricsRegistry()
    service = DirectoryService(
        instance,
        page_size=args.page_size,
        buffer_pages=args.buffer_pages,
        metrics=registry,
        heatmap_depth=args.depth,
    )
    service.bind_anonymous()
    stream = ZipfQueryStream(
        instance, distinct=args.distinct, skew=args.skew, seed=args.seed
    )
    for query in stream.take(args.queries):
        service.search(query)

    digest = service.digest.snapshot(args.top, by=args.by)
    heat = service.heatmap.snapshot(args.top)
    if args.json:
        print(json.dumps({"digest": digest, "heatmap": heat}, indent=2))
        return 0

    print("-- %d searches over %d distinct shapes (skew=%g seed=%d); "
          "digest: %d rows, by=%s" % (
              args.queries, args.distinct, args.skew, args.seed,
              digest["rows"], digest["by"]))
    header = "%4s %6s %6s %9s %8s %8s  %s" % (
        "rank", "calls", "hit%", "mean ms", "pages", "qerror", "query")
    print(header)
    for rank, row in enumerate(digest["top"], start=1):
        qerror = row["qerror_max"]
        print("%4d %6d %5.1f%% %9.3f %8d %8s  %s" % (
            rank, row["calls"], 100.0 * row["hit_rate"],
            row["elapsed_mean_s"] * 1e3, row["pages_total"],
            "%.2f" % qerror if qerror is not None else "-",
            row["query"]))
    print("-- hottest subtrees (depth %d, EWMA half-life %gs):" % (
        heat["depth"], heat["half_life_s"]))
    for rank, cell in enumerate(heat["hottest"], start=1):
        print("%4d %-28s heat=%8.1f reads=%d writes=%d pages=%d" % (
            rank, cell["subtree"], cell["heat"], cell["reads_total"],
            cell["writes_total"], cell["pages_total"]))
    return 0


def _cmd_alerts(args) -> int:
    """Deterministic alert demo: a burst phase drives the search rate over
    a rule's threshold (firing), then an idle phase under an injected
    clock lets it resolve.  Exercises the same registry -> rule -> engine
    path the admin endpoint serves."""
    import json

    from .obs.alerts import parse_rule
    from .obs.metrics import MetricsRegistry
    from .server.service import DirectoryService
    from .workload.generator import ZipfQueryStream

    instance = _load(args.file, args.schema)
    registry = MetricsRegistry()
    service = DirectoryService(
        instance,
        page_size=args.page_size,
        buffer_pages=args.buffer_pages,
        metrics=registry,
    )
    service.bind_anonymous()
    clock = {"now": 0.0}
    texts = args.rule or [
        "rate(repro_searches_total, %g) > %g" % (args.window, args.threshold)
    ]
    rules = [parse_rule(text) for text in texts]
    engine = service.attach_alerts(
        rules, min_interval_s=0.0, clock=lambda: clock["now"]
    )

    # Burst: args.queries searches squeezed into args.burst seconds of
    # injected time -- the windowed rate crosses the threshold and fires.
    stream = ZipfQueryStream(instance, distinct=8, seed=args.seed)
    step = args.burst / max(args.queries, 1)
    for query in stream.take(args.queries):
        service.search(query)
        clock["now"] += step
    # Idle: the clock advances with no searches; once the burst ages out
    # of the rate window the rule resolves.
    idle_steps = max(2, int(2 * args.window / args.burst) + 1)
    for _ in range(idle_steps):
        clock["now"] += args.burst
        engine.evaluate()

    status = engine.status()
    if args.json:
        print(json.dumps(status, indent=2))
    else:
        print("-- %d rules, %d evaluations, %d firing" % (
            len(engine.rules), status["evaluations"], len(status["firing"])))
        for rule in engine.rules:
            print("--   rule %s: %s [%s]" % (
                rule.name, rule.condition(), rule.severity))
        for event in status["transitions"]:
            print("t=%+8.1fs  [%-8s] %-24s value=%s" % (
                event["ts"], event["to"], event["rule"],
                "%.2f" % event["value"] if event["value"] is not None
                else "-"))
    fired = {e["rule"] for e in status["transitions"] if e["to"] == "firing"}
    resolved = {e["rule"] for e in status["transitions"]
                if e["to"] == "resolved"}
    if not (fired & resolved):
        print("-- expected at least one firing->resolved cycle",
              file=sys.stderr)
        return 1
    return 0


def _expand_bench_paths(paths) -> List[str]:
    """Expand directories to the BENCH_*.json files inside them (a
    directory with none is an error -- an empty artifact set must not
    pass CI silently)."""
    import glob
    import os

    expanded: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            found = sorted(glob.glob(os.path.join(path, "BENCH_*.json")))
            if not found:
                raise SystemExit("%s: no BENCH_*.json artifacts inside" % path)
            expanded.extend(found)
        else:
            expanded.append(path)
    return expanded


def _cmd_bench_check(args) -> int:
    """Validate BENCH_*.json telemetry artifacts (CI's benchmark-smoke).
    Accepts files or directories; every invalid artifact is listed and
    any failure exits non-zero."""
    from .obs.telemetry import load_bench, validate_bench

    failures = 0
    for path in _expand_bench_paths(args.files):
        try:
            payload = load_bench(path)
        except (OSError, ValueError) as exc:
            print("%s: unreadable (%s)" % (path, exc))
            failures += 1
            continue
        problems = validate_bench(payload)
        if problems:
            failures += 1
            print("%s: INVALID" % path)
            for problem in problems:
                print("  - %s" % problem)
        else:
            tables = payload.get("tables", {})
            rows = sum(len(r) for r in tables.values())
            print("%s: ok (%d tables, %d rows)" % (path, len(tables), rows))
    return 1 if failures else 0


def _cmd_bench_diff(args) -> int:
    """Compare fresh benchmark artifacts against committed baselines (the
    CI perf-gate).  Exits 1 when anything regressed beyond tolerance."""
    import os

    from .obs.telemetry import compare_bench, diff_bench_dirs, load_bench

    if os.path.isdir(args.old) != os.path.isdir(args.new) and not os.path.isdir(
        args.old
    ):
        raise SystemExit("old and new must both be files or both directories")
    if os.path.isdir(args.old):
        report = diff_bench_dirs(
            args.old, args.new,
            tolerance=args.tolerance,
            timing_tolerance=args.timing_tolerance,
        )
        artifacts = report["artifacts"]
    else:
        single = compare_bench(
            load_bench(args.old), load_bench(args.new),
            tolerance=args.tolerance,
            timing_tolerance=args.timing_tolerance,
        )
        single["artifact"] = os.path.basename(args.new)
        artifacts = [single]
        report = {
            "old_dir": args.old,
            "new_dir": args.new,
            "tolerance": args.tolerance,
            "timing_tolerance": args.timing_tolerance,
            "artifacts": artifacts,
            "regressions_total": len(single["regressions"]),
        }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
    for artifact in artifacts:
        name = artifact.get("artifact", artifact.get("experiment", "?"))
        regressions = artifact.get("regressions", [])
        improvements = artifact.get("improvements", [])
        if regressions:
            print("%s: %d REGRESSION(S)" % (name, len(regressions)))
            for entry in regressions:
                print("  - %s" % _render_diff_entry(entry))
        else:
            print("%s: ok (%d fields compared, %d timing skipped%s)" % (
                name,
                artifact.get("compared_fields", 0),
                artifact.get("skipped_timing_fields", 0),
                ", %d improved" % len(improvements) if improvements else "",
            ))
    total = report["regressions_total"]
    if total:
        print("bench-diff: %d regression(s) beyond tolerance %g" % (
            total, args.tolerance))
        return 1
    return 0


def _render_diff_entry(entry) -> str:
    where = entry.get("table", "")
    if "row" in entry:
        where += "[%d]" % entry["row"]
    if "field" in entry:
        where += ".%s" % entry["field"]
    if "problem" in entry and "old" not in entry:
        return "%s: %s" % (where or "artifact", entry["problem"])
    if "change" in entry:
        return "%s: %s -> %s (%+g%%)" % (
            where, entry.get("old"), entry.get("new"),
            entry["change"] * 100 if entry["change"] != "inf" else float("inf"),
        )
    return "%s: %s (%r -> %r)" % (
        where, entry.get("problem", "changed"), entry.get("old"), entry.get("new"),
    )


def _cmd_serve_admin(args) -> int:
    """Run a directory service with its HTTP admin endpoint up."""
    import time as _time

    from .obs.log import EventLogger
    from .obs.trace import Tracer
    from .server.service import DirectoryService

    instance = _load(args.file, args.schema)
    log = EventLogger(min_level=args.log_level) if args.log else None
    service = DirectoryService(
        instance,
        page_size=args.page_size,
        buffer_pages=args.buffer_pages,
        tracer=Tracer(),
        slow_query_seconds=(
            args.slow_ms / 1e3 if args.slow_ms is not None else None
        ),
        log=log,
        budget=_budget_from(args),
    )
    service.bind_anonymous()
    for query in args.query or ():
        service.search(query)
    server = service.serve_admin(host=args.host, port=args.port)
    print("admin endpoint at %s (/metrics /healthz /slowlog /traces)"
          % server.url, file=sys.stderr)
    try:
        if args.duration is not None:
            _time.sleep(args.duration)
        else:
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _parse_window(text: str, what: str, parts: int):
    """Parse ``name[:name]:start[:end]`` chaos window specs."""
    fields = text.split(":")
    if len(fields) < parts or len(fields) > parts + 1:
        raise SystemExit(
            "bad %s spec %r (expected %s)" % (what, text, (
                "server:start[:end]" if parts == 2 else "a:b:start[:end]"
            ))
        )
    names, times = fields[: parts - 1], fields[parts - 1 :]
    try:
        start = float(times[0])
        end = float(times[1]) if len(times) > 1 else float("inf")
    except ValueError:
        raise SystemExit("bad %s window in %r (numbers expected)" % (what, text))
    return names, start, end


def _cmd_chaos(args) -> int:
    """Replay a seeded fault schedule against a federated workload and
    print an availability report."""
    from .dist import (
        DistError,
        FaultInjector,
        FaultPlan,
        FederatedDirectory,
        ResiliencePolicy,
        RetryPolicy,
    )
    from .engine.engine import QueryEngine
    from .workload.generator import RandomQueries

    instance = _load(args.file, args.schema)
    roots = sorted({e.dn for e in instance.roots()}, key=lambda dn: dn.key())
    if not roots:
        raise SystemExit("directory is empty")
    # server0 owns the root contexts; depth-2 subtrees are delegated
    # round-robin to the remaining servers (DNS-style subdomains), so even
    # a single-root directory produces remote traffic to disrupt.
    server_count = max(1, args.servers)
    assignments: Dict[str, list] = {"server0": list(roots)}
    if server_count > 1:
        subtrees = sorted(
            {e.dn for e in instance if e.dn.depth() == 2},
            key=lambda dn: dn.key(),
        )
        for index, subtree in enumerate(subtrees):
            name = "server%d" % (1 + index % (server_count - 1))
            assignments.setdefault(name, []).append(subtree)
    server_count = len(assignments)

    plan = FaultPlan(
        seed=args.seed,
        drop_rate=args.drop_rate,
        latency_s=args.latency_ms / 1e3,
        jitter_s=args.jitter_ms / 1e3,
        timeout_s=args.timeout_ms / 1e3 if args.timeout_ms is not None else None,
    )
    for spec in args.crash or ():
        (server,), start, end = _parse_window(spec, "crash", 2)
        plan.crash(server, start, end)
    for spec in args.partition or ():
        (a, b), start, end = _parse_window(spec, "partition", 3)
        plan.partition(a, b, start, end)
    network = FaultInjector(plan)
    federation = FederatedDirectory.partition(
        instance,
        assignments,
        page_size=args.page_size,
        buffer_pages=args.buffer_pages,
        network=network,
        leaf_cache_bytes=0 if args.no_cache else 256 * 1024,
    )
    federation.enable_resilience(
        ResiliencePolicy(
            retry=RetryPolicy(
                max_attempts=args.retries,
                backoff_s=args.backoff_ms / 1e3,
                seed=args.seed,
            ),
            breaker_failure_threshold=args.breaker_threshold,
            breaker_reset_s=args.breaker_reset_ms / 1e3,
            mode=args.mode,
        )
    )
    baseline = _engine_for(instance, args)
    queries = RandomQueries(instance, seed=args.seed)
    at = "server0"
    totals = {"exact": 0, "partial": 0, "degraded": 0, "failed": 0, "mismatch": 0}
    retries = 0
    for _ in range(args.queries):
        query = queries.l0()
        expected = baseline.run(query).dns()
        try:
            result = federation.query(at, query)
        except DistError:
            totals["failed"] += 1
            continue
        retries += result.retries
        if result.partial:
            totals["partial"] += 1
        elif result.warnings:
            totals["degraded"] += 1
        elif result.dns() == expected:
            totals["exact"] += 1
        else:
            totals["mismatch"] += 1
    answered = args.queries - totals["failed"]
    breaker_opens = sum(b.open_count() for b in federation.breakers.values())
    report = {
        "queries": args.queries,
        "servers": server_count,
        "mode": args.mode,
        "seed": args.seed,
        "answered": answered,
        "availability": answered / args.queries if args.queries else 1.0,
        "exact": totals["exact"],
        "partial": totals["partial"],
        "degraded": totals["degraded"],
        "mismatch": totals["mismatch"],
        "failed": totals["failed"],
        "retries": retries,
        "messages_delivered": network.messages,
        "send_attempts": network.attempts,
        "faults": dict(sorted(network.faults.items())),
        "breaker_opens": breaker_opens,
        "simulated_seconds": round(network.now, 6),
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print("== chaos report (seed=%d, drop=%.0f%%, %d servers, mode=%s) ==" % (
        args.seed, args.drop_rate * 100, server_count, args.mode))
    print("queries:    %d answered %d (%.1f%% availability)" % (
        args.queries, answered, 100.0 * report["availability"]))
    print("            %(exact)d exact, %(partial)d partial, "
          "%(degraded)d degraded, %(mismatch)d mismatched, %(failed)d failed"
          % totals)
    print("network:    %d delivered of %d attempts; faults: %s" % (
        network.messages, network.attempts,
        ", ".join("%s=%d" % kv for kv in sorted(network.faults.items())) or "none"))
    print("resilience: %d retries, %d breaker opens" % (retries, breaker_opens))
    print("sim clock:  %.3f s" % network.now)
    return 0


def _cmd_replication_status(args) -> int:
    """Stand up a replication group over an LDIF file, drive it through
    writes / shipping / an optional failover, and print the group status
    (the same dict the admin endpoint's /healthz carries)."""
    from .dist import FaultInjector, FaultPlan, ReplicatedContext
    from .obs.metrics import MetricsRegistry

    instance = _load(args.file, args.schema)
    roots = sorted({e.dn for e in instance.roots()}, key=lambda dn: dn.key())
    if not roots:
        raise SystemExit("directory is empty")
    root = roots[0]
    network = FaultInjector(FaultPlan(seed=args.seed), metrics=MetricsRegistry())
    replicated = ReplicatedContext(
        root,
        instance.schema,
        secondaries=args.secondaries,
        network=network,
        ack=args.ack,
        page_size=args.page_size,
        buffer_pages=args.buffer_pages,
        metrics=MetricsRegistry(),
    )
    for entry in instance:
        if root.is_prefix_of(entry.dn):
            replicated.add_entry(entry)
    replicated.sync()
    if args.failover:
        deposed = replicated.primary_name
        replicated.promote()
        # The new lineage keeps shipping; the deposed primary rejoins as a
        # secondary on the next rounds.
        replicated.sync()
        replicated.sync()
        print("failed over: %s deposed, %s now primary (epoch %d)"
              % (deposed, replicated.primary_name, replicated.epoch),
              file=sys.stderr)
    status = replicated.replication_status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print("== replication status (%s) ==" % status["context"])
    print("epoch:     %d    primary: %s    ack: %s" % (
        status["epoch"], status["primary"], status["ack"]))
    print("head lsn:  %d    changelog: %d record(s) above lsn %d" % (
        status["head_lsn"], status["changelog_records"],
        status["changelog_floor_lsn"]))
    print("history:   %d failover(s), %d resync(s)" % (
        status["failovers"], status["resyncs"]))
    print("%-12s %-10s %-6s %-10s %-12s %-6s %s" % (
        "REPLICA", "ROLE", "EPOCH", "ACKED", "APPLIED", "LAG", "RESYNC"))
    for name in sorted(status["replicas"]):
        replica = status["replicas"][name]
        print("%-12s %-10s %-6d %-10d %-12d %-6d %s" % (
            name, replica["role"], replica["epoch"], replica["acked_lsn"],
            replica["applied_lsn"], replica["lag"],
            "needed" if replica["needs_resync"] else "-"))
    return 0


def _cmd_consistency(args) -> int:
    """Run the deterministic replication consistency harness over a seed
    matrix; exit non-zero if any schedule violates an invariant."""
    import tempfile

    from .dist.consistency import run_matrix

    seeds = range(args.seed, args.seed + args.seeds)
    if args.durable:
        with tempfile.TemporaryDirectory() as tmp:
            reports = run_matrix(
                seeds, secondaries=args.secondaries, steps=args.steps,
                ack=args.ack, durable_root=tmp,
            )
    else:
        reports = run_matrix(
            seeds, secondaries=args.secondaries, steps=args.steps, ack=args.ack
        )
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
        return 0 if all(r.ok for r in reports) else 1
    print("== consistency harness (ack=%s, %d steps, %d secondaries%s) ==" % (
        args.ack, args.steps, args.secondaries,
        ", durable primary" if args.durable else ""))
    print("%-6s %-4s %-7s %-9s %-9s %-7s %-7s %-8s %s" % (
        "SEED", "OK", "EPOCHS", "ACKED", "FAILOVER", "FENCED", "RESYNC",
        "CRASHES", "LOST(acked/unacked)"))
    for r in reports:
        print("%-6d %-4s %-7d %-9d %-9d %-7d %-7d %-8d %d/%d" % (
            r.seed, "yes" if r.ok else "NO", r.final_epoch, r.writes_acked,
            r.failovers, r.fenced_rejections, r.resyncs, r.process_crashes,
            r.writes_lost_acked, r.writes_lost_unacked))
    violations = [v for r in reports for v in r.violations]
    if violations:
        print("\n%d violation(s):" % len(violations), file=sys.stderr)
        for violation in violations:
            print("  " + violation, file=sys.stderr)
        return 1
    print("-- all %d schedules held every invariant" % len(reports))
    return 0


def _cmd_dump_example(args) -> int:
    if args.which == "qos":
        from .apps.qos import build_paper_fragment

        instance = build_paper_fragment().instance
    elif args.which == "tops":
        from .apps.tops import build_paper_fragment

        instance = build_paper_fragment().instance
    else:
        from .apps.whitepages import WhitePages

        pages = WhitePages("dc=att, dc=com")
        boss = pages.add_person(["research"], "jag", "h jagadish", "jagadish",
                                telephone="9733608776", title="head")
        pages.add_person(["research", "db"], "divesh", "divesh srivastava",
                         "srivastava", manager=boss)
        pages.add_person(["sales"], "milo", "tova milo", "milo")
        instance = pages.instance
    sys.stdout.write(dumps_ldif(instance))
    return 0


def _cmd_wal_dump(args) -> int:
    import os

    from .txn.wal import scan_wal

    path = args.path
    if os.path.isdir(path):
        path = os.path.join(path, "wal.log")
    if not os.path.exists(path):
        print("wal-dump: no such log: %s" % path, file=sys.stderr)
        return 1
    records, valid_bytes, torn = scan_wal(path)
    print("%-6s %-8s %-8s %s" % ("LSN", "KIND", "SUBTREE", "DN"))
    for record in records:
        print(
            "%-6s %-8s %-8s %s"
            % (record.lsn, record.kind, "yes" if record.subtree else "-", record.dn)
        )
    print(
        "-- %d record(s), %d valid byte(s)%s"
        % (len(records), valid_bytes, ", TORN TAIL after last record" if torn else "")
    )
    return 0


def _cmd_ldapurl(args) -> int:
    from .ldapx.url import parse_ldap_url

    parsed = parse_ldap_url(args.url)
    print("scheme:     %s" % parsed.scheme)
    print("host:       %s" % (parsed.host or "(default)"))
    print("port:       %s" % (parsed.port or "(default)"))
    print("base dn:    %s" % (parsed.base or "(root)"))
    print("attributes: %s" % (", ".join(parsed.attributes) or "(all)"))
    print("scope:      %s" % parsed.scope)
    print("filter:     %s" % parsed.filter_text)
    print("query:      %s" % parsed.to_query())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query network directories (SIGMOD 1999 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--schema", default="standard",
                       help="schema preset: standard, synthetic, qos, tops")
        p.add_argument("--page-size", type=int, default=16,
                       help="blocking factor B (entries per page)")
        p.add_argument("--buffer-pages", type=int, default=8,
                       help="buffer pool capacity in pages")
        p.add_argument("--index", action="append", metavar="ATTR",
                       help="build a secondary index on this attribute, keyed "
                            "by its schema type (repeatable)")

    def budget_flags(p):
        p.add_argument("--max-pages", type=int, default=None, metavar="N",
                       help="budget: cancel past N logical page transfers")
        p.add_argument("--max-wall-ms", type=float, default=None, metavar="MS",
                       help="budget: cancel past MS of wall clock")
        p.add_argument("--max-entries", type=int, default=None, metavar="N",
                       help="budget: cancel when an intermediate result "
                            "exceeds N entries")

    query = sub.add_parser("query", help="run a query against an LDIF file")
    query.add_argument("file")
    query.add_argument("query", help="query in the paper's syntax")
    query.add_argument("--io", action="store_true", help="print cost to stderr")
    query.add_argument("--trace", action="store_true",
                       help="print the span trace (per-operator time and I/O) to stderr")
    budget_flags(query)
    common(query)
    query.set_defaults(handler=_cmd_query)

    explain_cmd = sub.add_parser("explain", help="show the query plan")
    explain_cmd.add_argument("file")
    explain_cmd.add_argument("query")
    explain_cmd.add_argument("--analyze", action="store_true",
                             help="also run the query once and report actual "
                                  "sizes and per-operator page I/O")
    explain_cmd.add_argument("--json", action="store_true",
                             help="emit the plan as JSON")
    common(explain_cmd)
    explain_cmd.set_defaults(handler=_cmd_explain)

    plan_cmd = sub.add_parser(
        "plan",
        help="print the chosen plan (rewrites, operand order, access paths, "
             "estimates) without running the query",
    )
    plan_cmd.add_argument("file")
    plan_cmd.add_argument("query")
    plan_cmd.add_argument("--json", action="store_true",
                          help="emit the plan as JSON (greppable in CI)")
    common(plan_cmd)
    plan_cmd.set_defaults(handler=_cmd_plan)

    stats_cmd = sub.add_parser("stats", help="print directory statistics")
    stats_cmd.add_argument("file")
    stats_cmd.add_argument("--json", action="store_true",
                           help="emit the statistics as JSON")
    common(stats_cmd)
    stats_cmd.set_defaults(handler=_cmd_stats)

    metrics_cmd = sub.add_parser(
        "metrics",
        help="run queries through a directory service and dump its metrics "
             "registry (Prometheus text format)")
    metrics_cmd.add_argument("file")
    metrics_cmd.add_argument("--query", action="append", metavar="QUERY",
                             help="search to run before dumping (repeatable)")
    metrics_cmd.add_argument("--json", action="store_true",
                             help="emit JSON instead of Prometheus text")
    metrics_cmd.add_argument("--slow-ms", type=float, default=None, metavar="MS",
                             help="slow-query log threshold in milliseconds "
                                  "(log printed to stderr)")
    common(metrics_cmd)
    metrics_cmd.set_defaults(handler=_cmd_metrics)

    top_cmd = sub.add_parser(
        "top",
        help="run a Zipf-skewed workload and print the query digest table "
             "and hottest subtrees (pg_stat_statements for the directory)")
    top_cmd.add_argument("file")
    top_cmd.add_argument("--queries", type=int, default=300,
                         help="searches to run (default 300)")
    top_cmd.add_argument("--distinct", type=int, default=16,
                         help="distinct query shapes in the Zipf pool")
    top_cmd.add_argument("--skew", type=float, default=1.0,
                         help="Zipf exponent (0 = uniform)")
    top_cmd.add_argument("--seed", type=int, default=0,
                         help="workload seed")
    top_cmd.add_argument("-n", "--top", type=int, default=10,
                         help="rows / subtrees to print")
    top_cmd.add_argument("--by", default="calls",
                         choices=("calls", "time", "mean_time", "pages",
                                  "qerror"),
                         help="digest ordering (default calls)")
    top_cmd.add_argument("--depth", type=int, default=2,
                         help="heat-map subtree prefix depth")
    top_cmd.add_argument("--json", action="store_true",
                         help="emit digest + heatmap snapshots as JSON")
    common(top_cmd)
    top_cmd.set_defaults(handler=_cmd_top)

    alerts_cmd = sub.add_parser(
        "alerts",
        help="deterministic alert demo: a query burst fires a rate rule, "
             "an idle phase resolves it (injected clock)")
    alerts_cmd.add_argument("file")
    alerts_cmd.add_argument("--rule", action="append", metavar="RULE",
                            help="alert rule, e.g. "
                                 "'rate(repro_searches_total, 30) > 5' "
                                 "(repeatable; default: one rate rule)")
    alerts_cmd.add_argument("--queries", type=int, default=200,
                            help="searches in the burst phase")
    alerts_cmd.add_argument("--burst", type=float, default=10.0,
                            help="injected seconds the burst spans")
    alerts_cmd.add_argument("--window", type=float, default=30.0,
                            help="rate window for the default rule")
    alerts_cmd.add_argument("--threshold", type=float, default=5.0,
                            help="searches/s threshold for the default rule")
    alerts_cmd.add_argument("--seed", type=int, default=0,
                            help="workload seed")
    alerts_cmd.add_argument("--json", action="store_true",
                            help="emit the engine status as JSON")
    common(alerts_cmd)
    alerts_cmd.set_defaults(handler=_cmd_alerts)

    chaos_cmd = sub.add_parser(
        "chaos",
        help="replay a seeded fault schedule against a federated workload "
             "and print an availability report")
    chaos_cmd.add_argument("file")
    chaos_cmd.add_argument("--servers", type=int, default=3,
                           help="servers to partition the directory across")
    chaos_cmd.add_argument("--queries", type=int, default=100,
                           help="random L0 queries to replay")
    chaos_cmd.add_argument("--seed", type=int, default=7,
                           help="seed for the fault schedule and the workload")
    chaos_cmd.add_argument("--drop-rate", type=float, default=0.1,
                           help="iid message drop probability")
    chaos_cmd.add_argument("--latency-ms", type=float, default=1.0,
                           help="base per-message latency (simulated clock)")
    chaos_cmd.add_argument("--jitter-ms", type=float, default=1.0,
                           help="uniform extra latency per message")
    chaos_cmd.add_argument("--timeout-ms", type=float, default=None,
                           help="delivery timeout; slower messages fault")
    chaos_cmd.add_argument("--crash", action="append", metavar="SERVER:START[:END]",
                           help="crash window on the simulated clock (repeatable)")
    chaos_cmd.add_argument("--partition", action="append", metavar="A:B:START[:END]",
                           help="pairwise partition window (repeatable)")
    chaos_cmd.add_argument("--retries", type=int, default=4,
                           help="max attempts per remote atomic call")
    chaos_cmd.add_argument("--backoff-ms", type=float, default=5.0,
                           help="base retry backoff (exponential, jittered)")
    chaos_cmd.add_argument("--breaker-threshold", type=int, default=5,
                           help="consecutive failures before a breaker opens")
    chaos_cmd.add_argument("--breaker-reset-ms", type=float, default=250.0,
                           help="open-breaker reset timeout")
    chaos_cmd.add_argument("--mode", choices=("partial", "strict"),
                           default="partial",
                           help="degradation mode past retries")
    chaos_cmd.add_argument("--no-cache", action="store_true",
                           help="disable the remote-sublist cache")
    chaos_cmd.add_argument("--json", action="store_true",
                           help="emit the report as JSON")
    common(chaos_cmd)
    chaos_cmd.set_defaults(handler=_cmd_chaos)

    bench_cmd = sub.add_parser(
        "bench-check",
        help="validate BENCH_*.json benchmark telemetry files or directories")
    bench_cmd.add_argument("files", nargs="+",
                           help="BENCH_*.json files and/or directories of them")
    bench_cmd.set_defaults(handler=_cmd_bench_check)

    diff_cmd = sub.add_parser(
        "bench-diff",
        help="compare benchmark artifacts against baselines and fail on "
             "regressions (the CI perf-gate)")
    diff_cmd.add_argument("old", help="baseline BENCH_*.json file or directory")
    diff_cmd.add_argument("new", help="fresh BENCH_*.json file or directory")
    diff_cmd.add_argument("--tolerance", type=float, default=0.1,
                          help="allowed relative drift for deterministic "
                               "fields (default 0.1)")
    diff_cmd.add_argument("--timing-tolerance", type=float, default=None,
                          metavar="T",
                          help="also gate wall-clock fields, at this relative "
                               "tolerance (skipped by default: timings are "
                               "noisy on shared runners)")
    diff_cmd.add_argument("--report", metavar="PATH",
                          help="write the full diff report as JSON")
    diff_cmd.set_defaults(handler=_cmd_bench_diff)

    admin_cmd = sub.add_parser(
        "serve-admin",
        help="run a directory service with its HTTP admin endpoint "
             "(/metrics /healthz /slowlog /traces)")
    admin_cmd.add_argument("file")
    admin_cmd.add_argument("--host", default="127.0.0.1")
    admin_cmd.add_argument("--port", type=int, default=8389,
                           help="port to bind (0 picks a free one)")
    admin_cmd.add_argument("--duration", type=float, default=None,
                           metavar="SECONDS",
                           help="serve for this long then exit (default: "
                                "until interrupted)")
    admin_cmd.add_argument("--query", action="append", metavar="QUERY",
                           help="search to run at startup so the endpoint "
                                "has data (repeatable)")
    admin_cmd.add_argument("--slow-ms", type=float, default=100.0, metavar="MS",
                           help="threshold of the slow-query ring behind "
                                "/slowlog and /traces (default 100ms)")
    admin_cmd.add_argument("--log", action="store_true",
                           help="emit JSON-lines events to stderr")
    admin_cmd.add_argument("--log-level", default="info",
                           choices=("debug", "info", "warning", "error"))
    budget_flags(admin_cmd)
    common(admin_cmd)
    admin_cmd.set_defaults(handler=_cmd_serve_admin)

    repl_cmd = sub.add_parser(
        "replication-status",
        help="stand up a replication group over an LDIF file and print "
             "epoch + per-replica acked lsn / lag")
    repl_cmd.add_argument("file")
    repl_cmd.add_argument("--secondaries", type=int, default=2,
                          help="secondary replicas in the group")
    repl_cmd.add_argument("--ack", choices=("primary", "quorum", "all"),
                          default="primary",
                          help="write acknowledgment level")
    repl_cmd.add_argument("--seed", type=int, default=7,
                          help="seed for the (fault-free) injected network")
    repl_cmd.add_argument("--failover", action="store_true",
                          help="also promote a secondary (epoch fence demo)")
    repl_cmd.add_argument("--json", action="store_true",
                          help="emit the status dict as JSON")
    common(repl_cmd)
    repl_cmd.set_defaults(handler=_cmd_replication_status)

    consistency_cmd = sub.add_parser(
        "consistency",
        help="run the seeded replication consistency harness (crashes, "
             "partitions, failovers) and check its invariants")
    consistency_cmd.add_argument("--seeds", type=int, default=20,
                                 help="number of schedules to run")
    consistency_cmd.add_argument("--seed", type=int, default=0,
                                 help="first seed of the matrix")
    consistency_cmd.add_argument("--steps", type=int, default=48,
                                 help="schedule length per seed")
    consistency_cmd.add_argument("--secondaries", type=int, default=2,
                                 help="secondary replicas per group")
    consistency_cmd.add_argument("--ack", choices=("primary", "quorum", "all"),
                                 default="quorum",
                                 help="write acknowledgment level under test")
    consistency_cmd.add_argument("--durable", action="store_true",
                                 help="put a real WAL under the primary and "
                                      "add mid-commit process crashes")
    consistency_cmd.add_argument("--json", action="store_true",
                                 help="emit the reports as JSON")
    consistency_cmd.set_defaults(handler=_cmd_consistency)

    dump = sub.add_parser("dump-example", help="write a sample directory as LDIF")
    dump.add_argument("which", choices=("qos", "tops", "whitepages"))
    dump.set_defaults(handler=_cmd_dump_example)

    url = sub.add_parser("ldapurl", help="parse an RFC 2255 LDAP URL")
    url.add_argument("url")
    url.set_defaults(handler=_cmd_ldapurl)

    wal = sub.add_parser(
        "wal-dump",
        help="print the records of a write-ahead log (file or data dir)",
    )
    wal.add_argument("path", help="wal.log file, or a durable data directory")
    wal.set_defaults(handler=_cmd_wal_dump)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
