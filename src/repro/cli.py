"""Command-line interface: query LDIF directories from the shell.

Usage (also via ``python -m repro``)::

    python -m repro dump-example qos > policies.ldif
    python -m repro query policies.ldif --schema qos \\
        "(g (dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules) count(SLAPVPRef) > 1)"
    python -m repro explain policies.ldif --schema qos --analyze --json "( ? sub ? objectClass=*)"
    python -m repro stats policies.ldif --schema qos --json
    python -m repro metrics policies.ldif --schema qos --query "( ? sub ? objectClass=*)"
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

        engine.tracer = Tracer()
        engine.tracer.io = engine.pager.stats
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
    store = DirectoryStore.from_instance(
        instance, page_size=args.page_size, buffer_pages=args.buffer_pages
    )
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
    from .obs.metrics import get_registry
    from .server.service import DirectoryService

    instance = _load(args.file, args.schema)
    service = DirectoryService(
        instance,
        page_size=args.page_size,
        buffer_pages=args.buffer_pages,
        slow_query_seconds=(
            args.slow_ms / 1e3 if args.slow_ms is not None else None
        ),
    )
    service.bind_anonymous()
    for query in args.query or ():
        service.search(query)
    service.refresh_gauges()
    registry = get_registry()
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

    from .server.service import DirectoryService
    from .workload.generator import ZipfQueryStream

    instance = _load(args.file, args.schema)
    service = DirectoryService(
        instance,
        page_size=args.page_size,
        buffer_pages=args.buffer_pages,
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


def _cmd_serve_admin(args) -> int:
    """Run a directory service with its HTTP admin endpoint up."""
    import time as _time

    from .obs.log import configure
    from .obs.trace import Tracer
    from .server.service import DirectoryService

    instance = _load(args.file, args.schema)
    if args.log:
        configure(sys.stderr, args.log_level)
    service = DirectoryService(
        instance,
        page_size=args.page_size,
        buffer_pages=args.buffer_pages,
        tracer=Tracer(),
        slow_query_seconds=(
            args.slow_ms / 1e3 if args.slow_ms is not None else None
        ),
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

    def engine_flags(p):
        common(p)
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
    engine_flags(query)
    query.set_defaults(handler=_cmd_query)

    explain_cmd = sub.add_parser("explain", help="show the query plan")
    explain_cmd.add_argument("file")
    explain_cmd.add_argument("query")
    explain_cmd.add_argument("--analyze", action="store_true",
                             help="also run the query once and report actual "
                                  "sizes and per-operator page I/O")
    explain_cmd.add_argument("--json", action="store_true",
                             help="emit the plan as JSON")
    engine_flags(explain_cmd)
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
    engine_flags(plan_cmd)
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
