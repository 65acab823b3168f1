"""The HTTP admin endpoint: scrape the operations plane from outside.

Everything the obs plane makes measurable in-process becomes reachable
over HTTP, with no dependency beyond the stdlib (``http.server`` on a
daemon thread):

==========  ============================================================
path        payload
==========  ============================================================
/metrics    the metrics registry in Prometheus text exposition format --
            byte-identical to ``MetricsRegistry.to_prometheus()`` (the
            same function ``python -m repro metrics`` prints through)
/healthz    liveness JSON: status, uptime, plus whatever the owner's
            ``health`` callable reports (entry counts, compactions, ...)
/slowlog    the slow searches in the slow-query ring
            (:mod:`repro.obs.slowlog`) as JSON, newest last, with a latency
            summary (p50/p95/p99 interpolated from the search-latency
            histogram when one is registered)
/traces     every search the same ring retained (slow / degraded /
            budget-breached) as a sample with its span tree, plus the
            ring's offered / kept counts
/digest     the :class:`~repro.obs.digest.QueryDigestTable`'s top rows
            (``?n=10&by=calls|time|mean_time|pages|qerror``)
/heatmap    the :class:`~repro.obs.heatmap.SubtreeHeatMap`'s hottest
            subtrees (``?n=10&by=heat|reads|writes|pages|shipped``)
==========  ============================================================

Response discipline (hardened): every payload carries an explicit
``Content-Type`` and ``Content-Length``; errors are JSON bodies -- 404
for unknown paths, 400 for malformed query parameters, 405 (with an
``Allow: GET, HEAD`` header) for write methods, 500 if a payload raises.
``HEAD`` returns the same headers as ``GET`` with no body.  Workload
endpoints whose collaborator is absent serve an explicit
``{"enabled": false}`` payload rather than 404, so scrapers can probe
capability cheaply.

:class:`AdminServer` serves a *snapshot view*: handlers only read the
registry, rings and tables under their own locks, so scrapes never block
query traffic.  ``port=0`` binds an ephemeral port (tests);
:attr:`AdminServer.url` is the resolved base URL.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from .log import LOG
from .metrics import Histogram, get_registry

__all__ = ["AdminServer"]

#: The histogram ``/slowlog`` summarises (the service's latency metric).
SEARCH_LATENCY_METRIC = "repro_search_seconds"

JSON_TYPE = "application/json"
PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _BadParameter(ValueError):
    """A malformed query parameter (rendered as a 400)."""


def _int_param(params: Dict[str, List[str]], name: str, default: int) -> int:
    values = params.get(name)
    if not values:
        return default
    try:
        value = int(values[-1])
    except ValueError:
        raise _BadParameter("%s must be an integer, got %r" % (name, values[-1]))
    if value < 0:
        raise _BadParameter("%s must be non-negative, got %d" % (name, value))
    return value


def _choice_param(
    params: Dict[str, List[str]],
    name: str,
    default: str,
    choices: Tuple[str, ...],
) -> str:
    """The last ``name`` value (``default`` when absent); 400s on values
    outside ``choices`` -- validated here so a bogus ordering is rejected
    even when the backing collaborator is absent and would never see it."""
    values = params.get(name)
    value = values[-1] if values else default
    if value not in choices:
        raise _BadParameter(
            "%s must be one of %s, got %r" % (name, sorted(choices), value)
        )
    return value


#: ``by=`` orderings accepted by ``/digest`` and ``/heatmap`` (mirrors
#: what QueryDigestTable.top / SubtreeHeatMap.hottest accept).
DIGEST_ORDERINGS = ("calls", "time", "mean_time", "pages", "qerror")
HEATMAP_ORDERINGS = ("heat", "reads", "writes", "pages", "shipped")


class AdminServer:
    """The operations-plane HTTP endpoint, on a daemon thread.

    :param slow_queries: a :class:`~repro.obs.slowlog.SlowQueryLog`
        (``/slowlog`` and ``/traces`` serve an empty ring without one).
    :param health: zero-argument callable returning extra ``/healthz``
        fields.
    :param digest: a :class:`~repro.obs.digest.QueryDigestTable` for
        ``/digest``.
    :param heatmap: a :class:`~repro.obs.heatmap.SubtreeHeatMap` for
        ``/heatmap``.
    :param gauges: zero-argument callable that sets the served object's
        point-in-time gauges; ``/metrics`` calls it just before rendering.
    """

    def __init__(
        self,
        slow_queries=None,
        health: Optional[Callable[[], Dict[str, Any]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        digest=None,
        heatmap=None,
        gauges: Optional[Callable[[], None]] = None,
    ):
        self.slow_queries = slow_queries
        self.gauges = gauges
        self.health = health
        self.digest = digest
        self.heatmap = heatmap
        self._host = host
        self._port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "AdminServer":
        """Bind and serve on a daemon thread; returns self (the bound
        address is in :attr:`address`/:attr:`url`)."""
        if self._httpd is not None:
            raise RuntimeError("admin server already started")
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self._host, self._port), handler)
        self._httpd.daemon_threads = True
        self._started_at = time.time()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-admin",
            daemon=True,
        )
        self._thread.start()
        if LOG.enabled:
            LOG.info("admin.start", url=self.url)
        return self

    def stop(self) -> None:
        """Shut the endpoint down (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._httpd = None
        self._thread = None
        if LOG.enabled:
            LOG.info("admin.stop")

    close = stop

    def __enter__(self) -> "AdminServer":
        if self._httpd is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def address(self):
        """The bound ``(host, port)`` (None before :meth:`start`)."""
        if self._httpd is None:
            return None
        host, port = self._httpd.server_address[:2]
        return (host, port)

    @property
    def url(self) -> Optional[str]:
        address = self.address
        if address is None:
            return None
        return "http://%s:%d" % address

    # -- payloads ----------------------------------------------------------

    def metrics_text(self) -> str:
        if self.gauges is not None:
            self.gauges()
        return get_registry().to_prometheus()

    def healthz(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "status": "ok",
            "uptime_s": round(time.time() - self._started_at, 3),
        }
        if self.health is not None:
            payload.update(self.health())
        return payload

    def slowlog(self) -> Dict[str, Any]:
        log = self.slow_queries
        payload: Dict[str, Any] = {
            "threshold_s": getattr(log, "threshold_seconds", None),
            "total": getattr(log, "total", 0),
            "records": log.as_dicts() if log is not None else [],
        }
        histogram = get_registry().get(SEARCH_LATENCY_METRIC)
        if isinstance(histogram, Histogram):
            payload["latency_quantiles"] = histogram.quantiles()
        return payload

    def traces(self) -> Dict[str, Any]:
        ring = self.slow_queries
        return {
            "offered": getattr(ring, "offered", 0),
            "kept": getattr(ring, "kept", 0),
            "traces": ring.traces() if ring is not None else [],
        }

    def digest_payload(self, n: int = 10, by: str = "calls") -> Dict[str, Any]:
        if self.digest is None:
            return {"enabled": False, "rows": 0, "top": []}
        return dict(self.digest.snapshot(n, by=by), enabled=True)

    def heatmap_payload(self, n: int = 10, by: str = "heat") -> Dict[str, Any]:
        if self.heatmap is None:
            return {"enabled": False, "cells": 0, "hottest": []}
        return dict(self.heatmap.snapshot(n, by=by), enabled=True)

    # -- routing -----------------------------------------------------------

    def routes(self) -> List[str]:
        """Every served path (the 404 body lists them)."""
        return sorted(self._route_table())

    def _route_table(self) -> Dict[str, Callable[[Dict[str, List[str]]], "tuple"]]:
        return {
            "/metrics": self._r_metrics,
            "/healthz": self._r_healthz,
            "/slowlog": self._r_slowlog,
            "/traces": self._r_traces,
            "/digest": self._r_digest,
            "/heatmap": self._r_heatmap,
        }

    def _r_metrics(self, params):
        return self.metrics_text().encode("utf-8"), PROMETHEUS_TYPE

    def _r_healthz(self, params):
        return _json_body(self.healthz()), JSON_TYPE

    def _r_slowlog(self, params):
        return _json_body(self.slowlog()), JSON_TYPE

    def _r_traces(self, params):
        return _json_body(self.traces()), JSON_TYPE

    def _r_digest(self, params):
        payload = self.digest_payload(
            n=_int_param(params, "n", 10),
            by=_choice_param(params, "by", "calls", DIGEST_ORDERINGS),
        )
        return _json_body(payload), JSON_TYPE

    def _r_heatmap(self, params):
        payload = self.heatmap_payload(
            n=_int_param(params, "n", 10),
            by=_choice_param(params, "by", "heat", HEATMAP_ORDERINGS),
        )
        return _json_body(payload), JSON_TYPE

    def __repr__(self) -> str:
        return "AdminServer(%s)" % (self.url or "stopped")


def _make_handler(server: AdminServer):
    """The request handler class bound to one :class:`AdminServer`."""

    class _Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_GET(self) -> None:  # noqa: N802 - http.server naming
            self._serve(send_body=True)

        def do_HEAD(self) -> None:  # noqa: N802
            self._serve(send_body=False)

        def _serve(self, send_body: bool) -> None:
            raw_path, _, query = self.path.partition("?")
            path = raw_path.rstrip("/") or "/"
            route = server._route_table().get(path)
            if route is None:
                self._reply(
                    404,
                    _json_body({
                        "error": "no such endpoint",
                        "path": path,
                        "endpoints": server.routes(),
                    }),
                    JSON_TYPE,
                    send_body,
                )
                return
            try:
                params = parse_qs(query, keep_blank_values=True)
                body, content_type = route(params)
            except _BadParameter as exc:
                self._reply(
                    400,
                    _json_body({"error": str(exc), "path": path}),
                    JSON_TYPE,
                    send_body,
                )
                return
            except ValueError as exc:
                # A payload rejecting a parameter value (unknown ordering
                # etc.) is the client's fault, not a server error.
                self._reply(
                    400,
                    _json_body({"error": str(exc), "path": path}),
                    JSON_TYPE,
                    send_body,
                )
                return
            except Exception as exc:  # defensive: a scrape must not kill serving
                self._reply(
                    500,
                    _json_body({"error": "%s: %s" % (type(exc).__name__, exc)}),
                    JSON_TYPE,
                    send_body,
                )
                return
            self._reply(200, body, content_type, send_body)

        def _method_not_allowed(self) -> None:
            # Drain any request body so a keep-alive connection stays in
            # sync for its next request.
            length = int(self.headers.get("Content-Length") or 0)
            while length > 0:
                chunk = self.rfile.read(min(length, 65536))
                if not chunk:
                    break
                length -= len(chunk)
            body = _json_body({
                "error": "method not allowed",
                "method": self.command,
                "allow": "GET, HEAD",
            })
            self.send_response(405)
            self.send_header("Allow", "GET, HEAD")
            self.send_header("Content-Type", JSON_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            self._log_request(405, len(body))

        # The admin plane is read-only: every write method gets the same
        # explicit JSON 405 instead of http.server's HTML 501.
        do_POST = _method_not_allowed  # noqa: N815 - http.server naming
        do_PUT = _method_not_allowed  # noqa: N815
        do_DELETE = _method_not_allowed  # noqa: N815
        do_PATCH = _method_not_allowed  # noqa: N815

        def _reply(
            self, status: int, body: bytes, content_type: str, send_body: bool = True
        ) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if send_body:
                self.wfile.write(body)
            self._log_request(status, len(body))

        def _log_request(self, status: int, size: int) -> None:
            if LOG.enabled:
                LOG.debug(
                    "admin.request", method=self.command, path=self.path,
                    status=status, bytes=size,
                )

        def log_message(self, format: str, *args: Any) -> None:
            # http.server's stderr chatter is replaced by the event log.
            pass

    return _Handler


def _json_body(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
