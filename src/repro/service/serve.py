"""Serve plans over HTTP: ``python -m repro.service.serve``.

Usage::

    python -m repro.service.serve --port 8423 --cache-dir ~/.cache/repro-traces
    python -m repro.service.serve --capacity 4096 --pricing-feed prices.json \\
        --telemetry-out /tmp/service-events.jsonl --run-store /tmp/runstore

    curl -s localhost:8423/healthz
    curl -s -XPOST localhost:8423/plan/cluster \\
        -d '{"model": "mixtral", "gpu": ["a40"], "deadline_hours": 24}'
    curl -s -XPOST localhost:8423/plan/spot -d '{"model": "mixtral"}'
    curl -s localhost:8423/stats

Stdlib-only: a :class:`ThreadingHTTPServer` dispatching to one shared
:class:`~repro.service.app.PlanningService`. Threads matter — they are
what request coalescing coalesces — but all planning state is the
service's (thread-safe) cache, so the handler layer stays stateless.

``--cache-dir`` / ``$REPRO_CACHE_DIR`` and ``--run-store`` /
``$REPRO_RUN_STORE`` resolve exactly like the plan CLIs' flags, so a
store prewarmed by ``python -m repro.cluster.plan`` makes the server's
first matching request simulate nothing.
"""

from __future__ import annotations

import argparse
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional

from ..scenarios import resolve_store
from ..serialization import dumps
from ..telemetry.runstore import resolve_run_store
from .app import PlanningService, RequestError
from .catalog import DEFAULT_TTL_SECONDS, PricingCatalog

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8423
#: The largest request body read. A plan request is well under 1 KB;
#: anything declaring more is a 413 and is never read.
MAX_BODY_BYTES = 1 << 20

_PLAN_PATHS = {"/plan/cluster": "cluster", "/plan/spot": "spot"}


class PlanningRequestHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints onto the bound :class:`PlanningService`."""

    service: PlanningService  # bound per server by make_server()
    server_version = "repro-plan-service/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # Quiet by default: the service's own metrics (/stats) are the
        # observability surface; per-request access lines would only add
        # nondeterministic stderr noise to tests and CI smoke output.
        pass

    # ------------------------------------------------------------------
    def _send(self, status: int, body: str, close: bool = False) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:
            self.close_connection = True
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _send_error(self, status: int, message: str, close: bool = False) -> None:
        self._send(status, dumps({"error": message}, indent=2), close)

    def _read_body(self) -> bytes:
        """The request body, read only when its declared length is a
        string of ASCII digits (HTTP's ``1*DIGIT``) at most
        ``MAX_BODY_BYTES``; any other length is a :class:`RequestError`
        and the body is left unread."""
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            raise RequestError("Content-Length must be a non-negative integer")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise RequestError(
                f"request body exceeds {MAX_BODY_BYTES} bytes", status=413
            )
        return self.rfile.read(length) if length > 0 else b""

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        if self.path == "/healthz":
            self._send(200, dumps(self.service.health_payload(), indent=2))
        elif self.path == "/stats":
            self._send(200, dumps(self.service.stats_payload(), indent=2))
        else:
            self._send_error(404, f"unknown path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        kind = _PLAN_PATHS.get(self.path)
        if kind is None:
            self._send_error(404, f"unknown path {self.path!r}")
            return
        try:
            raw = self._read_body()
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except RequestError as exc:
            # The body stays unread on the socket, so the connection
            # cannot carry another request.
            self._send_error(exc.status, str(exc), close=True)
            return
        except (ValueError, UnicodeDecodeError):
            self._send_error(400, "request body is not valid JSON")
            return
        if not isinstance(body, dict):
            self._send_error(400, "request body must be a JSON object")
            return
        try:
            response = self.service.plan(kind, body)
        except RequestError as exc:
            self._send_error(exc.status, str(exc))
        except Exception as exc:  # a planning bug: report it, keep serving
            self._send_error(500, f"{type(exc).__name__}: {exc}")
        else:
            self._send(200, response)


def make_server(
    service: PlanningService,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` threaded server bound to ``service``.
    ``port=0`` picks an ephemeral port (tests/examples); read it back
    from ``server.server_address``."""
    handler = type(
        "BoundPlanningRequestHandler",
        (PlanningRequestHandler,),
        {"service": service},
    )
    return ThreadingHTTPServer((host, port), handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.serve",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--host", default=DEFAULT_HOST,
                        help=f"bind address (default: {DEFAULT_HOST})")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"bind port, 0 for ephemeral (default: {DEFAULT_PORT})")
    parser.add_argument("--capacity", type=int, default=None, metavar="N",
                        help="LRU bound on resident traces and derived results "
                             "(evictions fall back to --cache-dir when set; "
                             "default: unbounded)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="disk-backed trace store shared with the plan CLIs "
                             "(default: $REPRO_CACHE_DIR if set, else none)")
    parser.add_argument("--pricing-feed", default=None, metavar="PATH_OR_URL",
                        help="live pricing feed: a JSON file path or http(s) URL "
                             "speaking PriceCatalog.to_payload()'s layout "
                             "(default: the built-in static catalog)")
    parser.add_argument("--pricing-ttl", type=float, default=DEFAULT_TTL_SECONDS,
                        metavar="SECONDS",
                        help="how long a fetched catalog serves before "
                             "stale-while-revalidate kicks in "
                             f"(default: {DEFAULT_TTL_SECONDS:g})")
    parser.add_argument("--telemetry", action="store_true",
                        help="trace every request (responses gain a 'telemetry' "
                             "block)")
    parser.add_argument("--telemetry-out", default=None, metavar="FILE",
                        help="rewrite FILE with the latest request's JSONL "
                             "events after each request (implies tracing)")
    parser.add_argument("--run-store", default=None, metavar="DIR",
                        help="ingest each request into the run store at DIR for "
                             "repro.telemetry.analyze/compare (implies tracing; "
                             "default: $REPRO_RUN_STORE if set, else off)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        service = PlanningService(
            capacity=args.capacity,
            store=resolve_store(args.cache_dir),
            pricing=PricingCatalog(
                feed=args.pricing_feed, ttl_seconds=args.pricing_ttl
            ),
            telemetry=args.telemetry,
            telemetry_out=args.telemetry_out,
            run_store=resolve_run_store(args.run_store),
        )
    except ValueError as exc:
        parser.error(str(exc))
    server = make_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    print(
        f"serving plans on http://{host}:{port} "
        "(POST /plan/cluster /plan/spot; GET /healthz /stats)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
