"""The scrape endpoint: a stdlib HTTP server over a monitor.

Four routes, all read-only:

* ``/metrics``       — Prometheus text exposition (the scrape target);
* ``/snapshot.json`` — the full JSON snapshot (metrics, windowed
  aggregates, alert states);
* ``/alerts``        — just the alert states, JSON;
* ``/healthz``       — liveness probe.

The server binds ``127.0.0.1`` by default and requesting port 0 lets
the OS pick a free one — :meth:`MonitorServer.start` returns the
bound port so tests and the CLI can advertise it.

Service-duty hardening (the fleet daemon fronts its query surface
with this server, so it has to behave like one):

* unknown paths get a *JSON* error body naming the routes, not the
  stdlib's HTML error page, and a route that raises before it has
  replied answers a JSON 500 naming the exception type (the traceback
  goes to the ``repro.monitor`` logger) instead of a dropped
  connection;
* request threads are bounded (``max_threads``) and reused — a
  scrape storm queues in the listen backlog instead of spawning
  unbounded threads, and a connection is served by an idle thread
  rather than a new one (threads start on demand, none with the
  server);
* :meth:`MonitorServer.stop` is safe while requests are in flight:
  in-flight handlers finish (bounded by the thread cap), the accept
  loop stops, and the socket closes exactly once.

:class:`repro.fleet.http.FleetServer` extends the routing by
subclassing :class:`_Handler` and overriding :meth:`_Handler.route`.
"""

import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qsl

EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Concurrent request threads a server runs at most, by default.
DEFAULT_MAX_THREADS = 8

_LOG = logging.getLogger("repro.monitor")


class _Handler(BaseHTTPRequestHandler):
    """Routes requests against ``server.monitor``."""

    server_version = "tee-perf-monitor/1.0"

    #: Shown in the JSON 404 body; subclasses extend.
    known_routes = ("/metrics", "/snapshot.json", "/alerts", "/healthz")

    def do_GET(self):  # noqa: N802 — BaseHTTPRequestHandler's casing
        path, _, rawquery = self.path.partition("?")
        query = dict(parse_qsl(rawquery))
        self._replied = False
        try:
            handled = self.route(path, query)
        except BrokenPipeError:  # client went away mid-reply
            return
        except Exception as exc:
            _LOG.exception("GET %s failed", path)
            if not self._replied:
                self.send_json_error(
                    500,
                    f"{type(exc).__name__} while serving {path!r}",
                    exception=type(exc).__name__,
                )
            return
        if not handled:
            self.send_json_error(
                404,
                f"unknown path {path!r}",
                routes=list(self.known_routes),
            )

    def route(self, path, query):
        """Serve `path` if this handler knows it; returns whether it
        did.  Subclasses override, falling back to ``super().route``.
        """
        monitor = self.server.monitor
        if path in ("/metrics", "/"):
            monitor.registry.counter(
                "monitor_scrapes_total",
                "Scrape requests served by the endpoint.",
            ).inc()
            self._reply(
                monitor.exposition().encode(), EXPOSITION_CONTENT_TYPE
            )
        elif path == "/snapshot.json":
            self.send_json(monitor.snapshot())
        elif path == "/alerts":
            self.send_json(monitor.engine.as_dict())
        elif path == "/healthz":
            self._reply(b"ok\n", "text/plain")
        else:
            return False
        return True

    def _reply(self, body, content_type, status=200):
        self._replied = True
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def send_json(self, payload, status=200):
        body = json.dumps(payload, indent=2).encode()
        self._reply(body, "application/json", status=status)

    def send_json_error(self, status, message, **extra):
        """A machine-readable error body — this is a service endpoint,
        so even the failures are JSON."""
        payload = {"error": message, "status": status}
        payload.update(extra)
        self.send_json(payload, status=status)

    def log_message(self, *args):
        """Silence per-request stderr chatter; scrapes are counted in
        the registry instead."""


class _BoundedThreadingHTTPServer(HTTPServer):
    """An HTTPServer that serves requests on at most ``max_threads``
    reused threads.

    The accept loop blocks on a semaphore before handing each
    connection to a thread pool; the request releases it when the
    handler finishes.  Excess clients wait in the TCP backlog —
    bounded memory under a scrape storm, and ``shutdown()`` has at
    most ``max_threads`` handlers to wait out.  The pool starts a
    thread only when no started one is idle, so none starts before the
    first request and a connection rarely pays for a new thread.
    """

    def __init__(self, address, handler, max_threads=DEFAULT_MAX_THREADS):
        if max_threads < 1:
            raise ValueError(
                f"max_threads must be >= 1: {max_threads}"
            )
        self.max_threads = max_threads
        self._slots = threading.BoundedSemaphore(max_threads)
        super().__init__(address, handler)
        self._pool = ThreadPoolExecutor(
            max_workers=max_threads,
            thread_name_prefix="tee-perf-http-request",
        )

    def process_request(self, request, client_address):
        self._slots.acquire()
        try:
            self._pool.submit(self._serve, request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def _serve(self, request, client_address):
        """One request on a pool thread (what ThreadingMixIn's
        per-request thread runs)."""
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)
            self._slots.release()

    def server_close(self):
        """Close the socket, then let in-flight handlers finish and
        join the request threads: this is what makes
        stop-while-scraping clean rather than racy."""
        super().server_close()
        self._pool.shutdown(wait=True)


class MonitorServer:
    """Serve one monitor's surface on a background thread."""

    #: Request handler; subclasses swap in extended routing.
    handler_class = _Handler

    def __init__(self, monitor, port=0, host="127.0.0.1",
                 max_threads=DEFAULT_MAX_THREADS):
        self.monitor = monitor
        self.host = host
        self.port = port
        self.max_threads = max_threads
        self._httpd = None
        self._thread = None
        self._stop_lock = threading.Lock()

    def start(self):
        """Bind and start serving; returns the actual bound port."""
        if self._httpd is not None:
            return self.port
        self._httpd = _BoundedThreadingHTTPServer(
            (self.host, self.port),
            self.handler_class,
            max_threads=self.max_threads,
        )
        self._httpd.monitor = self.monitor
        self._bind_context(self._httpd)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="tee-perf-monitor-http",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def _bind_context(self, httpd):
        """Attach whatever the handler reads off ``self.server``;
        subclasses add their own objects."""

    @property
    def url(self):
        return f"http://{self.host}:{self.port}"

    @property
    def running(self):
        return self._httpd is not None

    def stop(self):
        """Stop accepting, wait out in-flight handlers, close the
        socket.  Idempotent and safe to call concurrently."""
        with self._stop_lock:
            httpd, thread = self._httpd, self._thread
            self._httpd = None
            self._thread = None
        if httpd is None:
            return
        httpd.shutdown()  # returns once the accept loop exits
        httpd.server_close()  # joins the request threads
        thread.join()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False
