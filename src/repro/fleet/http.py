"""The fleet query surface: profiles and diffs over HTTP.

:class:`FleetServer` extends the hardened
:class:`~repro.monitor.http.MonitorServer` — every monitor route
(``/metrics``, ``/snapshot.json``, ``/alerts``, ``/healthz``) keeps
working, and the daemon's windows become addressable:

* ``/fleet``                            — daemon status JSON
  (counters, in-flight, pool kind, store totals, the fleet-wide
  no-silent-drop check);
* ``/profiles``                         — tenant index;
* ``/profiles/<tenant>``                — window summaries + merged
  totals for one tenant (JSON);
* ``/profiles/<tenant>/folded``         — the merged profile in
  collapsed-stack text (pipe into any flame-graph tool); add
  ``?window=<wid>`` (or ``archive``) for a single window;
* ``/profiles/<tenant>/flamegraph.svg`` — the merged flame graph,
  same ``window`` parameter;
* ``/profiles/<tenant>/diff?a=<wid>&b=<wid>`` — window-vs-window
  regression diff built on :class:`repro.core.diff.AnalysisDiff`;
  ``format=json`` (default), ``report`` (the text table), or ``svg``
  (the red/blue differential flame graph).

Errors are JSON all the way down: an unknown tenant or window is a
404 body naming what *does* exist, a diff without ``a``/``b`` is a
400 — never a stdlib HTML error page.  A profile with no positive tick
(say, a tenant whose every segment was quarantined) has empty folded
text and nothing to draw: ``/folded`` answers 200 with an empty body,
and the SVG routes a 404 naming the tenant.

The query path never blocks ingest of other tenants: every profile
route takes an immutable :class:`~repro.fleet.windows.ArrayProfile`
snapshot under the *tenant's own* lock (the store's locking is per
tenant) and renders outside it, and the merged profile is served from
the tenant's incremental cache, so a repeat query between ingests is
a cache hit rather than a re-merge of all retained windows.
``/folded`` serves the snapshot's memoised text, so on that hit it
renders nothing either.
"""

from repro.monitor.http import MonitorServer, _Handler

__all__ = ["FleetServer"]


class _FleetHandler(_Handler):
    """Monitor routes plus the ``/fleet`` and ``/profiles`` tree."""

    server_version = "tee-perf-fleet/1.0"

    known_routes = _Handler.known_routes + (
        "/fleet",
        "/profiles",
        "/profiles/<tenant>",
        "/profiles/<tenant>/folded",
        "/profiles/<tenant>/flamegraph.svg",
        "/profiles/<tenant>/diff?a=<window>&b=<window>",
    )

    def route(self, path, query):
        daemon = self.server.daemon
        if path == "/fleet":
            self.send_json(daemon.status())
        elif path == "/profiles":
            self.send_json({
                "tenants": daemon.tenants(),
                "window_seconds": daemon.store.window_seconds,
                "retention": daemon.store.retention,
            })
        elif path.startswith("/profiles/"):
            parts = path[len("/profiles/"):].strip("/").split("/")
            if len(parts) == 1:
                self._tenant_summary(daemon, parts[0])
            elif len(parts) == 2 and parts[1] == "folded":
                self._folded(daemon, parts[0], query)
            elif len(parts) == 2 and parts[1] == "flamegraph.svg":
                self._flamegraph(daemon, parts[0], query)
            elif len(parts) == 2 and parts[1] == "diff":
                self._diff(daemon, parts[0], query)
            else:
                return False
        else:
            return super().route(path, query)
        return True

    # ------------------------------------------------------------------

    def _not_found(self, daemon, tenant, exc):
        # KeyError reprs its message; unwrap to the plain string.
        message = exc.args[0] if exc.args else str(exc)
        self.send_json_error(404, message, tenants=daemon.tenants())

    def _profile(self, daemon, tenant, query):
        """The merged profile, or one window's when ``?window=`` is
        given; ``None`` after replying with a 404."""
        try:
            return daemon.profile(tenant, query.get("window"))
        except KeyError as exc:
            self._not_found(daemon, tenant, exc)
            return None

    def _tenant_summary(self, daemon, tenant):
        try:
            summary = daemon.summary(tenant)
        except KeyError as exc:
            self._not_found(daemon, tenant, exc)
            return
        merged = daemon.profile(tenant)
        summary["merged"] = {
            "ticks": merged.total_exclusive(),
            "paths": len(merged),
            "methods": len(merged.methods()),
        }
        summary["sessions"] = daemon.accounting(tenant)
        self.send_json(summary)

    def _nothing_to_draw(self, tenant):
        self.send_json_error(
            404,
            f"tenant {tenant!r} has nothing to draw: "
            "no call path has a positive tick",
        )

    def _folded(self, daemon, tenant, query):
        profile = self._profile(daemon, tenant, query)
        if profile is None:
            return
        body = profile.to_folded().encode()
        self._reply(body, "text/plain; charset=utf-8")

    def _flamegraph(self, daemon, tenant, query):
        profile = self._profile(daemon, tenant, query)
        if profile is None:
            return
        if profile.total_exclusive() <= 0:
            self._nothing_to_draw(tenant)
            return
        title = f"{tenant} — fleet merged profile"
        window = query.get("window")
        if window is not None:
            title = f"{tenant} — window {window}"
        svg = profile.flamegraph(title=title).to_svg()
        self._reply(svg.encode(), "image/svg+xml")

    def _diff(self, daemon, tenant, query):
        a, b = query.get("a"), query.get("b")
        if a is None or b is None:
            self.send_json_error(
                400,
                "diff needs both windows: "
                "?a=<before wid>&b=<after wid>",
                windows=daemon.store.window_ids(tenant),
            )
            return
        try:
            diff = daemon.diff(tenant, a, b)
        except KeyError as exc:
            self._not_found(daemon, tenant, exc)
            return
        fmt = query.get("format", "json")
        if fmt == "report":
            self._reply(
                (diff.report() + "\n").encode(),
                "text/plain; charset=utf-8",
            )
        elif fmt == "svg":
            if diff.after.total_exclusive() <= 0:
                self._nothing_to_draw(tenant)
                return
            svg = diff.flamegraph(
                title=f"{tenant}: window {a} vs {b}"
            ).to_svg()
            self._reply(svg.encode(), "image/svg+xml")
        elif fmt == "json":
            self.send_json({
                "tenant": tenant,
                "a": a,
                "b": b,
                "before_ticks": diff.before.total_exclusive(),
                "after_ticks": diff.after.total_exclusive(),
                "regressions": [
                    _delta_dict(d) for d in diff.regressions()
                ],
                "improvements": [
                    _delta_dict(d) for d in diff.improvements()
                ],
            })
        else:
            self.send_json_error(
                400,
                f"unknown format {fmt!r}",
                formats=["json", "report", "svg"],
            )


def _delta_dict(delta):
    return {
        "method": delta.method,
        "before_share": delta.before_share,
        "after_share": delta.after_share,
        "delta": delta.delta,
        "appeared": delta.appeared,
        "vanished": delta.vanished,
    }


class FleetServer(MonitorServer):
    """The daemon's HTTP front: monitor surface + profile queries.

    Serves ``daemon.monitor`` for the scrape routes and the daemon
    itself for everything under ``/fleet`` and ``/profiles``.
    """

    handler_class = _FleetHandler

    def __init__(self, daemon, port=0, host="127.0.0.1",
                 max_threads=None):
        kwargs = {} if max_threads is None else {
            "max_threads": max_threads
        }
        super().__init__(daemon.monitor, port=port, host=host, **kwargs)
        self.daemon = daemon

    def _bind_context(self, httpd):
        httpd.daemon = self.daemon
