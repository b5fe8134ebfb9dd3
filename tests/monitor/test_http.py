"""The scrape endpoint: routes, content types, well-formedness."""

import json
import urllib.error
import urllib.request

import pytest

from repro.monitor import (
    AlertRule,
    CallbackSampler,
    Monitor,
    MonitorServer,
)


@pytest.fixture
def served():
    monitor = Monitor()
    monitor.add_rule(AlertRule("high", "src_v", ">", 100))
    monitor.attach(CallbackSampler("src", lambda: {"v": 3}))
    monitor.poll_once()
    server = MonitorServer(monitor, port=0)
    port = server.start()
    assert port != 0  # the OS picked a real port
    yield monitor, server
    server.stop()


def fetch(server, path):
    with urllib.request.urlopen(f"{server.url}{path}", timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


def test_metrics_route_serves_exposition(served):
    monitor, server = served
    status, ctype, body = fetch(server, "/metrics")
    assert status == 200
    assert ctype.startswith("text/plain")
    text = body.decode()
    assert "# HELP teeperf_src_v" in text
    assert "# TYPE teeperf_src_v gauge" in text
    assert "teeperf_src_v 3" in text
    # Scrapes count themselves.
    assert monitor.registry.value("monitor_scrapes_total") == 1


def test_snapshot_route_is_json(served):
    _, server = served
    status, ctype, body = fetch(server, "/snapshot.json")
    assert status == 200
    assert ctype == "application/json"
    snap = json.loads(body)
    assert snap["metrics"]["src_v"]["value"] == 3
    assert "windows" in snap


def test_alerts_route(served):
    _, server = served
    status, _, body = fetch(server, "/alerts")
    assert status == 200
    alerts = json.loads(body)
    assert alerts[0]["name"] == "high"
    assert alerts[0]["state"] == "ok"


def test_healthz_and_404(served):
    _, server = served
    status, _, body = fetch(server, "/healthz")
    assert (status, body) == (200, b"ok\n")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        fetch(server, "/nope")
    with excinfo.value as err:  # an HTTPError holds the response open
        assert err.code == 404


def test_404_body_is_json_naming_the_routes(served):
    """Service duty: even errors are machine-readable."""
    _, server = served
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        fetch(server, "/definitely/not/here")
    with excinfo.value as err:
        assert err.headers.get("Content-Type") == "application/json"
        payload = json.loads(err.read())
    assert payload["status"] == 404
    assert "/definitely/not/here" in payload["error"]
    assert "/metrics" in payload["routes"]


def test_exposition_is_well_formed(served):
    """Every sample line belongs to a family that declared HELP+TYPE."""
    monitor, server = served
    _, _, body = fetch(server, "/metrics")
    declared = set()
    for line in body.decode().splitlines():
        if line.startswith("# TYPE "):
            name, kind = line.split()[2], line.split()[3]
            assert kind in ("counter", "gauge", "histogram")
            declared.add(name)
        elif line.startswith("# HELP ") or not line:
            continue
        else:
            family = line.split("{", 1)[0].split()[0]
            for suffix in ("_bucket", "_sum", "_count"):
                if family.endswith(suffix) and family[: -len(suffix)] in declared:
                    family = family[: -len(suffix)]
                    break
            assert family in declared, line


def test_request_threads_are_bounded():
    """Concurrent requests never exceed max_threads handler threads;
    the excess queue in the backlog and still get served."""
    import threading
    import time

    monitor = Monitor()
    peak = {"now": 0, "max": 0}
    gate = threading.Lock()

    def slow_snapshot(window_seconds=None):
        with gate:
            peak["now"] += 1
            peak["max"] = max(peak["max"], peak["now"])
        time.sleep(0.15)
        with gate:
            peak["now"] -= 1
        return {"metrics": {}, "windows": {}, "alerts": []}

    monitor.snapshot = slow_snapshot
    server = MonitorServer(monitor, port=0, max_threads=2)
    server.start()
    try:
        statuses = []

        def hit():
            status, _, _ = fetch(server, "/snapshot.json")
            statuses.append(status)

        workers = [threading.Thread(target=hit) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert statuses == [200] * 6  # everyone got served...
        assert peak["max"] <= 2  # ...but never more than 2 at once
    finally:
        server.stop()


def test_stop_while_scraping_is_clean():
    """The shutdown regression: stop() while a slow request is in
    flight must let the handler finish and release the port."""
    import threading
    import time

    monitor = Monitor()
    entered = threading.Event()

    def slow_snapshot(window_seconds=None):
        entered.set()
        time.sleep(0.3)
        return {"metrics": {}, "windows": {}, "alerts": []}

    monitor.snapshot = slow_snapshot
    server = MonitorServer(monitor, port=0)
    server.start()
    outcome = {}

    def scrape():
        try:
            outcome["status"] = fetch(server, "/snapshot.json")[0]
        except Exception as exc:  # noqa: BLE001 — asserted below
            outcome["error"] = exc

    scraper = threading.Thread(target=scrape)
    scraper.start()
    assert entered.wait(timeout=5)  # the handler is mid-request
    server.stop()  # must wait it out, not strand or crash it
    scraper.join(timeout=10)
    assert not scraper.is_alive()
    assert outcome.get("status") == 200, outcome
    assert not server.running
    # Stopping again is a no-op, and the port is actually free.
    server.stop()
    assert server.start() != 0
    server.stop()


def test_server_context_manager_and_restart():
    monitor = Monitor()
    with MonitorServer(monitor, port=0) as server:
        port = server.port
        status, _, _ = fetch(server, "/healthz")
        assert status == 200
    assert not server.running
    # A stopped server can be started again (a fresh port is fine).
    second = server.start()
    assert second != 0
    server.stop()


def _recording_server(max_threads, fail=lambda: False):
    """A server whose ``/snapshot.json`` records the thread serving it
    (and raises while `fail()` says so)."""
    import threading

    monitor = Monitor()
    served_by = []

    def snapshot(window_seconds=None):
        served_by.append(threading.current_thread())
        if fail():
            raise RuntimeError("route blew up")
        return {"metrics": {}, "windows": {}, "alerts": []}

    monitor.snapshot = snapshot
    return MonitorServer(monitor, port=0, max_threads=max_threads), served_by


def test_request_threads_are_reused():
    """Sequential requests are served by at most ``max_threads``
    threads, started on demand (none with the server) and still alive
    to serve the next request; stop() joins them."""
    import threading

    before = set(threading.enumerate())
    server, served_by = _recording_server(max_threads=3)
    server.start()
    try:
        started = set(threading.enumerate()) - before
        assert len(started) == 1  # the accept loop, no request thread
        for _ in range(50):
            assert fetch(server, "/snapshot.json")[0] == 200
        threads = set(served_by)
        assert len(served_by) == 50
        assert 1 <= len(threads) <= 3
        assert all(t.is_alive() for t in threads)
        assert not threads & before
    finally:
        server.stop()
    assert not any(t.is_alive() for t in threads)


def test_a_raising_route_keeps_its_thread():
    """A route that raises answers its JSON 500, and the one request
    thread goes on to serve the requests after it."""
    failing = {"now": False}
    server, served_by = _recording_server(
        max_threads=1, fail=lambda: failing["now"]
    )
    with server:
        assert fetch(server, "/snapshot.json")[0] == 200
        failing["now"] = True
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server, "/snapshot.json")
        with excinfo.value as err:
            assert err.code == 500
            payload = json.loads(err.read())
        assert payload["exception"] == "RuntimeError"
        failing["now"] = False
        for _ in range(3):
            assert fetch(server, "/snapshot.json")[0] == 200
        assert len(served_by) == 5
        assert len(set(served_by)) == 1
        assert served_by[0].is_alive()
