"""The fleet query surface: profiles, diffs, JSON errors."""

import json
import logging
import sys
import urllib.error
import urllib.request

import pytest

from repro.fleet import FleetDaemon, FleetServer


@pytest.fixture
def served(baseline_session, hot_session):
    """A daemon with two windows of web data (clean then hot) and one
    window of db data, behind a FleetServer."""
    state = {"now": 30.0}
    daemon = FleetDaemon(
        window_seconds=60.0, jobs=2, prefer_processes=False,
        clock=lambda: state["now"],
    ).start()
    with daemon.session(
        "web", baseline_session["symtab"], session="w1"
    ) as session:
        session.publish(baseline_session["log_bytes"])
        daemon.drain()
        state["now"] = 90.0
        session.publish(hot_session["log_bytes"])
    with daemon.session(
        "db", baseline_session["symtab"], session="d1"
    ) as session:
        session.publish(baseline_session["log_bytes"])
    server = FleetServer(daemon, port=0)
    server.start()
    yield daemon, server
    server.stop()
    daemon.stop()


def fetch(server, path):
    with urllib.request.urlopen(f"{server.url}{path}", timeout=10) as r:
        return r.status, r.headers.get("Content-Type"), r.read()


def fetch_json(server, path):
    status, ctype, body = fetch(server, path)
    assert ctype == "application/json"
    return status, json.loads(body)


def test_fleet_status_route(served):
    _, server = served
    status, payload = fetch_json(server, "/fleet")
    assert status == 200
    assert payload["accounted"]
    assert payload["counters"]["segments_analyzed"] == 3
    assert payload["pool"] == "thread"
    assert payload["store"]["tenants"] == 2


def test_profiles_index(served):
    _, server = served
    _, payload = fetch_json(server, "/profiles")
    assert payload["tenants"] == ["db", "web"]
    assert payload["window_seconds"] == 60.0


def test_tenant_summary_merges_and_accounts(
    served, baseline_session, hot_session
):
    _, server = served
    _, payload = fetch_json(server, "/profiles/web")
    expected = baseline_session["ticks"] + hot_session["ticks"]
    assert payload["merged"]["ticks"] == expected
    assert payload["ticks"] == expected
    assert [w["wid"] for w in payload["windows"]] == [0, 1]
    sessions = {s["session"]: s for s in payload["sessions"]}
    assert sessions["w1"]["salvaged"] == (
        baseline_session["entries"] + hot_session["entries"]
    )


def test_folded_and_flamegraph_routes(served, baseline_session):
    _, server = served
    status, ctype, body = fetch(server, "/profiles/db/folded")
    assert status == 200
    assert ctype.startswith("text/plain")
    text = body.decode()
    assert "app::Run()" in text
    total = sum(int(line.rsplit(" ", 1)[1])
                for line in text.strip().splitlines())
    assert total == baseline_session["ticks"]

    status, ctype, body = fetch(server, "/profiles/web/flamegraph.svg")
    assert status == 200
    assert ctype == "image/svg+xml"
    assert b"<svg" in body
    # A single window is addressable too.
    status, _, single = fetch(
        server, "/profiles/web/flamegraph.svg?window=0"
    )
    assert status == 200
    assert b"window 0" in single


def test_diff_route_flags_the_regression(served):
    _, server = served
    _, payload = fetch_json(server, "/profiles/web/diff?a=0&b=1")
    assert (payload["a"], payload["b"]) == ("0", "1")
    top = payload["regressions"][0]
    assert top["method"] == "app::Regress()"
    assert top["appeared"]
    assert payload["after_ticks"] > payload["before_ticks"]

    status, ctype, body = fetch(
        server, "/profiles/web/diff?a=0&b=1&format=report"
    )
    assert ctype.startswith("text/plain")
    assert "app::Regress()" in body.decode()

    status, ctype, body = fetch(
        server, "/profiles/web/diff?a=0&b=1&format=svg"
    )
    assert ctype == "image/svg+xml"
    assert b"<svg" in body


def expect_error(server, path, code):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        fetch(server, path)
    err = excinfo.value
    assert err.code == code
    assert err.headers.get("Content-Type") == "application/json"
    return json.loads(err.read())


def test_errors_are_json_naming_what_exists(served):
    _, server = served
    payload = expect_error(server, "/profiles/nope", 404)
    assert "unknown tenant 'nope'" in payload["error"]
    assert payload["tenants"] == ["db", "web"]

    payload = expect_error(server, "/profiles/web/diff?a=0&b=99", 404)
    assert "has no window" in payload["error"]

    payload = expect_error(server, "/profiles/web/diff", 400)
    assert "needs both windows" in payload["error"]
    assert payload["windows"] == [0, 1]

    payload = expect_error(
        server, "/profiles/web/diff?a=0&b=1&format=gif", 400
    )
    assert payload["formats"] == ["json", "report", "svg"]

    payload = expect_error(server, "/profiles/web/nested/too/deep", 404)
    assert "/profiles/<tenant>" in payload["routes"]


def test_monitor_routes_still_served(served):
    daemon, server = served
    daemon.monitor.poll_once()
    status, ctype, body = fetch(server, "/metrics")
    assert status == 200
    assert ctype.startswith("text/plain")
    assert "teeperf_fleet_segments_analyzed_total 3" in body.decode()
    status, _, body = fetch(server, "/healthz")
    assert (status, body) == (200, b"ok\n")


# ----------------------------------------------------------------------
# Profiles with nothing to draw, and routes that raise


@pytest.mark.parametrize("folded, salvaged", [
    ({}, 0),  # every entry quarantined: no path at all
    ({("app::Idle()",): 0}, 2),  # one present path of 0 ticks
], ids=["no-path", "zero-tick-path"])
def test_profiles_with_no_positive_tick(served, folded, salvaged):
    daemon, server = served
    daemon.store.add(
        "t", folded, {}, entries=10, salvaged=salvaged,
        quarantined=10 - salvaged, ts=0.0,
    )
    for path in ("/profiles/t/folded", "/profiles/t/folded?window=0"):
        status, ctype, body = fetch(server, path)
        assert (status, body) == (200, b"")
        assert ctype.startswith("text/plain")
    for path in ("/profiles/t/flamegraph.svg",
                 "/profiles/t/flamegraph.svg?window=0",
                 "/profiles/t/diff?a=0&b=0&format=svg"):
        payload = expect_error(server, path, 404)
        assert "'t' has nothing to draw" in payload["error"]
    # The JSON routes still answer.
    _, summary = fetch_json(server, "/profiles/t")
    assert summary["merged"]["ticks"] == 0
    # Against an empty window, every frame of a later one is new.
    daemon.store.add(
        "t", {("app::Run()",): 7}, {"app::Run()": 1}, entries=2,
        salvaged=2, ts=90.0,
    )
    status, ctype, body = fetch(
        server, "/profiles/t/diff?a=0&b=1&format=svg"
    )
    assert (status, ctype) == (200, "image/svg+xml")
    assert body.startswith(b"<svg") and b"app::Run()" in body
    payload = expect_error(server, "/profiles/t/diff?a=1&b=0&format=svg",
                           404)
    assert "nothing to draw" in payload["error"]


def test_a_path_deeper_than_the_recursion_limit_is_served(served):
    """Every SVG reply draws a call path deeper than the interpreter's
    recursion limit: the layout walks the path table, not a tree."""
    daemon, server = served
    deep = ("app::Run()",) + ("app::Walk()",) * (
        sys.getrecursionlimit() + 500
    )
    calls = {"app::Run()": 1, "app::Walk()": len(deep) - 1}
    entries = 2 * len(deep)
    daemon.store.add("deep", {deep: 3}, calls, entries=entries,
                     salvaged=entries, ts=0.0)
    daemon.store.add("deep", {deep: 5, deep[:2]: 1}, calls,
                     entries=entries, salvaged=entries, ts=90.0)
    for path in ("/profiles/deep/flamegraph.svg",
                 "/profiles/deep/flamegraph.svg?window=0",
                 "/profiles/deep/diff?a=0&b=1&format=svg"):
        status, ctype, body = fetch(server, path)
        assert (status, ctype) == (200, "image/svg+xml")
        # The background, the root and one rectangle per frame.
        assert body.count(b"<rect ") == len(deep) + 2


def test_a_route_that_raises_answers_json_500(served, monkeypatch,
                                              caplog):
    daemon, server = served

    def broken():
        raise RuntimeError("status is broken")

    monkeypatch.setattr(daemon, "status", broken)
    with caplog.at_level(logging.ERROR, logger="repro.monitor"):
        payload = expect_error(server, "/fleet", 500)
    assert payload["exception"] == "RuntimeError"
    assert "RuntimeError" in payload["error"]
    assert "/fleet" in payload["error"]
    record, = [r for r in caplog.records if r.name == "repro.monitor"]
    assert record.exc_info[0] is RuntimeError
    status, _, body = fetch(server, "/healthz")  # still serving
    assert (status, body) == (200, b"ok\n")
