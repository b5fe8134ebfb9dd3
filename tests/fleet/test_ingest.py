"""The socket ingest path: sessions, violations, dirty hangups."""

import socket
import time

import pytest

from repro.fleet import (
    FleetClient,
    FleetDaemon,
    IngestListener,
    ProtocolError,
)
from repro.fleet import protocol


@pytest.fixture
def served():
    daemon = FleetDaemon(jobs=2, prefer_processes=False).start()
    listener = IngestListener(daemon, port=0)
    listener.start()
    yield daemon, listener
    listener.stop()
    daemon.stop()


def test_session_round_trip_with_accounting(served, baseline_session):
    daemon, listener = served
    client = FleetClient(listener.address).open(
        "web", baseline_session["symtab"], session="sock-1"
    )
    ack = client.publish(baseline_session["log_bytes"])
    assert ack["accepted"] == len(baseline_session["log_bytes"])
    assert ack["seq"] == 1
    assert client.ping()["ok"]
    accounting = client.bye()["accounting"]
    assert accounting["session"] == "sock-1"
    assert accounting["entries"] == baseline_session["entries"]
    assert accounting["salvaged"] == baseline_session["entries"]
    assert accounting["ticks"] == baseline_session["ticks"]
    assert not accounting["open"]
    assert daemon.profile("web").total_exclusive() == (
        baseline_session["ticks"]
    )


def test_shm_fast_path_lands_identically(served, baseline_session):
    daemon, listener = served
    with FleetClient(listener.address).open(
        "web", baseline_session["symtab"], session="shm-1"
    ) as client:
        ack = client.publish(baseline_session["log_bytes"], via_shm=True)
        assert ack["ok"]
    daemon.drain()
    assert daemon.profile("web").total_exclusive() == (
        baseline_session["ticks"]
    )


def test_shm_unavailable_falls_back_inline_and_is_counted(
    served, baseline_session, monkeypatch, caplog
):
    """An OSError staging the block (no usable /dev/shm) sends the
    segment inline; the client counts the fallback by exception type
    and logs it."""
    daemon, listener = served

    def no_shm(data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(protocol, "_shm_create", no_shm)
    with FleetClient(listener.address).open(
        "web", baseline_session["symtab"], session="shm-2"
    ) as client:
        with caplog.at_level("WARNING", logger="repro.fleet"):
            ack = client.publish(
                baseline_session["log_bytes"], via_shm=True
            )
        assert ack["accepted"] == len(baseline_session["log_bytes"])
        assert client.shm_fallbacks == {"OSError": 1}
        assert client.segments_sent == 1
    assert "publishing inline: OSError" in caplog.text
    daemon.drain()
    assert daemon.profile("web").total_exclusive() == (
        baseline_session["ticks"]
    )


def test_shm_programming_error_propagates(served, baseline_session,
                                          monkeypatch):
    """Only "no shared memory here" falls back: any other error while
    staging the block is a fault and propagates, with nothing sent."""
    _, listener = served

    def broken(data):
        raise TypeError("a bug, not a missing /dev/shm")

    monkeypatch.setattr(protocol, "_shm_create", broken)
    with FleetClient(listener.address).open(
        "web", baseline_session["symtab"], session="shm-3"
    ) as client:
        with pytest.raises(TypeError, match="a bug"):
            client.publish(baseline_session["log_bytes"], via_shm=True)
        assert not client.shm_fallbacks
        assert client.segments_sent == 0


def test_segment_before_hello_is_refused(served, baseline_session):
    _, listener = served
    client = FleetClient(listener.address)
    client._sock = socket.create_connection(listener.address, timeout=5)
    with pytest.raises(ProtocolError, match="segment before hello"):
        client._request(
            {"type": "segment"}, baseline_session["log_bytes"]
        )
    client._sock.close()


def test_unknown_frame_type_is_refused(served):
    _, listener = served
    sock = socket.create_connection(listener.address, timeout=5)
    try:
        protocol.write_frame(sock, {"type": "dance"})
        ack, _ = protocol.read_frame(sock)
        assert not ack["ok"]
        assert "unknown frame type" in ack["error"]
    finally:
        sock.close()


def test_empty_segment_is_refused(served, baseline_session):
    _, listener = served
    with FleetClient(listener.address).open(
        "web", baseline_session["symtab"]
    ) as client:
        with pytest.raises(ProtocolError, match="empty segment"):
            client._request({"type": "segment"}, b"")


def test_hello_missing_fields_is_refused(served):
    _, listener = served
    sock = socket.create_connection(listener.address, timeout=5)
    try:
        protocol.write_frame(sock, {"type": "hello", "tenant": "web"})
        ack, _ = protocol.read_frame(sock)
        assert not ack["ok"]
        assert "hello missing" in ack["error"]
    finally:
        sock.close()


def test_dirty_hangup_still_closes_the_session(
    served, baseline_session
):
    daemon, listener = served
    client = FleetClient(listener.address).open(
        "web", baseline_session["symtab"], session="vanisher"
    )
    client.publish(baseline_session["log_bytes"])
    client._sock.close()  # the producer dies without bye
    client._sock = None
    deadline = time.monotonic() + 10
    while True:
        accounting = daemon.accounting("web")
        if accounting and not accounting[0]["open"]:
            break
        if time.monotonic() > deadline:
            pytest.fail(f"session never closed: {accounting}")
        time.sleep(0.02)
    daemon.drain()
    # The published segment still landed with full accounting.
    assert daemon.accounting("web")[0]["salvaged"] == (
        baseline_session["entries"]
    )
    assert daemon.status()["counters"]["sessions_closed"] == 1


def test_duplicate_hello_is_refused(served, baseline_session):
    _, listener = served
    with FleetClient(listener.address).open(
        "web", baseline_session["symtab"]
    ) as client:
        with pytest.raises(ProtocolError, match="duplicate hello"):
            client._request({
                "type": "hello", "tenant": "web", "session": "again",
                "symtab": baseline_session["symtab"],
            })


def test_listener_lifecycle_and_validation(served):
    daemon, listener = served
    assert listener.running
    assert listener.start() == listener.port  # idempotent
    with pytest.raises(ValueError, match="max_sessions"):
        IngestListener(daemon, max_sessions=0)


def test_listener_context_manager(baseline_session):
    with FleetDaemon(jobs=1, prefer_processes=False) as daemon:
        with IngestListener(daemon, port=0) as listener:
            with FleetClient(listener.address).open(
                "web", baseline_session["symtab"]
            ) as client:
                client.publish(baseline_session["log_bytes"])
        assert not listener.running
    assert daemon.status()["accounted"]
