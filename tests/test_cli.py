"""Tests for the tee-perf command-line interface."""

import pytest

from repro.cli import main
from tests.oracles.per_event import append


def test_demo_then_inspect(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo", "--platform", "sgx-v1", "-o", str(out)]) == 0
    demo_out = capsys.readouterr().out
    assert "demo::Process()" in demo_out
    assert (out / "demo.teeperf").exists()
    assert (out / "demo_flamegraph.svg").exists()

    assert main(["inspect", str(out / "demo.teeperf")]) == 0
    inspect_out = capsys.readouterr().out
    assert "calls/returns:  101/101" in inspect_out  # main + 50 x 2 kernels
    assert "threads:        1" in inspect_out


def test_demo_unknown_platform_raises(tmp_path):
    with pytest.raises(KeyError):
        main(["demo", "--platform", "sgx-v9", "-o", str(tmp_path)])


def test_flamegraph_from_folded(tmp_path, capsys):
    folded = tmp_path / "stacks.folded"
    folded.write_text("main;io 30\nmain;compute 70\nmain 10\n")
    svg = tmp_path / "graph.svg"
    assert main(["flamegraph", str(folded), "-o", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")
    assert "110 total ticks" in capsys.readouterr().out


def test_flamegraph_rejects_garbage(tmp_path, capsys):
    folded = tmp_path / "bad.folded"
    folded.write_text("this is not folded format\n")
    assert main(["flamegraph", str(folded), "-o", str(tmp_path / "x.svg")]) == 1
    assert "not a folded-stacks line" in capsys.readouterr().err


def test_inspect_multithreaded_log(tmp_path, capsys):
    from repro.api import SharedLog
    from repro.core import KIND_CALL, KIND_RET

    log = SharedLog.create(16, pid=7)
    append(log, KIND_CALL, 10, 0x400000, 1)
    append(log, KIND_CALL, 12, 0x400040, 2)
    append(log, KIND_RET, 20, 0x400040, 2)
    append(log, KIND_RET, 30, 0x400000, 1)
    path = tmp_path / "run.teeperf"
    log.dump(str(path))
    assert main(["inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "pid:            7" in out
    assert "threads:        2" in out
    assert "counter span:   10 .. 30" in out


def test_analyze_offline_formats(tmp_path, capsys):
    out = tmp_path / "demo"
    main(["demo", "-o", str(out)])
    capsys.readouterr()
    log = str(out / "demo.teeperf")

    assert main(["analyze", log]) == 0
    assert "demo::Process()" in capsys.readouterr().out

    assert main(["analyze", log, "--format", "gprof"]) == 0
    assert "Flat profile:" in capsys.readouterr().out

    assert main(["analyze", log, "--format", "callgrind"]) == 0
    assert "events: Ticks" in capsys.readouterr().out

    assert main(["analyze", log, "--format", "folded"]) == 0
    assert "demo::Main();demo::Parse()" in capsys.readouterr().out

    assert main(["analyze", log, "--format", "speedscope"]) == 0
    assert "speedscope" in capsys.readouterr().out

    assert main(["analyze", log, "--format", "metrics"]) == 0
    metrics = capsys.readouterr().out
    assert "teeperf_entries_ingested_total 202" in metrics
    assert "teeperf_symbol_cache_hit_rate" in metrics


def test_convert_round_trip(tmp_path, capsys):
    out = tmp_path / "demo"
    main(["demo", "-o", str(out)])
    capsys.readouterr()
    log = str(out / "demo.teeperf")

    # Fixed-width -> rev 1.2, with accounting printed.
    assert main(["convert", log]) == 0
    converted = capsys.readouterr().out
    assert "round trip: 202/202 entries OK" in converted
    assert "smaller" in converted
    tpc = str(out / "demo.tpc")

    # The analyzer reads the compressed image transparently and
    # produces the identical profile.
    assert main(["analyze", log, "--format", "folded"]) == 0
    before = capsys.readouterr().out
    assert main(["analyze", tpc,
                 "--image", log + ".symtab.json",
                 "--format", "folded"]) == 0
    assert capsys.readouterr().out == before

    # Converting an already-columnar image is a no-op...
    assert main(["convert", tpc, "--to", "1.2"]) == 0
    assert "already rev 1.2" in capsys.readouterr().out
    # ...and converting back restores a fixed-width image.
    back = str(tmp_path / "back.teeperf")
    assert main(["convert", tpc, "-o", back]) == 0
    assert "round trip: 202/202 entries OK" in capsys.readouterr().out
    assert main(["inspect", back]) == 0
    assert "calls/returns:  101/101" in capsys.readouterr().out

    assert main(["convert", str(tmp_path / "missing.teeperf")]) == 1
    assert "cannot convert" in capsys.readouterr().err


def test_analyze_jobs_and_stats(tmp_path, capsys):
    out = tmp_path / "demo"
    main(["demo", "-o", str(out)])
    capsys.readouterr()
    log = str(out / "demo.teeperf")

    assert main(["analyze", log, "--jobs", "4", "--stats"]) == 0
    text = capsys.readouterr().out
    assert "pipeline stats:" in text
    assert "entries ingested:  202" in text
    assert "jobs=4" in text

    # The parallel path prints the identical report.
    assert main(["analyze", log]) == 0
    serial = capsys.readouterr().out
    assert main(["analyze", log, "--jobs", "4", "--chunk-size", "16"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_analyze_has_no_engine_flag(capsys):
    """One reconstruction path: ``--engine`` is an unknown flag."""
    with pytest.raises(SystemExit) as err:
        main(["analyze", "run.teeperf", "--engine", "vector"])
    assert err.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


def test_analyze_missing_symtab(tmp_path, capsys):
    from repro.api import SharedLog

    log = SharedLog.create(4)
    path = tmp_path / "orphan.teeperf"
    log.dump(str(path))
    assert main(["analyze", str(path)]) == 1
    assert "no symbol table" in capsys.readouterr().err


def test_diff_two_demo_runs(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["demo", "--platform", "sgx-v1", "-o", str(a)])
    main(["demo", "--platform", "native", "-o", str(b)])
    capsys.readouterr()
    svg = tmp_path / "diff.svg"
    assert main(
        [
            "diff",
            str(a / "demo.teeperf"),
            str(b / "demo.teeperf"),
            "--svg",
            str(svg),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "differential profile" in out
    # Process() does syscalls: hugely expensive in SGX, cheap natively,
    # so its share shrinks in the diff.
    assert "demo::Process()" in out
    assert svg.read_text().startswith("<svg")


def test_diff_missing_input(tmp_path, capsys):
    assert main(
        ["diff", str(tmp_path / "a.teeperf"), str(tmp_path / "b.teeperf")]
    ) == 1
    assert "missing input" in capsys.readouterr().err


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------------------
# The fleet subcommand


def fleet_service():
    """An in-process daemon + listener + HTTP server for CLI tests."""
    from repro.fleet import FleetDaemon, FleetServer, IngestListener

    daemon = FleetDaemon(jobs=2, prefer_processes=False).start()
    listener = IngestListener(daemon, port=0)
    listener.start()
    server = FleetServer(daemon, port=0)
    server.start()
    return daemon, listener, server


def test_fleet_ingest_and_query_round_trip(tmp_path, capsys):
    import json

    main(["demo", "--platform", "sgx-v1", "--sealed",
          "-o", str(tmp_path)])
    capsys.readouterr()
    log = tmp_path / "demo.teeperf"
    daemon, listener, server = fleet_service()
    try:
        assert main([
            "fleet", "ingest", str(log),
            "--connect", f"127.0.0.1:{listener.port}",
            "--tenant", "web", "--session", "cli-1",
        ]) == 0
        accounting = json.loads(capsys.readouterr().out)
        assert accounting["session"] == "cli-1"
        assert accounting["quarantined"] == 0
        assert accounting["salvaged"] == accounting["entries"] > 0

        assert main(["fleet", "query", "--url", server.url]) == 0
        index = json.loads(capsys.readouterr().out)
        assert index["tenants"] == ["web"]

        assert main([
            "fleet", "query", "--url", server.url, "--tenant", "web",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["merged"]["ticks"] == accounting["ticks"]

        assert main([
            "fleet", "query", "--url", server.url, "--status",
        ]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["accounted"]

        assert main([
            "fleet", "query", "--url", server.url, "--tenant", "web",
            "--format", "folded",
        ]) == 0
        assert "demo::Main()" in capsys.readouterr().out
    finally:
        server.stop()
        listener.stop()
        daemon.stop()


def test_fleet_ingest_bad_inputs(tmp_path, capsys):
    assert main([
        "fleet", "ingest", str(tmp_path / "nope.teeperf"),
        "--connect", "localhost",  # no port
        "--tenant", "web",
    ]) == 1
    assert "HOST:PORT" in capsys.readouterr().err
    assert main([
        "fleet", "ingest", str(tmp_path / "nope.teeperf"),
        "--connect", "127.0.0.1:9", "--tenant", "web",
    ]) == 1
    assert "missing input" in capsys.readouterr().err


def test_fleet_query_errors(capsys):
    # A diff without a tenant is a usage error...
    assert main([
        "fleet", "query", "--url", "http://127.0.0.1:9",
        "--diff", "0", "1",
    ]) == 1
    assert "--diff needs --tenant" in capsys.readouterr().err
    # ...and an unreachable daemon is a clean failure, not a traceback.
    assert main([
        "fleet", "query", "--url", "http://127.0.0.1:9",
    ]) == 1
    assert "cannot reach" in capsys.readouterr().err


def test_fleet_serve_round_trip(tmp_path, capsys):
    """The serve subcommand boots a real daemon; a client lands a
    session while it is up."""
    import json
    import re
    import threading
    import time
    import urllib.request

    from repro.api import FleetClient, TEEPerf
    from repro.core import symbol

    class App:
        @symbol("cli::Main()")
        def run(self, env):
            env.compute(20_000)

    perf = TEEPerf.simulated(name="cli-serve", capacity=512, sealed=True)
    app = App()
    perf.compile_instance(app)
    perf.record(app.run, perf.env)

    serve = threading.Thread(
        target=main,
        args=(["fleet", "serve", "--duration", "15", "--jobs", "1"],),
        daemon=True,
    )
    # Capture the announced ports via capsys from the main thread: poll
    # until the banner shows up.
    serve.start()
    deadline = time.monotonic() + 10
    banner = ""
    while "queries at" not in banner:
        banner += capsys.readouterr().out
        if time.monotonic() > deadline:
            raise AssertionError(f"serve never announced: {banner!r}")
        time.sleep(0.02)
    ingest_port = int(
        re.search(r"ingest on 127\.0\.0\.1:(\d+)", banner).group(1)
    )
    url = re.search(r"queries at (http://[^/]+)/profiles", banner).group(1)

    with FleetClient(("127.0.0.1", ingest_port)).open(
        "web", perf.program.image.to_json(), session="s1"
    ) as client:
        client.publish(perf.recorder.log.to_bytes())
        accounting = client.bye()["accounting"]
    assert accounting["salvaged"] == accounting["entries"] > 0
    with urllib.request.urlopen(f"{url}/profiles/web", timeout=10) as r:
        summary = json.loads(r.read())
    assert summary["merged"]["ticks"] == accounting["ticks"]
