"""``tee-perf fleet serve`` stops on SIGINT and on SIGTERM: it drains,
exits 0 and leaves no pool worker behind — also when it starts with
SIGINT ignored, as a background job of a non-interactive shell does,
where Python installs no ``KeyboardInterrupt`` handler of its own."""

import os
import queue
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.fleet import FleetClient

pytestmark = pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task"),
    reason="finds the daemon's pool workers under /proc",
)

#: Runs the rest of its argv with SIGINT ignored: an ignored
#: disposition survives exec.
IGNORING_SIGINT = (
    "import os, signal, sys\n"
    "signal.signal(signal.SIGINT, signal.SIG_IGN)\n"
    "os.execv(sys.executable, [sys.executable] + sys.argv[1:])\n"
)


def descendants(pid):
    """Every process below `pid`, read from each of its threads'
    ``children`` lists (a pool's workers may hang off any thread)."""
    found, todo = [], [pid]
    while todo:
        parent = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except OSError:
                continue
            found += kids
            todo += kids
    return found


def alive(pid):
    """Whether `pid` is a process that has not exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


@pytest.mark.parametrize(
    "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
)
def test_serve_stops_on_signal_with_sigint_ignored(
    signum, baseline_session, tmp_path
):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, "-c", IGNORING_SIGINT, "-m", "repro.cli",
            "fleet", "serve", "--jobs", "2"]
    with open(tmp_path / "stderr", "w") as stderr:
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=stderr, env=env,
            text=True,
        )
    lines = queue.Queue()

    def read():
        with proc.stdout:
            for line in proc.stdout:
                lines.put(line)
        lines.put(None)  # EOF: nothing holds the pipe open any more

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    workers = []
    try:
        ingest = None
        while ingest is None:
            line = lines.get(timeout=30)
            assert line is not None, "serve exited before its banner"
            if line.startswith("fleet: ingest on "):
                host, port = line.split()[-1].rsplit(":", 1)
                ingest = (host, int(port))
        # One analysed segment: the pool's workers now exist.
        with FleetClient(ingest).open(
            "web", baseline_session["symtab"], session="s1"
        ) as client:
            client.publish(baseline_session["log_bytes"])
            assert client.bye()["accounting"]["ticks"] == (
                baseline_session["ticks"]
            )
        workers = descendants(proc.pid)
        proc.send_signal(signum)
        assert proc.wait(timeout=30) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()  # stdout reached EOF
        deadline = time.monotonic() + 10
        while any(map(alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if alive(pid)]
    finally:
        for pid in [proc.pid] + workers:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
        proc.wait(timeout=30)
        reader.join(timeout=30)
    assert "fleet: served 1 segment(s)" in (tmp_path / "stderr").read_text()
