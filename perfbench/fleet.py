"""The fleet phase: the always-on service under ingest and queries.

A ``FleetDaemon`` at library defaults (process pool preferred,
``recover="auto"``) runs in its own process through ``tee-perf fleet
serve``, so the load generator's interpreter lock is not the
program's.  Its window is short, so a run crosses several windows.
Two connections drive it from this process:

* one producer connection at a time (``FleetClient``): sessions of
  :data:`SEGMENTS_PER_SESSION` seeded segments published back to back,
  alternating between two tenants, each closed with ``bye`` — whose
  ack arrives once the session's segments are analysed;
* one HTTP client sending an open-loop, fixed-rate stream of
  ``/profiles/<tenant>/folded`` and ``/flamegraph.svg`` queries while
  a session runs, each timed from its scheduled send time, so a stall
  also delays the queries queued behind it.

Set-up is daemon spawn to the first ``hello`` ack, taken
:data:`SPAWNS` times per run.  Checks: every session's accounting holds
(``salvaged + quarantined == entries``), quarantine equals exactly the
entries the generator tore off, the session's ticks equal the
generator's, every query answers 200, and each tenant's merged ticks
equal the sum over every segment it was sent.
"""

import http.client
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time

from repro.fleet import FleetClient, ProtocolError

import gen
from common import PhaseResult, median, percentile
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
TENANTS = ("tenant-a", "tenant-b")
WINDOW_S = 2.0
SEGMENTS_PER_SESSION = 8
#: Distinct sessions' worth of segments per tenant, sent in turn.
GROUPS_PER_TENANT = 3
#: Queries per second the HTTP client is scheduled to send.
QUERY_RATE = 20.0
#: Daemon spawns per run; the last one serves the measurement.
SPAWNS = 5
#: Sessions (one per tenant) that warm the pool before ingest is timed.
WARMUP_SESSIONS = 2


class FleetInput:
    """Each tenant's program image and seeded segments."""

    def __init__(self, seed):
        self.symtab, self.segments = {}, {}
        for i, tenant in enumerate(TENANTS):
            self.symtab[tenant], self.segments[tenant] = gen.fleet_segments(
                seed * len(TENANTS) + i, GROUPS_PER_TENANT,
                SEGMENTS_PER_SESSION,
            )


class Daemon:
    """One ``fleet serve`` process and its two ports."""

    def __init__(self, src_dir, workdir, spans_path=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.cli", "fleet", "serve"]
        else:
            argv = [sys.executable, os.path.join(HERE, "fleet_daemon.py"),
                    spans_path]
        self._stderr = open(os.path.join(workdir, "daemon.stderr"), "a")
        self.proc = subprocess.Popen(
            argv + ["--window", str(WINDOW_S)], stdout=subprocess.PIPE,
            stderr=self._stderr, env=env, cwd=workdir, text=True,
        )
        lines = queue.Queue()
        self._reader = threading.Thread(
            target=self._read, args=(lines,), daemon=True
        )
        self._reader.start()
        self.ingest = self.http = None
        deadline = time.monotonic() + 60
        while self.ingest is None or self.http is None:
            try:
                line = lines.get(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("fleet daemon did not come up")
            if line.startswith("fleet: ingest on "):
                host, port = line.split()[-1].rsplit(":", 1)
                self.ingest = (host, int(port))
            elif line.startswith("fleet: queries at "):
                hostport = line.split()[3].split("//", 1)[1]
                host, port = hostport.split("/", 1)[0].rsplit(":", 1)
                self.http = (host, int(port))

    def _read(self, lines):
        for line in self.proc.stdout:
            lines.put(line.strip())
        lines.put(None)

    def get(self, path, timeout=30):
        """``(status, body)`` of one GET; status None on a socket
        error."""
        conn = http.client.HTTPConnection(*self.http, timeout=timeout)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        except OSError:
            return None, b""
        finally:
            conn.close()

    def stop(self):
        """Interrupt the daemon (it drains and exits) and wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        self._stderr.close()


def spawn(src_dir, workdir, symtab, tenant, spans_path=None):
    """Start a daemon and open a first session; returns ``(set-up
    seconds, daemon, open client)``."""
    start = time.perf_counter()
    daemon = Daemon(src_dir, workdir, spans_path)
    try:
        client = FleetClient(daemon.ingest).open(tenant, symtab, "s0")
    except BaseException:
        daemon.stop()
        raise
    return time.perf_counter() - start, daemon, client


class _Queries:
    """The open-loop HTTP client: one request at a time, sent on a
    fixed schedule; each latency counts from the request's due time."""

    def __init__(self, daemon, rate):
        self.daemon = daemon
        self.rate = rate
        self.samples = []  # (route, status, latency_s, lateness_s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        if self._thread.ident is not None:
            self._thread.join(timeout=60)

    def _loop(self):
        t0 = time.perf_counter()
        i = 0
        while True:
            due = t0 + i / self.rate
            delay = due - time.perf_counter()
            if delay > 0 and self._stop.wait(delay):
                return
            if self._stop.is_set():
                return
            # Three folded-text queries to one SVG render, so the
            # median and the 90th percentile each fall inside one
            # route's latencies rather than in the gap between them.
            tenant = TENANTS[i % 2]
            route = "flamegraph.svg" if (i // 2) % 4 == 3 else "folded"
            sent = time.perf_counter()
            status, _ = self.daemon.get(f"/profiles/{tenant}/{route}")
            done = time.perf_counter()
            self.samples.append((route, status, done - due, sent - due))
            i += 1


class _Session:
    """One producer session's timeline and the segments it sent."""

    def __init__(self, segments):
        self.segments = segments
        self.entries = sum(s.entries for s in segments)
        self.acks = []
        self.first = self.done = self.bye_s = None

    @property
    def wall(self):
        return self.done - self.first


def _session(client, segments, group, result):
    """Publish one group of segments as a session, close it, check its
    bye accounting against the generator."""
    lo = (group % GROUPS_PER_TENANT) * SEGMENTS_PER_SESSION
    session = _Session(segments[lo:lo + SEGMENTS_PER_SESSION])
    session.first = time.perf_counter()
    for seg in session.segments:
        start = time.perf_counter()
        client.publish(seg.data)
        session.acks.append(time.perf_counter() - start)
    bye_start = time.perf_counter()
    accounting = client.bye()["accounting"]
    session.done = time.perf_counter()
    session.bye_s = session.done - bye_start
    torn = sum(s.torn for s in session.segments)
    expect = {
        "segments": len(session.segments),
        "entries": session.entries,
        "salvaged": session.entries - torn,
        "quarantined": torn,
        "ticks": sum(s.ticks for s in session.segments),
        "errors": 0,
        "crc_failures": 0,
    }
    result.attempted += 1
    wrong = {k: accounting.get(k) for k, v in expect.items()
             if accounting.get(k) != v}
    if wrong:
        result.problems.append(
            f"session {client.session}: {wrong}, expected {expect}"
        )
    return session


class FleetPhase:
    """The fleet step against one daemon; :meth:`step` runs one timed
    producer session while the HTTP client queries.

    Construction spawns the daemon `spawns` times (all but the last are
    set-up samples only) and runs one warm-up session per tenant, which
    starts the pool's workers before anything is timed.  Between steps
    the daemon idles, so its steps can interleave with the other
    phases' and sample the whole run.  `spans_path` selects the traced
    daemon (``fleet_daemon.py``), which writes its spans there on exit.
    """

    min_reps = 2

    def __init__(self, inp, src_dir, workdir, spawns=SPAWNS,
                 spans_path=None):
        self.inp = inp
        self.result = PhaseResult()
        self.sent_ticks = dict.fromkeys(TENANTS, 0)
        self.timed = []  # timed sessions
        self.samples = []  # query samples
        self._count = 0
        first = TENANTS[0]
        for _ in range(spawns - 1):
            setup_s, daemon, client = spawn(
                src_dir, workdir, inp.symtab[first], first
            )
            self.result.setup.append(setup_s)
            try:
                client.bye()
            finally:
                daemon.stop()
        setup_s, self.daemon, client = spawn(
            src_dir, workdir, inp.symtab[first], first, spans_path
        )
        self.result.setup.append(setup_s)
        try:
            self._session(client)
            while self._count < WARMUP_SESSIONS:
                self._session()
        except BaseException:
            self.daemon.stop()
            raise

    def _session(self, client=None):
        i = self._count
        self._count += 1
        tenant = TENANTS[i % len(TENANTS)]
        if client is None:
            client = FleetClient(self.daemon.ingest).open(
                tenant, self.inp.symtab[tenant], f"s{i}"
            )
        try:
            session = _session(
                client, self.inp.segments[tenant], i // len(TENANTS),
                self.result,
            )
        finally:
            client.close()
        self.sent_ticks[tenant] += sum(s.ticks for s in session.segments)
        return session

    def step(self):
        queries = _Queries(self.daemon, QUERY_RATE)
        queries.start()
        try:
            self.timed.append(self._session())
        except (OSError, ProtocolError) as exc:
            self.result.attempted += 1
            self.result.problems.append(f"session: {exc}")
        finally:
            queries.stop()
            self.samples += queries.samples

    @property
    def done(self):
        """Timed sessions run so far."""
        return len(self.timed)

    def close(self):
        self.daemon.stop()

    def finish(self):
        """Check the merged profiles, stop the daemon, and compute the
        end-to-end metrics."""
        result = self.result
        try:
            _check_merged(self.daemon, self.sent_ticks, result)
        finally:
            self.close()
        for route, status, _, _ in self.samples:
            result.attempted += 1
            if status != 200:
                result.problems.append(f"query {route} answered {status}")
        latencies = [q[2] * 1e3 for q in self.samples]
        print(f"perfbench: fleet: {len(latencies)} query samples, "
              "generator late by "
              f"{percentile([q[3] * 1e3 for q in self.samples], 0.9):.2f} "
              "ms at p90", file=sys.stderr)
        result.metrics = {
            # The rate three sessions in four reach: the host's fast
            # spells, which run all of its cores up to 20% faster for
            # ten seconds or more, lift the median of a run further.
            "ingest_entries_per_s": percentile(
                [s.entries / s.wall for s in self.timed], 0.25
            ),
            "query_p50_ms": percentile(latencies, 0.5),
            "query_p90_ms": percentile(latencies, 0.9),
        }
        return result


def finish_traced(plain, traced, spans_path):
    """Finish a traced run's two fleet phases — one against a plain
    daemon, one against the traced daemon — into one result: the
    plain daemon's metrics, both phases' checks and set-ups, and the
    per-layer metrics."""
    result = plain.finish()
    other = traced.finish()
    result.attempted += other.attempted
    result.problems += other.problems
    result.setup += other.setup
    with open(spans_path) as fh:
        daemon_state = json.load(fh)
    result.layers = _layers(plain, traced, daemon_state)
    return result


def _check_merged(daemon, sent_ticks, result):
    """Each tenant's window ticks and merged ticks equal the ticks of
    every segment it was sent."""
    for tenant, ticks in sent_ticks.items():
        result.attempted += 1
        status, body = daemon.get(f"/profiles/{tenant}")
        summary = json.loads(body) if status == 200 else {}
        got = (summary.get("ticks"), summary.get("merged", {}).get("ticks"))
        if got != (ticks, ticks):
            result.problems.append(
                f"{tenant}: window/merged ticks {got}, expected {ticks}"
            )


def _layers(plain, traced, daemon_state):
    """Per-layer metrics from the traced daemon's spans and the
    producer's own timeline."""
    sessions = traced.timed
    # Only the timed sessions' spans: the warm-up sessions paid for the
    # pool's start.  Both processes read the same monotonic clock.
    since = int(sessions[0].first * 1e9)
    tracer = Tracer()
    tracer.spans = [s for s in daemon_state["spans"] if s[1] >= since]

    def per_call_ms(name):
        values = tracer.durations(name)
        return median(values) * 1e3 if values else 0.0

    def route_p50(route):
        return percentile(
            [q[2] * 1e3 for q in plain.samples if q[0] == route], 0.5
        )

    acks = [a for s in sessions for a in s.acks]
    wall = sum(s.wall for s in sessions)
    publish = sum(acks)
    drain = sum(s.bye_s for s in sessions)
    busy = tracer.total("workers.analyze_segment")
    totals = daemon_state["totals"]
    queries = traced.samples
    layers = {
        "protocol.ack_ms": median(acks) * 1e3,
        "recovery.salvage_ms_per_segment": per_call_ms("recovery.salvage"),
        "workers.analyze_ms_per_segment": per_call_ms(
            "workers.analyze_segment"
        ),
        "workers.queue_wait_ms": per_call_ms("workers.queue_wait"),
        "windows.add_ms_per_segment": per_call_ms("windows.add"),
        "fleet.in_flight_max": daemon_state["in_flight_max"],
        "workers.pool_kind": int(daemon_state["pool_kind"] == "process"),
        "windows.query_cold_ms": per_call_ms("windows.query_cold"),
        "windows.query_warm_ms": per_call_ms("windows.query_warm"),
        "store.merged_cache_hits": totals.get("merged_cache_hits", 0),
        "store.merged_cache_folds": totals.get("merged_cache_folds", 0),
        "store.merged_cache_rebuilds": totals.get(
            "merged_cache_rebuilds", 0
        ),
        "http.folded_ms": per_call_ms("http.folded"),
        "http.svg_ms": per_call_ms("http.svg"),
        "fleet.query_p90_ms": plain.result.metrics["query_p90_ms"],
        "fleet.query_folded_p50_ms": route_p50("folded"),
        "fleet.query_svg_p50_ms": route_p50("flamegraph.svg"),
        "fleet.query_samples": len(queries),
        "fleet.query_late_p90_ms": percentile(
            [q[3] * 1e3 for q in queries], 0.9
        ),
        # Worker time as a share of the two workers' capacity over
        # the producer's timed sessions.
        "workers.busy_frac": busy / (2 * wall),
        "recovery.share_of_worker": (
            tracer.total("recovery.salvage") / busy if busy else 0.0
        ),
        # The producer's timeline adds up: publish round trips, the
        # bye's wait for analysis, and the producer's own remainder.
        "fleet.traced_e2e_s": wall,
        "fleet.self_s.protocol_publish": publish,
        "fleet.self_s.drain_wait": drain,
        "fleet.unaccounted_s": wall - publish - drain,
        "fleet.share.protocol_publish": publish / wall,
        "fleet.share.drain_wait": drain / wall,
        "fleet.tracing_overhead": (
            plain.result.metrics["ingest_entries_per_s"]
            / traced.result.metrics["ingest_entries_per_s"] - 1
        ),
    }
    return layers
