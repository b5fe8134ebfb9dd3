"""The always-on ingest daemon: sessions in, windowed profiles out.

:class:`FleetDaemon` is the assembly point of the subsystem.  It owns

* a persistent :class:`~repro.fleet.workers.AnalysisPool` (segments
  from every tenant share it),
* a :class:`~repro.fleet.windows.WindowStore` (per-tenant sliding
  windows with retention and tick-preserving compaction),
* a :class:`~repro.monitor.Monitor` carrying the fleet's counters,
  a :class:`FleetSampler`, and the default alert rules (quarantined
  entries, CRC failures, analysis errors — anything that means data
  needed salvage or was set aside),
* the per-session accounting the ``bye`` ack reports back to
  producers.

Ingest is asynchronous: :meth:`ingest_segment` stamps the segment
with the submit-time window, hands the packed image to the pool, and
a completion callback folds the worker's summary into the store.  The
window id is chosen at *submit* time so a slow worker cannot smear a
segment into a later window than the one its producer landed it in.
:meth:`drain` flushes the in-flight set — tests and the query CLI use
it to make ingest observable deterministically.

Every segment goes through :func:`repro.core.recovery.recover_log`
salvage inside the worker (``recover="auto"``), so a crashed
producer's dirty handoff degrades into exact quarantine accounting:
``salvaged + quarantined == entries`` holds per segment, per session,
per tenant, and fleet-wide, and the quarantine counters feed the
alert rules.

The store's locking is per tenant (see
:class:`~repro.fleet.windows.WindowStore`): the fold callback for one
tenant's segment and a merged query for another tenant never contend,
and queries return immutable snapshots served through the per-tenant
incremental merged-profile cache — the sampler publishes its
hit/fold/rebuild counters.
"""

import threading
import time

from repro.fleet.windows import WindowStore
from repro.fleet.workers import AnalysisPool
from repro.monitor import AlertRule, Monitor, Sampler

__all__ = ["FleetDaemon", "FleetSampler", "LocalSession", "FLEET_RULES"]

#: Default alert rules: anything that means ingest lost or set aside
#: data must page.  Quarantine is expected after a producer crash (the
#: fleet's whole point is to absorb those), so it alerts but clears as
#: soon as a full clean window passes — the rules are thresholds on
#: monotone totals, so "clears" here means the operator acked/restarted
#: the monitor; the signal is the transition.
FLEET_RULES = (
    AlertRule("fleet-quarantine", "fleet_entries_quarantined_total",
              ">", 0),
    AlertRule("fleet-crc-failures", "fleet_crc_failures_total", ">", 0),
    AlertRule("fleet-analysis-errors", "fleet_analysis_errors_total",
              ">", 0),
)


class FleetSampler(Sampler):
    """Publishes the daemon's ingest state into a monitor registry.

    Totals are counters fed with ``set_total`` (monotone, safe to
    re-sample); store shape (tenants, windows, live paths) lands as
    gauges.
    """

    key = "fleet"

    def __init__(self, daemon):
        self.daemon = daemon

    def sample(self, registry):
        daemon = self.daemon
        for name, help_text in (
            ("segments_ingested", "Segments accepted for analysis."),
            ("segments_analyzed", "Segments whose analysis completed."),
            ("segments_recovered",
             "Segments recovery had to repair or clip."),
            ("entries", "Entries the ingested images claimed."),
            ("entries_salvaged", "Entries salvage carried into windows."),
            ("entries_quarantined",
             "Entries set aside with a reason code (never silently "
             "dropped)."),
            ("crc_failures", "Sealed blocks whose CRC32 did not match."),
            ("analysis_errors", "Segments whose analysis raised."),
            ("sessions_opened", "Producer sessions accepted."),
            ("sessions_closed", "Producer sessions ended."),
        ):
            registry.counter(
                f"fleet_{name}_total", help_text
            ).set_total(daemon.counters.get(name, 0))
        registry.gauge(
            "fleet_segments_in_flight",
            "Segments submitted but not yet folded into a window.",
        ).set(daemon.in_flight)
        registry.gauge(
            "fleet_pool_kind_process",
            "1 when the analysis pool runs real processes, 0 on the "
            "thread fallback.",
        ).set(1 if daemon.pool.kind == "process" else 0)
        totals = daemon.store.totals()
        for name, help_text in (
            ("tenants", "Tenants with at least one retained window."),
            ("windows", "Retained (addressable) windows fleet-wide."),
            ("paths", "Distinct folded call paths held live."),
        ):
            registry.gauge(
                f"fleet_{name}", help_text
            ).set(totals[name])
        for name, help_text in (
            ("paths_compacted",
             "Cold paths folded into the <other> bucket."),
            ("windows_archived",
             "Windows expired past retention into tenant archives."),
            ("merged_cache_hits",
             "Merged-profile queries answered from the per-tenant "
             "cache without touching any window."),
            ("merged_cache_folds",
             "Newly-stable windows folded incrementally into a "
             "cached merged base."),
            ("merged_cache_rebuilds",
             "Merged bases rebuilt from scratch (archive churn or a "
             "late segment in an old window)."),
        ):
            registry.counter(
                f"fleet_{name}_total", help_text
            ).set_total(totals[name])


class LocalSession:
    """The in-process fast path: a producer inside the daemon's own
    process hands log images over directly — no socket, no copy beyond
    the image bytes themselves.

    Mirrors the :class:`~repro.fleet.protocol.FleetClient` surface
    (``publish`` / ``bye`` / context management) so call sites can
    swap transports without changing shape.
    """

    def __init__(self, daemon, tenant, session, symtab_json):
        self.daemon = daemon
        self.tenant = tenant
        self.session = session
        self.symtab_json = symtab_json
        self.segments_sent = 0
        self._closed = False

    def publish(self, log):
        """Ingest one log image (a ``SharedLog`` or raw bytes);
        returns the future of its :class:`SegmentResult`."""
        if self._closed:
            raise RuntimeError(f"session {self.session!r} is closed")
        log_bytes = log.to_bytes() if hasattr(log, "to_bytes") else log
        future = self.daemon.ingest_segment(
            self.tenant, self.symtab_json, log_bytes,
            session=self.session,
        )
        self.segments_sent += 1
        return future

    def bye(self):
        """Close the session; returns its accounting (drains first so
        the numbers are final)."""
        if self._closed:
            return None
        self._closed = True
        self.daemon.drain()
        return self.daemon.close_session(self.tenant, self.session)

    close = bye

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.bye()
        return False


class FleetDaemon:
    """The long-lived continuous-profiling service core.

    Parameters
    ----------
    window_seconds, retention, max_paths:
        Window geometry, passed to :class:`WindowStore`.
    jobs, prefer_processes:
        Analysis pool shape, passed to :class:`AnalysisPool`.
    recover:
        Salvage mode applied to every ingested image (default
        ``"auto"``; ``"strict"`` makes any quarantine an in-band
        segment error instead).
    monitor:
        An existing :class:`Monitor` to register with, or ``None`` to
        own a private one.
    clock:
        Ingest timestamp source (seconds); injectable so tests can
        place segments in chosen windows.
    """

    def __init__(self, window_seconds=60.0, retention=32,
                 max_paths=4096, jobs=2, prefer_processes=True,
                 recover="auto", monitor=None, clock=time.time,
                 rules=FLEET_RULES):
        self.store = WindowStore(
            window_seconds=window_seconds, retention=retention,
            max_paths=max_paths, clock=clock,
        )
        self.pool = AnalysisPool(
            jobs=jobs, prefer_processes=prefer_processes
        )
        self.recover = recover
        self.clock = clock
        self.monitor = monitor if monitor is not None else Monitor()
        self._owns_monitor = monitor is None
        self.monitor.attach(FleetSampler(self))
        self.monitor.add_rules(rules)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._pending = 0
        self.counters = {}  # name -> monotone total (under _lock)
        self._sessions = {}  # (tenant, session) -> accounting dict
        self.errors = []  # (tenant, session, message), newest last

    # ------------------------------------------------------------------
    # Lifecycle

    @property
    def in_flight(self):
        with self._lock:
            return self._pending

    def start(self):
        """Start the monitor's sampling thread (if the daemon owns
        it); the pool spins up lazily on first ingest."""
        if self._owns_monitor:
            self.monitor.start()
        return self

    def stop(self):
        """Drain in-flight segments, stop the pool (and the monitor if
        owned).  The store stays readable after stop."""
        self.drain()
        self.pool.close()
        if self._owns_monitor:
            self.monitor.stop()
        else:  # shared monitor: leave it running, take a final pass
            self.monitor.poll_once()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False

    # ------------------------------------------------------------------
    # Sessions

    def session(self, tenant, symtab_json, session=None):
        """Open an in-process producer session (the direct fast
        path)."""
        if session is None:
            with self._lock:
                n = self.counters.get("sessions_opened", 0)
            session = f"local-{n}"
        self.open_session(tenant, session)
        return LocalSession(self, tenant, session, symtab_json)

    def open_session(self, tenant, session):
        """Register a producer session (both transports call this)."""
        with self._lock:
            self._bump("sessions_opened")
            self._sessions.setdefault(
                (tenant, session),
                {
                    "tenant": tenant, "session": session,
                    "segments": 0, "entries": 0, "salvaged": 0,
                    "quarantined": 0, "crc_failures": 0, "ticks": 0,
                    "errors": 0, "open": True,
                },
            )["open"] = True

    def close_session(self, tenant, session):
        """Mark a session closed; returns a copy of its accounting."""
        with self._lock:
            self._bump("sessions_closed")
            state = self._sessions.get((tenant, session))
            if state is None:
                return None
            state["open"] = False
            return dict(state)

    def accounting(self, tenant=None):
        """Per-session accounting, optionally filtered by tenant."""
        with self._lock:
            return [
                dict(state)
                for (t, _), state in sorted(self._sessions.items())
                if tenant is None or t == tenant
            ]

    # ------------------------------------------------------------------
    # Ingest

    def _bump(self, name, amount=1):
        """Caller holds the lock."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def ingest_segment(self, tenant, symtab_json, log_bytes,
                       session=None, ts=None):
        """Submit one packed log image for analysis; returns the
        worker future.  The result lands in `tenant`'s window for the
        submit-time timestamp (or the explicit `ts`)."""
        ts = self.clock() if ts is None else ts
        with self._lock:
            self._bump("segments_ingested")
            self._pending += 1
        try:
            future = self.pool.submit(
                log_bytes, symtab_json, recover=self.recover
            )
        except BaseException:
            with self._lock:
                self._pending -= 1
                self._idle.notify_all()
            raise
        future.add_done_callback(
            lambda fut: self._absorb(fut, tenant, session, ts)
        )
        return future

    def _absorb(self, future, tenant, session, ts):
        """Pool completion callback: fold one worker summary into the
        store and the accounting."""
        try:
            try:
                result = future.result()
            except Exception as exc:  # pool infrastructure failure
                self._record_error(
                    tenant, session, f"{type(exc).__name__}: {exc}"
                )
                return
            if not result.ok:
                self._record_error(tenant, session, result.error)
                return
            self.store.add(
                tenant, result.folded,
                method_calls=result.method_calls, session=session,
                entries=result.entries, salvaged=result.salvaged,
                quarantined=result.quarantined,
                crc_failures=result.crc_failures, ts=ts,
            )
            with self._lock:
                self._bump("segments_analyzed")
                self._bump("entries", result.entries)
                self._bump("entries_salvaged", result.salvaged)
                self._bump("entries_quarantined", result.quarantined)
                self._bump("crc_failures", result.crc_failures)
                self._bump(
                    "segments_recovered", result.segments_recovered
                )
                state = self._sessions.get((tenant, session))
                if state is not None:
                    state["segments"] += 1
                    state["entries"] += result.entries
                    state["salvaged"] += result.salvaged
                    state["quarantined"] += result.quarantined
                    state["crc_failures"] += result.crc_failures
                    state["ticks"] += result.ticks
        finally:
            with self._lock:
                self._pending -= 1
                self._idle.notify_all()

    def _record_error(self, tenant, session, message):
        with self._lock:
            self._bump("analysis_errors")
            self.errors.append((tenant, session, message))
            del self.errors[:-64]  # keep the newest few for /status
            state = self._sessions.get((tenant, session))
            if state is not None:
                state["errors"] += 1

    def drain(self, timeout=None):
        """Block until every submitted segment has been folded in (or
        `timeout` seconds elapse); returns True when idle."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._idle:
            while self._pending:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    # ------------------------------------------------------------------
    # Query surface (delegates to the store)

    def tenants(self):
        return self.store.tenants()

    def profile(self, tenant, window=None):
        """A tenant's merged profile (all retained windows + archive),
        or one window's profile when `window` is given."""
        if window is None:
            return self.store.merged(tenant)
        return self.store.profile(tenant, window)

    def diff(self, tenant, a, b):
        return self.store.diff(tenant, a, b)

    def summary(self, tenant):
        return self.store.summary(tenant)

    def status(self):
        """JSON-ready daemon state for ``/fleet`` and the CLI."""
        with self._lock:
            counters = dict(self.counters)
            pending = self._pending
            errors = [
                {"tenant": t, "session": s, "error": e}
                for t, s, e in self.errors[-8:]
            ]
            sessions_open = sum(
                1 for state in self._sessions.values() if state["open"]
            )
        totals = self.store.totals()
        return {
            "counters": counters,
            "in_flight": pending,
            "sessions_open": sessions_open,
            "pool": self.pool.kind,
            "pool_fallback_reason": self.pool.fallback_reason,
            "window_seconds": self.store.window_seconds,
            "retention": self.store.retention,
            "store": totals,
            "recent_errors": errors,
            "accounted": (
                counters.get("entries_salvaged", 0)
                + counters.get("entries_quarantined", 0)
                == counters.get("entries", 0)
            ),
        }
