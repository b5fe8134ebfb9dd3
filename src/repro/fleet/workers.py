"""The fleet's persistent analysis pool.

One daemon analyses segments from many tenants concurrently, so the
pool outlives any single session: it is created once, reused for every
segment, and only torn down with the daemon.  A segment crosses into a
worker as ``(log image bytes, symtab JSON, recover mode)`` — the log
image *is* the packed columnar representation (fixed-width
little-endian words, decoded with one ``numpy.frombuffer`` sweep on
the other side), so nothing is re-encoded for the trip — and comes
back as a :class:`SegmentResult` of plain picklable fields: the
folded-stack summary, per-method call counts, and the salvage
accounting.

Workers prefer a :class:`~concurrent.futures.ProcessPoolExecutor`
(reconstruction is CPU-bound; the GIL must not serialise tenants) and
fall back to threads when the host cannot provide multiprocessing
primitives (sandboxes without semaphores, a pool that breaks or never
answers its probe).  This is the only process pool in the package:
the analyzer's own ``jobs=N`` shards run on threads.  The fallback
is never silent: its cause is kept on
:attr:`AnalysisPool.fallback_reason` (and in ``FleetDaemon.status()``)
and logged once on the ``repro.fleet`` logger; any other exception
propagates.  Each process worker memoises
:class:`~repro.symbols.BinaryImage` construction per symtab, so a
long-lived session pays the JSON parse once, not per segment.
"""

import logging
import zlib
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FutureTimeout,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.core.analyzer import Analyzer
from repro.symbols import BinaryImage

__all__ = ["AnalysisPool", "SegmentResult", "analyze_segment"]

_LOG = logging.getLogger("repro.fleet")

#: Why a process pool can fail to come up on a host: no multiprocessing
#: primitives (ImportError/NotImplementedError/OSError), workers that
#: die (BrokenProcessPool), or a probe that never answers
#: (concurrent.futures.TimeoutError, not an OSError on Python 3.9).
_POOL_UNAVAILABLE = (
    ImportError, NotImplementedError, OSError, BrokenProcessPool,
    FutureTimeout,
)

#: Per-worker memo of symtab JSON -> (Analyzer, BinaryImage); keyed by
#: CRC so the key stays tiny.  Module-global on purpose: in a process
#: worker this is the worker's private cache, in thread mode it is the
#: daemon-wide shared one.
_ANALYZERS = {}
_ANALYZER_CACHE_MAX = 64


def _analyzer_for(symtab_json):
    key = zlib.crc32(symtab_json.encode())
    analyzer = _ANALYZERS.get(key)
    if analyzer is None:
        if len(_ANALYZERS) >= _ANALYZER_CACHE_MAX:
            _ANALYZERS.clear()
        image = BinaryImage.from_json(symtab_json)
        analyzer = _ANALYZERS[key] = Analyzer(image)
    return analyzer


@dataclass
class SegmentResult:
    """One analysed segment, reduced to picklable plain data."""

    entries: int = 0  # entries the image claimed (tail extent)
    salvaged: int = 0
    quarantined: int = 0
    crc_failures: int = 0
    segments_sealed: int = 0
    segments_recovered: int = 0
    ticks: int = 0  # total exclusive ticks == flamegraph total
    unmatched_returns: int = 0
    folded: dict = field(default_factory=dict)
    method_calls: dict = field(default_factory=dict)
    threads: int = 0
    error: str = None

    @property
    def ok(self):
        return self.error is None

    @property
    def accounted(self):
        """The no-silent-drop identity: every entry the image claimed
        is either salvaged or quarantined with a reason."""
        return self.salvaged + self.quarantined == self.entries

    def to_dict(self):
        return {
            "entries": self.entries,
            "salvaged": self.salvaged,
            "quarantined": self.quarantined,
            "crc_failures": self.crc_failures,
            "segments_sealed": self.segments_sealed,
            "segments_recovered": self.segments_recovered,
            "ticks": self.ticks,
            "unmatched_returns": self.unmatched_returns,
            "threads": self.threads,
            "paths": len(self.folded),
            "error": self.error,
        }


def analyze_segment(payload):
    """The worker body: one packed segment in, one summary out.

    ``payload`` is ``(log_bytes, symtab_json, recover)``.  Every
    segment goes through salvage (``recover="auto"`` unless the caller
    says otherwise): a clean handoff salvages completely, a dirty one
    — crashed producer, torn trailing block — is quarantined with
    reason codes and *exact* accounting, never silently clipped.

    Analysis failures are reported in-band (``result.error``) rather
    than raised: one bad segment must not poison the pool or the
    connection that delivered it.
    """
    log_bytes, symtab_json, recover = payload
    try:
        analyzer = _analyzer_for(symtab_json)
        analysis = analyzer.analyze(log_bytes, recover=recover)
        result = SegmentResult(
            ticks=int(analysis.total_exclusive()),
            unmatched_returns=int(analysis.unmatched_returns),
            folded=dict(analysis.folded()),
            method_calls={
                s.method: s.calls for s in analysis.methods()
            },
            threads=len(analysis.threads()),
        )
        report = analysis.recovery
        if report is not None:
            result.entries = report.tail
            result.salvaged = report.entries_salvaged
            result.quarantined = report.entries_quarantined
            result.crc_failures = report.crc_failures
            result.segments_sealed = report.segments_sealed
            result.segments_recovered = report.segments_recovered
        else:  # recover="off": the log is trusted entry for entry
            result.entries = analysis.meta.get("events", 0)
            result.salvaged = result.entries
        return result
    except Exception as exc:  # noqa: BLE001 — reported in-band
        return SegmentResult(error=f"{type(exc).__name__}: {exc}")


def _probe():
    """A trivial task proving the process pool actually works here."""
    return "ok"


class AnalysisPool:
    """A persistent executor for :func:`analyze_segment` payloads.

    ``kind`` reports what actually backs it — ``"process"`` when the
    host granted real workers, ``"thread"`` after the fallback — so
    metrics and tests can tell the difference.  ``fallback_reason`` is
    ``"<ExceptionType>: <message>"`` of the failure that made a
    process-preferring pool fall back to threads, else ``None``.
    """

    def __init__(self, jobs=2, prefer_processes=True):
        if jobs < 1:
            raise ValueError(f"jobs must be positive: {jobs}")
        self.jobs = jobs
        self.prefer_processes = prefer_processes
        self._executor = None
        self.kind = None
        self.fallback_reason = None

    def _ensure(self):
        if self._executor is not None:
            return self._executor
        if self.prefer_processes:
            pool = None
            try:
                pool = ProcessPoolExecutor(max_workers=self.jobs)
                # Force worker spawn now: a sandbox without semaphores
                # fails here, not mid-ingest.
                pool.submit(_probe).result(timeout=30)
                self._executor = pool
                self.kind = "process"
                return pool
            except BaseException as exc:
                if pool is not None:  # never leave its workers behind
                    pool.shutdown(wait=False, cancel_futures=True)
                if not isinstance(exc, _POOL_UNAVAILABLE):
                    raise
                self.fallback_reason = f"{type(exc).__name__}: {exc}"
                _LOG.warning(
                    "analysis pool falls back to threads: %s",
                    self.fallback_reason,
                )
        self._executor = ThreadPoolExecutor(
            max_workers=self.jobs,
            thread_name_prefix="tee-perf-fleet-worker",
        )
        self.kind = "thread"
        return self._executor

    def submit(self, log_bytes, symtab_json, recover="auto"):
        """Schedule one segment; returns a future of
        :class:`SegmentResult`.

        A ``memoryview`` payload (the shm fast path) stays zero-copy
        all the way into salvage on a thread-backed pool; a
        process-backed pool must serialise it across the boundary, so
        only there is it materialised as ``bytes``.  The caller must
        keep a ``memoryview``'s buffer alive until the future
        completes (submit returns after any process-pool pickling, so
        a done-callback release is sufficient either way).
        """
        executor = self._ensure()
        if self.kind == "process" or not isinstance(
            log_bytes, memoryview
        ):
            log_bytes = bytes(log_bytes)
        return executor.submit(
            analyze_segment, (log_bytes, symtab_json, recover)
        )

    def close(self):
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self.kind = None
            self.fallback_reason = None

    def __enter__(self):
        self._ensure()
        return self

    def __exit__(self, *exc):
        self.close()
        return False
