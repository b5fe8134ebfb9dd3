"""The analysis pool: packed-segment workers and their accounting.

Every worker result must satisfy the no-silent-drop identity
(``salvaged + quarantined == entries``) whether the handoff was clean
or a crashed producer's dirty snapshot, and failures must come back
in-band — one bad segment never poisons the pool.
"""

import logging
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import KIND_CALL
from repro.core.log import SharedLog
from repro.faults import CrashingWriter, InjectedCrash, crashed_snapshot
from repro.fleet import AnalysisPool, FleetDaemon, SegmentResult
from repro.fleet import workers
from repro.fleet.workers import analyze_segment
from repro.symbols import BinaryImage


def crashed_segment():
    """A dirty handoff: the producer dies mid-flush; returns
    ``(snapshot bytes, symtab json)``."""
    image = BinaryImage("crashy")
    image.add_function("app::Crashy()", size=64)
    addr = next(iter(image.symtab)).addr
    log = SharedLog.create(
        16, sealed=True, profiler_addr=image.profiler_addr
    )
    writer = CrashingWriter(log, block=4, phase="mid-write",
                            crash_flush=2)
    with pytest.raises(InjectedCrash):
        for i in range(16):
            writer.append(KIND_CALL, i, addr, 0)
    return crashed_snapshot(log), image.to_json()


def test_clean_segment_matches_direct_analysis(baseline_session):
    result = analyze_segment(
        (baseline_session["log_bytes"], baseline_session["symtab"],
         "auto")
    )
    assert result.ok
    assert result.accounted
    assert result.entries == baseline_session["entries"]
    assert result.salvaged == baseline_session["entries"]
    assert result.quarantined == 0
    assert result.ticks == baseline_session["ticks"]
    assert result.folded == baseline_session["folded"]
    assert result.method_calls["app::Step()"] == 4
    assert result.threads >= 1
    assert result.to_dict()["paths"] == len(result.folded)


def test_dirty_handoff_degrades_to_exact_quarantine():
    snapshot, symtab = crashed_segment()
    result = analyze_segment((snapshot, symtab, "auto"))
    assert result.ok
    assert result.accounted, result.to_dict()
    assert result.quarantined > 0  # the torn tail was set aside...
    assert result.salvaged > 0  # ...but the sealed prefix survived
    assert result.segments_recovered > 0


def test_garbage_bytes_report_in_band():
    result = analyze_segment((b"not a log image", "{}", "auto"))
    assert not result.ok
    assert result.error
    assert result.entries == 0


def test_bad_symtab_reports_in_band(baseline_session):
    result = analyze_segment(
        (baseline_session["log_bytes"], "not json", "auto")
    )
    assert not result.ok
    assert "Error" in result.error or "error" in result.error


def test_segment_result_identity_property():
    assert SegmentResult(entries=5, salvaged=3, quarantined=2).accounted
    assert not SegmentResult(entries=5, salvaged=3).accounted


def test_thread_pool_fallback_and_reuse(baseline_session):
    pool = AnalysisPool(jobs=2, prefer_processes=False)
    try:
        futures = [
            pool.submit(
                baseline_session["log_bytes"],
                baseline_session["symtab"],
            )
            for _ in range(4)
        ]
        assert pool.kind == "thread"
        for future in futures:
            result = future.result(timeout=60)
            assert result.ok and result.accounted
            assert result.ticks == baseline_session["ticks"]
    finally:
        pool.close()
    assert pool.kind is None  # closed pools report no backing


def test_pool_context_manager_and_validation():
    with pytest.raises(ValueError, match="jobs"):
        AnalysisPool(jobs=0)
    with AnalysisPool(jobs=1, prefer_processes=False) as pool:
        assert pool.kind == "thread"
    assert pool.kind is None


def test_memoryview_submit_is_zero_copy():
    """The shm fast path's contract: a ``memoryview`` payload crosses
    ``submit()`` on a thread-backed pool without being materialised —
    tracemalloc must see bookkeeping, not a second copy of the
    segment.  The pool's one worker is parked behind an event during
    the measurement so nothing else allocates in the window."""
    import threading
    import tracemalloc

    from repro.core import KIND_RET

    image = BinaryImage("big")
    image.add_function("app::Hot()", size=64)
    addr = next(iter(image.symtab)).addr
    symtab = image.to_json()

    n = 1 << 18  # ~6 MiB of v1 entries: a copy would dwarf the noise
    log = SharedLog.create(n, profiler_addr=image.profiler_addr)
    assert log.append_columns(
        [KIND_CALL, KIND_RET] * (n // 2),
        list(range(n)),
        [addr] * n,
        [1] * n,
    ) == n
    log._store_tail()
    payload = memoryview(log.to_bytes())

    pool = AnalysisPool(jobs=1, prefer_processes=False)
    gate = threading.Event()
    try:
        blocker = pool._ensure().submit(gate.wait)
        assert pool.kind == "thread"
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        future = pool.submit(payload, symtab)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        gate.set()
        blocker.result(timeout=60)
        result = future.result(timeout=60)
    finally:
        gate.set()
        pool.close()

    assert peak - before < len(payload) // 4  # no copy was taken
    assert result.ok and result.accounted
    assert result.salvaged == n


class _FakeProcessPool:
    """Stands in for ``ProcessPoolExecutor``: ``submit`` hands back a
    probe future failing with `probe_error`, or raises `submit_error`;
    every instance records its ``shutdown`` calls."""

    made = []
    probe_error = None
    submit_error = None

    def __init__(self, max_workers):
        self.shutdowns = []
        _FakeProcessPool.made.append(self)

    def submit(self, fn, *args):
        if self.submit_error is not None:
            raise self.submit_error
        future = Future()
        future.set_exception(self.probe_error)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))


@pytest.fixture
def fake_process_pool(monkeypatch):
    monkeypatch.setattr(_FakeProcessPool, "made", [])
    monkeypatch.setattr(workers, "ProcessPoolExecutor", _FakeProcessPool)
    return _FakeProcessPool


@pytest.mark.parametrize(
    "error",
    [OSError("no semaphores"), BrokenProcessPool("worker died"),
     FutureTimeout()],
    ids=["os-error", "broken-pool", "probe-timeout"],
)
def test_pool_fallback_keeps_its_cause_and_shuts_the_process_pool(
    fake_process_pool, monkeypatch, caplog, error
):
    monkeypatch.setattr(fake_process_pool, "probe_error", error)
    pool = AnalysisPool(jobs=1)
    try:
        with caplog.at_level(logging.WARNING, logger="repro.fleet"):
            pool._ensure()
            pool._ensure()  # the fallback is decided, and logged, once
        assert pool.kind == "thread"
        assert pool.fallback_reason == f"{type(error).__name__}: {error}"
        (fake,) = fake_process_pool.made
        assert fake.shutdowns == [(False, True)]
        (record,) = caplog.records
        assert record.name == "repro.fleet"
        assert pool.fallback_reason in record.getMessage()
    finally:
        pool.close()
    assert pool.fallback_reason is None  # closed pools report nothing


def test_daemon_status_reports_the_pool_fallback(
    fake_process_pool, monkeypatch
):
    monkeypatch.setattr(
        fake_process_pool, "probe_error", OSError("no semaphores")
    )
    daemon = FleetDaemon(jobs=1)
    try:
        assert daemon.status()["pool_fallback_reason"] is None
        daemon.pool._ensure()
        status = daemon.status()
        assert status["pool"] == "thread"
        assert status["pool_fallback_reason"] == "OSError: no semaphores"
    finally:
        daemon.stop()


def test_a_bug_in_process_pool_start_up_propagates(
    fake_process_pool, monkeypatch
):
    """Only a host that cannot run a process pool falls back; any
    other failure is raised, and the half-built pool is still shut."""
    monkeypatch.setattr(
        fake_process_pool, "submit_error", RuntimeError("a real bug")
    )
    pool = AnalysisPool(jobs=1)
    with pytest.raises(RuntimeError, match="a real bug"):
        pool._ensure()
    assert pool.kind is None
    assert pool.fallback_reason is None
    (fake,) = fake_process_pool.made
    assert fake.shutdowns == [(False, True)]
