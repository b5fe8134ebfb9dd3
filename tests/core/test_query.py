"""Unit tests for the declarative query interface."""

import pytest

from repro.api import Analyzer, SharedLog
from repro.core import KIND_CALL, KIND_RET, QuerySession
from repro.core.errors import AnalyzerError
from repro.symbols import BinaryImage
from tests.oracles.per_event import append


@pytest.fixture
def session():
    image = BinaryImage("app")
    for name in ("main", "get", "put", "lock_wait"):
        image.add_function(name, size=64)

    def a(name):
        return image.symtab.by_name(name).addr

    log = SharedLog.create(256, profiler_addr=image.profiler_addr)
    # Thread 1: main -> 3x get (10 ticks each) + put (40).
    append(log, KIND_CALL, 0, a("main"), 1)
    t = 10
    for _ in range(3):
        append(log, KIND_CALL, t, a("get"), 1)
        append(log, KIND_RET, t + 10, a("get"), 1)
        t += 20
    append(log, KIND_CALL, 80, a("put"), 1)
    append(log, KIND_RET, 120, a("put"), 1)
    append(log, KIND_RET, 200, a("main"), 1)
    # Thread 2: one get, plus a pathological lock_wait (1 fast, 1 slow).
    append(log, KIND_CALL, 0, a("get"), 2)
    append(log, KIND_RET, 12, a("get"), 2)
    append(log, KIND_CALL, 20, a("lock_wait"), 2)
    append(log, KIND_RET, 22, a("lock_wait"), 2)
    append(log, KIND_CALL, 30, a("lock_wait"), 2)
    append(log, KIND_RET, 1030, a("lock_wait"), 2)
    analysis = Analyzer(image).analyze(log)
    return QuerySession(analysis)


def test_hottest(session):
    top = session.hottest(2)
    assert len(top) == 2
    assert top.column("method")[0] == "lock_wait"


def test_thread_method_counts(session):
    counts = session.thread_method_counts()
    lookup = {(r["thread"], r["method"]): r["calls"] for r in counts.rows()}
    assert lookup[(1, "get")] == 3
    assert lookup[(2, "get")] == 1
    assert lookup[(2, "lock_wait")] == 2
    assert (2, "put") not in lookup


def test_callers_of(session):
    callers = session.callers_of("get")
    by_caller = {r["caller"]: r for r in callers.rows()}
    assert by_caller["main"]["calls"] == 3
    assert by_caller[None]["calls"] == 1  # thread-2 root call


def test_callers_of_unknown_method(session):
    with pytest.raises(AnalyzerError):
        session.callers_of("nope")


def test_callees_of(session):
    callees = session.callees_of("main")
    methods = set(callees.column("method"))
    assert methods == {"get", "put"}


def test_slowest_invocations(session):
    worst = session.slowest_invocations(1)
    assert worst.column("method")[0] == "lock_wait"
    assert worst.column("inclusive")[0] == 1000


def test_contention_candidates_flags_skewed_method(session):
    candidates = session.contention_candidates(3)
    assert candidates.column("method")[0] == "lock_wait"
    assert candidates.column("skew")[0] > 1.5


def test_method_by_call_history(session):
    history = session.method_by_call_history("get")
    by_caller = {r["caller"]: r for r in history.rows()}
    assert by_caller["main"]["calls"] == 3
    assert by_caller["main"]["mean"] == pytest.approx(10.0)


def test_calls_deeper_than(session):
    assert len(session.calls_deeper_than(0)) == 4  # 3x get + put under main


def test_summary_text(session):
    text = session.summary()
    assert "threads: 2" in text
    assert "hottest method: lock_wait" in text
