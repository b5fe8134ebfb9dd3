"""Integration tests for live mode: profiling real Python code."""

import threading
import types

import pytest

from repro.api import TEEPerf
from repro.core.counter import PerfCounterClock
from repro.core.instrument import LiveHooks
from repro.core.log import KIND_CALL, KIND_RET, SharedLog
from repro.core.recorder import LiveRecorder, Recorder
from repro.machine import Machine


def make_module():
    module = types.ModuleType("live_workload")

    def busy(n):
        total = 0
        for i in range(n):
            total += i * i
        return total

    def inner():
        # Call through the module attribute so the instrumenter's patch
        # is visible (module-level code resolves names via globals).
        return module.busy(60_000)

    def outer():
        result = 0
        for _ in range(5):
            result += module.inner()
        return result

    for fn in (busy, inner, outer):
        fn.__module__ = module.__name__
        setattr(module, fn.__name__, fn)
    return module


def test_live_profile_single_thread():
    module = make_module()
    perf = TEEPerf.live(name="live")
    perf.compile_module(module)
    try:
        result = perf.record(module.outer)
        assert result == module.busy(60_000) * 5
        analysis = perf.analyze()
        assert analysis.method("outer").calls == 1
        assert analysis.method("inner").calls == 5
        assert analysis.method("busy").calls == 5
        # busy dominates: it is where the loop lives.
        assert analysis.methods()[0].method == "busy"
        assert analysis.method("outer").inclusive >= analysis.method(
            "inner"
        ).inclusive
    finally:
        perf.uninstrument()


def test_live_profile_multithreaded():
    module = make_module()
    perf = TEEPerf.live(name="live-mt")
    perf.compile_module(module)
    try:
        def run_threads():
            threads = [
                threading.Thread(target=module.outer) for _ in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        perf.record(run_threads)
        analysis = perf.analyze()
        assert analysis.method("outer").calls == 3
        assert len(analysis.method("outer").threads) == 3
    finally:
        perf.uninstrument()


def test_live_with_hardware_counter():
    module = make_module()
    program_counter = PerfCounterClock()
    perf = TEEPerf.live(name="live-hw")
    perf._recorder_factory = lambda program: LiveRecorder(
        program, counter=program_counter
    )
    perf.compile_module(module)
    try:
        perf.record(module.inner)
        analysis = perf.analyze()
        assert analysis.method("busy").inclusive > 0
    finally:
        perf.uninstrument()


def test_live_persist_roundtrip(tmp_path):
    module = make_module()
    perf = TEEPerf.live(name="live-persist")
    perf.compile_module(module)
    try:
        perf.record(module.inner)
        path = tmp_path / "live.teeperf"
        perf.persist(str(path))
        offline = perf.analyze(str(path))
        assert offline.method("busy").calls == 1
    finally:
        perf.uninstrument()


def test_live_flamegraph():
    module = make_module()
    perf = TEEPerf.live(name="live-fg")
    perf.compile_module(module)
    try:
        perf.record(module.outer)
        graph = perf.flamegraph(title="live run")
        assert graph.share("busy") > 0.3
    finally:
        perf.uninstrument()


def test_live_record_options_keep_the_live_writer_block():
    """A RecordOptions that leaves writer_block unset keeps live
    recordings batched (256), and simulated ones per-event (0)."""
    from repro.api import RecordOptions
    from repro.core.log import DEFAULT_WRITER_BLOCK

    module = make_module()
    perf = TEEPerf.live(name="live-opts", record=RecordOptions(sealed=True))
    perf.compile_module(module)
    try:
        perf.record(module.inner)
    finally:
        perf.uninstrument()
    stats = perf.recorder.pipeline_stats()
    assert stats.writer_block == DEFAULT_WRITER_BLOCK
    sim = Recorder(Machine(), None, None, options=RecordOptions(sealed=True))
    assert sim.writer_block == 0


def test_live_pause_drops_exactly_the_paused_calls():
    module = make_module()
    perf = TEEPerf.live(name="live-pause")
    perf.compile_module(module)

    def driver():
        for _ in range(3):
            module.busy(10)
        perf.pause()
        for _ in range(5):
            module.busy(10)
        perf.resume()
        for _ in range(2):
            module.busy(10)

    try:
        perf.record(driver)
        analysis = perf.analyze()
    finally:
        perf.uninstrument()
    assert analysis.method("busy").calls == 5
    assert perf.events_recorded() == 2 * 5


def test_live_event_mask_filters_at_staging():
    from repro.api import RecordOptions

    module = make_module()
    perf = TEEPerf.live(name="live-mask", record=RecordOptions(calls=False))
    perf.compile_module(module)
    try:
        perf.record(module.outer)
    finally:
        perf.uninstrument()
    kinds = perf.recorder.log.columns().kind
    assert len(kinds) == 1 + 5 + 5  # one RET per call, no CALL
    assert all(kind == KIND_RET for kind in kinds)
    assert perf.recorder.pipeline_stats().entries_dropped == 0


def test_live_threads_have_monotone_balanced_logs():
    module = make_module()
    perf = TEEPerf.live(name="live-3t")
    perf.compile_module(module)
    barrier = threading.Barrier(3)

    def body():
        barrier.wait()
        module.outer()

    def run_threads():
        threads = [threading.Thread(target=body) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)

    try:
        perf.record(run_threads)
    finally:
        perf.uninstrument()
    cols = perf.recorder.log.columns()
    per_thread = {}
    for kind, counter, tid in zip(cols.kind, cols.counter, cols.tid):
        per_thread.setdefault(tid, []).append((kind, counter))
    assert len(per_thread) == 3
    for events in per_thread.values():
        counters = [counter for _, counter in events]
        assert counters == sorted(counters)
        kinds = [kind for kind, _ in events]
        assert kinds.count(0) == kinds.count(1) == 11


def test_live_recording_leaves_the_switch_interval_alone():
    import sys

    module = make_module()
    before = sys.getswitchinterval()
    seen = []
    perf = TEEPerf.live(name="live-switch")
    perf.compile_module(module)
    try:
        perf.record(lambda: seen.append(sys.getswitchinterval()))
    finally:
        perf.uninstrument()
    assert seen == [before]
    assert sys.getswitchinterval() == before


def test_live_recording_with_a_thread_alive_raises_no_warning():
    """The counter process is spawned with subprocess, never forked:
    no fork-with-threads DeprecationWarning even with a thread up."""
    import warnings

    module = make_module()
    release = threading.Event()
    bystander = threading.Thread(target=release.wait, args=(60,))
    bystander.start()
    perf = TEEPerf.live(name="live-warn")
    perf.compile_module(module)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            perf.record(module.inner)
    finally:
        perf.uninstrument()
        release.set()
        bystander.join(timeout=60)
    assert not bystander.is_alive()
    assert perf.analyze().method("busy").calls == 1


def test_live_hooks_read_active_through_another_mapping():
    """ACTIVE is read from the header word itself, so a flag flipped
    through a second mapping of a shared-memory log takes effect."""
    log = SharedLog.create(64, shm=True)
    other = SharedLog.attach(log.shm_name)
    try:
        hooks = LiveHooks(log, PerfCounterClock())
        other.set_active(True)
        hooks.on_event(KIND_CALL, 0x1000)
        other.set_active(False)
        hooks.on_event(KIND_RET, 0x1000)
        assert len(log) == 1
        assert log.entry(0).addr == 0x1000
    finally:
        other.close()
        log.close(unlink=True)
