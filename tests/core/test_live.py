"""Integration tests for live mode: profiling real Python code."""

import sys
import threading
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import TEEPerf
from repro.core.counter import PerfCounterClock
from repro.core.instrument import Instrumenter, LiveHooks, WriterPool
from repro.core.log import (
    HEADER_SIZE,
    KIND_CALL,
    KIND_RET,
    VERSION,
    VERSION_2,
    SharedLog,
)
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


def test_live_threads_run_one_after_another_keep_their_own_tids():
    """CPython may hand a joined thread's ident to the next thread
    started; the log's tid must still tell the threads apart."""
    module = make_module()
    perf = TEEPerf.live(name="live-seq")
    perf.compile_module(module)

    def run_in_turn():
        for _ in range(3):
            thread = threading.Thread(target=module.inner)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()

    try:
        perf.record(run_in_turn)
        analysis = perf.analyze()
    finally:
        perf.uninstrument()
    assert analysis.method("inner").calls == 3
    assert len(analysis.method("inner").threads) == 3


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


def test_live_hooks_under_thread_stress():
    """More threads than cores, a 1 µs switch interval and blocks of
    three: each thread's hook stages only its own events, so every
    event lands exactly once, in order, under its thread's id."""
    module = types.ModuleType("live_stress")
    calls = 1500

    def leaf():
        return 1

    def mid(n):
        total = 0
        for _ in range(n):
            total += module.leaf()
        return total

    for fn in (leaf, mid):
        fn.__module__ = module.__name__
        setattr(module, fn.__name__, fn)
    perf = TEEPerf.live(name="live-stress", writer_block=3)
    perf.compile_module(module)
    # All six run at once, and none exits before all are done.
    barrier = threading.Barrier(6)

    def body():
        barrier.wait(timeout=60)
        module.mid(calls)
        barrier.wait(timeout=60)

    def run_threads():
        threads = [threading.Thread(target=body) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        perf.record(run_threads)
    finally:
        sys.setswitchinterval(interval)
        perf.uninstrument()
    stats = perf.recorder.pipeline_stats()
    assert stats.entries_dropped == 0
    assert stats.entries_recorded == 6 * 2 * (calls + 1)
    offset = perf.recorder.loaded.offset
    mid_addr = perf.program.link_addr("mid") + offset
    leaf_addr = perf.program.link_addr("leaf") + offset
    expected = (
        [(KIND_CALL, mid_addr)]
        + [(KIND_CALL, leaf_addr), (KIND_RET, leaf_addr)] * calls
        + [(KIND_RET, mid_addr)]
    )
    cols = perf.recorder.log.columns()
    per_thread = {}
    for kind, counter, addr, tid in zip(
        cols.kind.tolist(), cols.counter.tolist(), cols.addr.tolist(),
        cols.tid.tolist(),
    ):
        per_thread.setdefault(tid, []).append((kind, counter, addr))
    assert len(per_thread) == 6
    for events in per_thread.values():
        assert [(k, a) for k, _, a in events] == expected
        counters = [c for _, c, _ in events]
        assert counters == sorted(counters)


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
        hooks = LiveHooks(WriterPool(log, 1), PerfCounterClock())
        other.set_active(True)
        hooks.on_event(KIND_CALL, 0x1000)
        other.set_active(False)
        hooks.on_event(KIND_RET, 0x1000)
        assert len(log) == 1
        assert log.entry(0).addr == 0x1000
    finally:
        other.close()
        log.close(unlink=True)


# ----------------------------------------------------------------------
# The live hook against the per-event oracle


class _Script:
    """Scripted ticks, handed out one per read; counts the reads."""

    def __init__(self, ticks):
        self.ticks = ticks
        self.reads = 0

    def next(self):
        tick = self.ticks[self.reads % len(self.ticks)]
        self.reads += 1
        return tick

    def __getitem__(self, index):
        assert index == 0
        return self.next()


class _WordsCounter:
    """A counter read inline, like ProcessCounter: ``words[0]``."""

    def __init__(self, ticks):
        self.words = self.script = _Script(ticks)

    def start(self):
        pass

    def stop(self):
        pass


class _ReadCounter:
    """A counter read through ``read()``, like PerfCounterClock."""

    def __init__(self, ticks):
        self.script = _Script(ticks)
        self.read = self.script.next

    def start(self):
        pass

    def stop(self):
        pass


class _AppendOracle:
    """Hooks that append every event the flags admit, one
    ``SharedLog.append`` each, taking a tick only for those."""

    def __init__(self, log, script):
        self.log = log
        self.script = script
        self.tid = threading.get_native_id()

    def on_event(self, kind, addr):
        log = self.log
        if log.active and log.measures(kind):
            log.append(kind, self.script.next(), addr, self.tid)

    def flush(self):
        pass


class _Boom(Exception):
    pass


_FUNCS = 4


def _make_program(state):
    """Instrumented f0..f3, each running one node of a call tree.

    A node is ``(fn, actions)``; an action calls a child node, flips
    ACTIVE, or sets the event mask on ``state["log"]``.  The node
    visited ``state["raise_at"]``-th (preorder) raises after its
    actions, through all its callers.
    """
    module = types.ModuleType("live_oracle_prog")

    def body(node):
        index = state["visited"]
        state["visited"] += 1
        for action in node[1]:
            if action[0] == "call":
                child = action[1]
                getattr(module, f"f{child[0]}")(child)
            elif action[0] == "active":
                state["log"].set_active(action[1])
            else:
                state["log"].set_event_mask(
                    calls=action[1], rets=action[2]
                )
        if index == state["raise_at"]:
            raise _Boom(index)

    for i in range(_FUNCS):
        def fn(node):
            return body(node)

        fn.__name__ = fn.__qualname__ = f"f{i}"
        fn.__module__ = module.__name__
        setattr(module, fn.__name__, fn)
    instrumenter = Instrumenter("oracle")
    instrumenter.instrument_module(module)
    return module, instrumenter.finish()


def _count_nodes(node):
    return 1 + sum(
        _count_nodes(a[1]) for a in node[1] if a[0] == "call"
    )


_FLIPS = st.one_of(
    st.tuples(st.just("active"), st.booleans()),
    st.tuples(st.just("mask"), st.booleans(), st.booleans()),
)
_FN = st.integers(min_value=0, max_value=_FUNCS - 1)
_TREES = st.recursive(
    st.tuples(_FN, st.lists(_FLIPS, max_size=2)),
    lambda children: st.tuples(
        _FN,
        st.lists(
            st.one_of(_FLIPS, children.map(lambda n: ("call", n))),
            max_size=4,
        ),
    ),
    max_leaves=16,
)


def _run(module, state, tree, log):
    state.update(log=log, visited=0)
    with pytest.raises(_Boom):
        getattr(module, f"f{tree[0]}")(tree)


@pytest.mark.parametrize("source", ["words", "read"])
@pytest.mark.parametrize("block", [0, 1, 3, 256])
@pytest.mark.parametrize(
    "version, sealed",
    [(VERSION, False), (VERSION, True), (VERSION_2, False),
     (VERSION_2, True)],
    ids=["rev1.0", "rev1.1", "v2", "v2-sealed"],
)
@settings(max_examples=25, deadline=None)
@given(
    tree=_TREES,
    raise_pick=st.integers(min_value=0, max_value=1 << 16),
    ticks=st.lists(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        min_size=1,
        max_size=8,
    ),
    capacity=st.integers(min_value=1, max_value=40),
)
def test_live_hook_matches_per_event_append(
    source, block, version, sealed, tree, raise_pick, ticks, capacity
):
    """The thread's live hook leaves the log image and drop count that
    per-event ``SharedLog.append`` leaves over the events the flags
    admitted — with ACTIVE and the mask flipping between events, a
    call raising through its callers, a log that may overflow, ticks
    over the whole 64-bit range, and either tick source.  Events the
    flags drop read no tick."""
    state = {"raise_at": raise_pick % _count_nodes(tree)}
    module, program = _make_program(state)
    make_counter = _WordsCounter if source == "words" else _ReadCounter
    counter = make_counter(ticks)
    recorder = LiveRecorder(
        program, capacity=capacity, counter=counter, version=version,
        writer_block=block, sealed=sealed,
    )
    recorder.start()
    _run(module, state, tree, recorder.log)
    recorder.stop()
    live = recorder.log

    oracle = SharedLog.create(
        capacity, pid=recorder.pid,
        profiler_addr=recorder.loaded.profiler_addr, version=version,
        sealed=sealed,
    )
    script = _Script(ticks)
    program.hooks.arm(_AppendOracle(oracle, script), recorder.loaded.offset)
    oracle.set_active(True)
    _run(module, state, tree, oracle)
    oracle.set_active(False)
    program.hooks.disarm()
    oracle._store_tail()
    if sealed:
        oracle.seal_remainder()
    program.restore_all()

    array_end = HEADER_SIZE + capacity * live.entry_size
    assert live.to_bytes()[:array_end] == oracle.to_bytes()[:array_end]
    assert live.dropped == oracle.dropped
    assert counter.script.reads == script.reads == len(oracle) + oracle.dropped
    if sealed:
        # Seals fall per committed block, not per recording; together
        # they cover the same entries.
        assert live._sealed_intervals == oracle._sealed_intervals
    else:
        assert live.to_bytes() == oracle.to_bytes()


def test_live_call_adds_one_frame_between_caller_and_callee():
    """Under a live recording an instrumented call runs one extra
    frame, the wrapper — the hooks return before the callee starts, so
    the recursion headroom equals the pass-through wrapper's."""
    module = types.ModuleType("live_depth")

    def depth():
        frame, count = sys._getframe(1), 0
        while frame is not None:
            count += 1
            frame = frame.f_back
        return count

    def callee():
        return depth()

    callee.__module__ = module.__name__
    module.callee = callee
    seen = {}

    def driver():
        seen["caller"] = depth()
        seen["callee"] = module.callee()

    perf = TEEPerf.live(name="live-depth")
    perf.compile_module(module)
    try:
        perf.record(driver)
    finally:
        perf.uninstrument()
    assert perf.events_recorded() == 2
    assert seen["callee"] == seen["caller"] + 2  # the wrapper + callee
