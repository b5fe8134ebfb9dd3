"""The record path: ThreadLogWriter vs the per-event reference.

The differential oracle of the block-reservation work: for any
single-thread event sequence, the batched writer must produce a log
image *byte-identical* to the per-event reference in
``tests/oracles/per_event.py`` (one reserved slot per event, packed
with ``struct``) — same header words (tail included), same entry
bytes.  On top of that, drop accounting at the capacity boundary must
stay exact (surrendered tail slots are events, counted once), and
ACTIVE/event-mask flips landing between a block's staging and its
flush must follow the documented contract: the hook decides at
staging time, staged events always commit, later events see the new
flags.
"""

import itertools
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SharedLog
from repro.core import KIND_CALL, KIND_RET, ThreadLogWriter
from repro.core.log import VERSION_2
from tests.oracles.per_event import append


def make_pair(capacity=64, version=None):
    kwargs = {"version": version} if version is not None else {}
    return (
        SharedLog.create(capacity, **kwargs),
        SharedLog.create(capacity, **kwargs),
    )


def replay(events, baseline, batched, block):
    """Feed `events` through the per-event reference and a batched
    writer, and flush the writer."""
    writer = ThreadLogWriter(batched, block=block)
    for kind, counter, addr, tid in events:
        append(baseline, kind, counter, addr, tid)
        writer.append(kind, counter, addr, tid)
    writer.flush()
    baseline._store_tail()
    batched._store_tail()
    return writer


EVENTS = [
    (KIND_CALL, 10, 0x1000, 7),
    (KIND_CALL, 20, 0x1040, 7),
    (KIND_RET, 35, 0x1040, 7),
    (KIND_CALL, 40, 0x1080, 7),
    (KIND_RET, 55, 0x1080, 7),
    (KIND_RET, 60, 0x1000, 7),
]


@pytest.mark.parametrize("block", [1, 2, 3, 256])
@pytest.mark.parametrize("version", [None, VERSION_2])
def test_batched_image_is_byte_identical(block, version):
    baseline, batched = make_pair(version=version)
    replay(EVENTS, baseline, batched, block)
    assert batched.to_bytes() == baseline.to_bytes()


@settings(max_examples=50, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.sampled_from([KIND_CALL, KIND_RET]),
            # The whole u64 range: COUNTER_MASK and the kind bit must
            # hold on the batched path too.
            st.integers(min_value=0, max_value=(1 << 64) - 1),
            st.integers(min_value=0, max_value=1 << 40),
            st.integers(min_value=1, max_value=5),
        ),
        max_size=40,
    ),
    block=st.integers(min_value=1, max_value=9),
    capacity=st.integers(min_value=1, max_value=24),
)
def test_batched_image_property(events, block, capacity):
    """Byte identity holds for arbitrary sequences — including ones
    that overflow `capacity` — and so does the drop count."""
    baseline, batched = make_pair(capacity=capacity)
    writer = replay(events, baseline, batched, block)
    assert batched.to_bytes() == baseline.to_bytes()
    assert batched.dropped == baseline.dropped
    assert writer.flushed + writer.dropped == len(events)


# ----------------------------------------------------------------------
# Drop accounting at the capacity boundary


def test_straddling_block_surrenders_tail_slots_exactly():
    """A flush whose reservation straddles capacity commits the head
    of the block and counts the tail as dropped — nothing more."""
    log = SharedLog.create(10)
    writer = ThreadLogWriter(log, block=8)
    for i in range(16):  # two blocks of 8 against capacity 10
        writer.append(KIND_CALL, i, 0x1000, 1)
    writer.flush()
    assert writer.flushed == 10
    assert writer.dropped == 6
    assert log.dropped == 6
    assert len(log) == 10
    assert [e.counter for e in log] == list(range(10))


def test_block_entirely_past_capacity_drops_whole_block():
    log = SharedLog.create(4)
    writer = ThreadLogWriter(log, block=4)
    for i in range(12):
        writer.append(KIND_CALL, i, 0x1000, 1)
    writer.flush()
    assert writer.flushed == 4
    assert writer.dropped == 8
    assert log.dropped == 8
    assert len(log) == 4


def test_reserve_block_contract():
    log = SharedLog.create(10)
    assert log.reserve_block(4) == (0, 4)
    assert log.reserve_block(8) == (4, 6)  # straddles: 6 granted
    assert log.reserve_block(3) == (12, 0)  # past the end
    # reserve_block never counts drops itself — the caller does.
    assert log.dropped == 0
    with pytest.raises(ValueError):
        log.reserve_block(0)


def test_writer_drops_feed_pipeline_stats():
    """Surrendered slots land in the recorder's dropped counter and
    the blocks-flushed observability counter."""
    from repro.api import TEEPerf
    from repro.core import symbol

    class App:
        @symbol("app::Main()")
        def main(self):
            for _ in range(8):
                self.step()

        @symbol("app::Step()")
        def step(self):
            pass

    perf = TEEPerf.live(capacity=8, writer_block=4)
    app = App()
    perf.compile_instance(app)
    perf.record(app.main)
    try:
        stats = perf.recorder.pipeline_stats()
    finally:
        perf.uninstrument()
    # 18 events against capacity 8: 10 dropped, exactly as the
    # per-event path reports (test_recorder_stats_thread_through_facade).
    assert stats.entries_recorded == 8
    assert stats.entries_dropped == 10
    assert stats.blocks_flushed > 0
    assert stats.writer_block == 4


# ----------------------------------------------------------------------
# Flag flips between staging and flush


def test_event_mask_checked_at_staging_time():
    """The hook decides at staging time: a mask flip after events are
    staged affects later events only (a masked one reads no tick),
    and the already-staged ones still commit at flush."""
    log = SharedLog.create(16)
    log.set_active(True)
    writer = ThreadLogWriter(log, block=8)
    on_event = writer.make_hook(1, SimpleNamespace(
        read=itertools.count(1).__next__
    ))
    on_event(KIND_CALL, 0x1000)
    on_event(KIND_RET, 0x1000)
    log.set_event_mask(calls=False, rets=True)
    on_event(KIND_CALL, 0x1040)  # filtered now
    on_event(KIND_RET, 0x1040)
    assert writer.pending == 3
    log.set_event_mask(calls=True, rets=True)
    writer.flush()
    assert [(e.kind, e.counter, e.addr) for e in log] == [
        (KIND_CALL, 1, 0x1000),
        (KIND_RET, 2, 0x1000),
        (KIND_RET, 3, 0x1040),
    ]


def test_active_flip_between_staging_and_flush_commits_staged():
    """ACTIVE is the hooks' gate, not the writer's: deactivating after
    staging does not un-stage — flush commits what was accepted."""
    log = SharedLog.create(16)
    log.set_active(True)
    writer = ThreadLogWriter(log, block=8)
    writer.append(KIND_CALL, 1, 0x1000, 1)
    writer.append(KIND_RET, 2, 0x1000, 1)
    log.set_active(False)
    assert writer.pending == 2
    writer.flush()
    assert writer.pending == 0
    assert len(log) == 2
    assert [e.counter for e in log] == [1, 2]


def test_partial_block_flushes_on_close_and_context_exit():
    log = SharedLog.create(16)
    with ThreadLogWriter(log, block=100) as writer:
        writer.append(KIND_CALL, 5, 0x1000, 1)
        assert writer.pending == 1
        assert len(log) == 0  # nothing committed yet
    assert writer.pending == 0
    assert len(log) == 1


def test_writer_rejects_bad_block():
    log = SharedLog.create(4)
    with pytest.raises(ValueError):
        ThreadLogWriter(log, block=0)


# ----------------------------------------------------------------------
# Multi-thread: per-thread order survives batching


def test_per_thread_order_preserved_under_concurrency():
    log = SharedLog.create(1 << 14)
    per_thread = 500

    def run(tid):
        with ThreadLogWriter(log, block=16) as writer:
            for i in range(per_thread):
                writer.append(KIND_CALL, i, 0x1000 + tid, tid)

    threads = [
        threading.Thread(target=run, args=(tid,)) for tid in (1, 2, 3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    log._store_tail()
    seen = {1: [], 2: [], 3: []}
    for entry in log:
        seen[entry.tid].append(entry.counter)
    for tid, counters in seen.items():
        assert counters == list(range(per_thread)), f"thread {tid}"
    assert log.dropped == 0


def test_recorder_flush_on_stop_and_persist(tmp_path):
    """Staged blocks are committed by stop and persist — the recorder
    never strands accepted events in a staging buffer."""
    from repro.api import TEEPerf
    from repro.core import symbol

    class App:
        @symbol("app::Main()")
        def main(self):
            self.step()

        @symbol("app::Step()")
        def step(self):
            pass

    perf = TEEPerf.live(capacity=64, writer_block=1024)
    app = App()
    perf.compile_instance(app)
    perf.record(app.main)  # stop() runs inside record's context manager
    try:
        assert perf.recorder.events_recorded() == 4
        path = tmp_path / "run.teeperf"
        perf.persist(str(path), image_path=False)
        assert len(SharedLog.load(str(path))) == 4
    finally:
        perf.uninstrument()
