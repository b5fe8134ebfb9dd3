"""Unit tests for the Figure-2 log format."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import SharedLog
from repro.core import (
    ENTRY_SIZE,
    HEADER_SIZE,
    KIND_CALL,
    KIND_RET,
    ThreadLogWriter,
)
from repro.core.errors import LogFormatError
from repro.core.log import VERSION
from tests.oracles.per_event import append


def test_create_sets_header_fields():
    log = SharedLog.create(100, pid=77, profiler_addr=0x401000)
    assert log.capacity == 100
    assert log.pid == 77
    assert log.profiler_addr == 0x401000
    assert log.version == VERSION
    assert log.multithread
    assert not log.active
    assert log.tail == 0


def test_buffer_is_header_plus_entries():
    log = SharedLog.create(10)
    assert len(log.to_bytes()) == HEADER_SIZE + 10 * ENTRY_SIZE


def test_append_and_decode_roundtrip():
    log = SharedLog.create(10)
    assert append(log, KIND_CALL, 123456, 0x401234, 7)
    assert append(log, KIND_RET, 123999, 0x401234, 7)
    first, second = list(log)
    assert first.is_call and not first.is_ret
    assert first.counter == 123456
    assert first.addr == 0x401234
    assert first.tid == 7
    assert second.is_ret
    assert second.counter == 123999


def test_full_log_drops_and_counts():
    log = SharedLog.create(2)
    writer = ThreadLogWriter(log, 1)  # blocks of one: the per-event case
    for counter in (1, 2, 3):
        writer.append(KIND_CALL, counter, 0x400000, 1)
    assert (writer.flushed, writer.dropped) == (2, 1)
    assert log.dropped == 1
    assert len(log) == 2


def test_active_flag_gates_nothing_here_but_flips_atomically():
    log = SharedLog.create(4)
    log.set_active(True)
    assert log.active
    log.set_active(False)
    assert not log.active
    # Version survives flag flips (it shares the header word).
    assert log.version == VERSION


def test_dump_load_roundtrip(tmp_path):
    log = SharedLog.create(8, pid=9, profiler_addr=0xABCD)
    append(log, KIND_CALL, 10, 0x400100, 3)
    append(log, KIND_RET, 20, 0x400100, 3)
    path = tmp_path / "run.teeperf"
    log.dump(path)
    loaded = SharedLog.load(str(path))
    assert loaded.pid == 9
    assert loaded.profiler_addr == 0xABCD
    assert loaded.tail == 2
    assert [e.counter for e in loaded] == [10, 20]


def test_loaded_log_can_keep_appending(tmp_path):
    log = SharedLog.create(4)
    append(log, KIND_CALL, 1, 0x400000, 1)
    reloaded = SharedLog.from_bytes(log.to_bytes())
    append(reloaded, KIND_RET, 2, 0x400000, 1)
    assert [e.kind for e in reloaded] == [KIND_CALL, KIND_RET]


def test_bad_magic_rejected():
    with pytest.raises(LogFormatError):
        SharedLog.from_bytes(b"\x00" * 256)


def test_truncated_buffer_rejected():
    with pytest.raises(LogFormatError):
        SharedLog.from_bytes(b"\x00" * 16)


def test_nonpositive_capacity_rejected():
    with pytest.raises(ValueError):
        SharedLog.create(0)


def test_entry_index_out_of_range():
    log = SharedLog.create(4)
    append(log, KIND_CALL, 1, 2, 3)
    with pytest.raises(IndexError):
        log.entry(1)


def test_counter_value_packs_63_bits():
    log = SharedLog.create(2)
    huge = (1 << 63) - 1
    append(log, KIND_RET, huge, 0, 0)
    entry = log.entry(0)
    assert entry.counter == huge
    assert entry.is_ret


def test_set_profiler_addr_and_pid_late():
    log = SharedLog.create(2)
    log.set_profiler_addr(0x1234)
    log.set_pid(99)
    assert log.profiler_addr == 0x1234
    assert log.pid == 99


@given(
    kind=st.sampled_from([KIND_CALL, KIND_RET]),
    counter=st.integers(min_value=0, max_value=(1 << 63) - 1),
    addr=st.integers(min_value=0, max_value=(1 << 64) - 1),
    tid=st.integers(min_value=0, max_value=(1 << 64) - 1),
)
def test_entry_roundtrip_property(kind, counter, addr, tid):
    log = SharedLog.create(1)
    append(log, kind, counter, addr, tid)
    entry = log.entry(0)
    assert entry.kind == kind
    assert entry.counter == counter
    assert entry.addr == addr
    assert entry.tid == tid


@given(n=st.integers(min_value=1, max_value=200), cap=st.integers(1, 50))
def test_never_exceeds_capacity(n, cap):
    log = SharedLog.create(cap)
    written = sum(bool(append(log, KIND_CALL, i, i, 0)) for i in range(n))
    assert written == min(n, cap)
    assert len(log) == min(n, cap)
    assert log.dropped == max(0, n - cap)
