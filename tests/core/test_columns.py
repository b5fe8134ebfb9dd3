"""The columnar decode path: LogColumns / decode_columns / open_log.

The bulk reader must agree entry-for-entry with the object-at-a-time
decode on every log shape and — when fed from an mmap-backed
LogStream — never pin the mapping (columns are copies there, so
``close`` always succeeds).
"""

import pytest

from repro.api import SharedLog, open_log
from repro.core import DEFAULT_MMAP_THRESHOLD, KIND_CALL, KIND_RET, LogStream
from repro.core.log import VERSION_2


def sample_log(version=None, n=10):
    kwargs = {"version": version} if version is not None else {}
    log = SharedLog.create(64, **kwargs)
    for i in range(n):
        kind = KIND_CALL if i % 2 == 0 else KIND_RET
        log.append(kind, i * 3, 0x1000 + i * 16, 1 + i % 3, call_site=i)
    log._store_tail()
    return log


@pytest.mark.parametrize("version", [None, VERSION_2])
def test_columns_match_entry_decode(version):
    log = sample_log(version)
    cols = log.columns()
    assert len(cols) == len(log)
    assert cols.entries() == list(log)
    kinds, counters, addrs, tids, call_sites = cols.as_lists()
    expected = list(log)
    assert kinds == [e.kind for e in expected]
    assert counters == [e.counter for e in expected]
    assert addrs == [e.addr for e in expected]
    assert tids == [e.tid for e in expected]
    if version == VERSION_2:
        assert call_sites == [e.call_site for e in expected]
    else:
        assert call_sites is None


def test_columns_are_plain_ints():
    """as_lists yields Python ints — consumers hash/compare them
    against LogEntry fields without numpy scalar surprises."""
    cols = sample_log().columns()
    kinds, counters, addrs, tids, _ = cols.as_lists()
    for lst in (kinds, counters, addrs, tids):
        assert all(type(x) is int for x in lst)


def test_counter_bounds_and_empty_span():
    log = sample_log(n=5)
    assert log.columns().counter_bounds() == (0, 12)
    empty = SharedLog.create(4)
    assert empty.columns().counter_bounds() is None
    assert len(empty.columns()) == 0
    assert empty.columns().entries() == []


def test_column_chunks_cover_log_in_order():
    log = sample_log(n=10)
    spans = list(log.iter_column_chunks(4))
    assert [len(s) for s in spans] == [4, 4, 2]
    assert [s.start for s in spans] == [0, 4, 8]
    flattened = [e for s in spans for e in s.entries()]
    assert flattened == list(log)
    with pytest.raises(ValueError):
        list(log.iter_column_chunks(0))


def test_kind_bit_survives_large_counters():
    """The kind bit (bit 63) must split cleanly from 63-bit counters."""
    log = SharedLog.create(8)
    big = (1 << 63) - 1
    log.append(KIND_RET, big, 0xAAAA, 9)
    log.append(KIND_CALL, big - 1, 0xBBBB, 9)
    cols = log.columns()
    kinds, counters, _, _, _ = cols.as_lists()
    assert kinds == [KIND_RET, KIND_CALL]
    assert counters == [big, big - 1]


# ----------------------------------------------------------------------
# LogStream columns and open_log


def test_stream_columns_do_not_pin_the_mmap(tmp_path):
    log = sample_log(VERSION_2)
    path = tmp_path / "run.teeperf"
    log.dump(str(path))
    stream = LogStream.open(str(path))
    held = list(stream.column_chunks(3))  # survive close on purpose
    whole = stream.columns()
    stream.close()  # must not raise "exported pointers exist"
    flattened = [e for s in held for e in s.entries()]
    assert flattened == list(log)
    assert whole.entries() == list(log)


def test_open_log_picks_by_size(tmp_path):
    log = sample_log()
    small = tmp_path / "small.teeperf"
    log.dump(str(small))
    opened = open_log(str(small))
    assert isinstance(opened, SharedLog)
    streamed = open_log(str(small), mmap_threshold=0)
    try:
        assert isinstance(streamed, LogStream)
        assert list(streamed) == list(log)
    finally:
        streamed.close()
    assert small.stat().st_size < DEFAULT_MMAP_THRESHOLD


def test_open_log_threshold_boundary(tmp_path):
    log = sample_log()
    path = tmp_path / "run.teeperf"
    log.dump(str(path))
    size = path.stat().st_size
    at = open_log(str(path), mmap_threshold=size)
    try:
        assert isinstance(at, LogStream)  # >= threshold streams
    finally:
        at.close()
    assert isinstance(
        open_log(str(path), mmap_threshold=size + 1), SharedLog
    )
