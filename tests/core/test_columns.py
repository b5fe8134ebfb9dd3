"""The columnar decode path: LogColumns / decode_columns / open_log.

The bulk reader must agree entry-for-entry with the object-at-a-time
decode on every log shape and — when fed from a file mapped as a
LogStream — never pin the mapping (columns are copies there, so
``close`` always succeeds).
"""

import pytest

from repro.api import SharedLog, open_log
from repro.core import HEADER_SIZE, KIND_CALL, KIND_RET, LogStream
from repro.core.columnar import ColumnarLog, encode_log
from repro.core.log import VERSION_2
from tests.oracles.batch import read_entries
from tests.oracles.per_event import append


def sample_log(version=None, n=10):
    kwargs = {"version": version} if version is not None else {}
    log = SharedLog.create(64, **kwargs)
    for i in range(n):
        kind = KIND_CALL if i % 2 == 0 else KIND_RET
        append(log, kind, i * 3, 0x1000 + i * 16, 1 + i % 3, call_site=i)
    log._store_tail()
    return log


@pytest.mark.parametrize("version", [None, VERSION_2])
def test_columns_match_entry_decode(version):
    log = sample_log(version)
    cols = log.columns()
    assert len(cols) == len(log)
    expected = read_entries(log)
    assert cols.entries() == expected
    kinds, counters, addrs, tids, call_sites = cols.as_lists()
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
    assert flattened == read_entries(log)
    with pytest.raises(ValueError):
        list(log.iter_column_chunks(0))


def test_kind_bit_survives_large_counters():
    """The kind bit (bit 63) must split cleanly from 63-bit counters."""
    log = SharedLog.create(8)
    big = (1 << 63) - 1
    append(log, KIND_RET, big, 0xAAAA, 9)
    append(log, KIND_CALL, big - 1, 0xBBBB, 9)
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
    held = list(stream.iter_column_chunks(3))  # survive close on purpose
    whole = stream.columns()
    stream.close()  # must not raise "exported pointers exist"
    flattened = [e for s in held for e in s.entries()]
    assert flattened == read_entries(log)
    assert whole.entries() == read_entries(log)


def test_open_log_maps_files_and_wraps_buffers_in_place(tmp_path):
    """Every file is mapped, whatever its size: fixed-width opens as a
    LogStream, rev 1.2 as a ColumnarLog.  A buffer is wrapped in
    place, so a byte flipped in it after open_log shows in the reader;
    an open reader comes back as it is."""
    log = sample_log()
    fixed = tmp_path / "run.teeperf"
    log.dump(str(fixed))
    compressed = tmp_path / "run.tpc"
    compressed.write_bytes(encode_log(log, sort_by_thread=False))
    with open_log(str(fixed)) as stream:
        assert isinstance(stream, LogStream)
        assert list(stream) == read_entries(log)
    with open_log(compressed) as col:
        assert isinstance(col, ColumnarLog)
        assert list(col) == read_entries(log)
    data = bytearray(log.to_bytes())
    wrapped = open_log(data)
    assert wrapped.entry(0).addr == 0x1000
    data[HEADER_SIZE + 8] ^= 0x01  # low byte of entry 0's address
    assert wrapped.entry(0).addr == 0x1001
    assert open_log(wrapped) is wrapped
    with pytest.raises(TypeError):
        open_log(42)
