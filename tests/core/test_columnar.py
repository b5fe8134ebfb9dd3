"""Rev 1.2 compressed columnar images: codec bijections, the
identity oracle, and block-exact salvage.

The contract under test (docs/log-format.md "Compressed columnar
images"):

* every column codec round-trips any u64 sequence exactly — empty
  streams, max-u64 values, non-monotonic regressions, single values
  (hypothesis, with the adversarial cases pinned as examples);
* ``decode(encode(log))`` is the *identity* on the entry sequence
  with ``sort_by_thread=False`` — whatever the block size, including
  single-entry blocks — and preserves per-thread order exactly under
  the default thread sort;
* the strict reader rejects damage with :class:`LogFormatError`,
  while salvage quarantines **exactly** the damaged block (reason
  ``crc-mismatch``) or the truncated tail, with
  ``salvaged + quarantined == tail`` in every case.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import SharedLog, recover_log
from repro.core import KIND_CALL, KIND_RET
from repro.core.columnar import (
    ColumnarLog,
    decode_delta,
    decode_dictionary,
    decode_log,
    decode_varint,
    encode_delta,
    encode_dictionary,
    encode_log,
    encode_varint,
)
from repro.core.errors import LogFormatError
from repro.core.recovery import REASON_CRC, REASON_TRUNCATED
from tests.oracles.batch import read_entries
from tests.oracles.per_event import append

U64_MAX = (1 << 64) - 1

u64 = st.integers(min_value=0, max_value=U64_MAX)
u64_lists = st.lists(u64, max_size=64)


# ---------------------------------------------------------------------------
# Column codecs are bijections on u64 sequences


@given(u64_lists)
@example([])  # the empty shard
@example([U64_MAX])  # single max-u64 value
@example([U64_MAX, 0, U64_MAX, 1])  # wraparound deltas both ways
def test_varint_roundtrip(values):
    assert list(decode_varint(encode_varint(values), len(values))) \
        == values


@given(u64_lists)
@example([])
@example([U64_MAX])  # max-u64 counter
@example([5, 4, 3, U64_MAX, 0])  # non-monotonic regressions
@example([0, U64_MAX, 0])  # full-range swings
def test_delta_roundtrip(values):
    assert list(decode_delta(encode_delta(values), len(values))) \
        == values


@given(u64_lists)
@example([])
@example([U64_MAX] * 3)
@example([7, 0, 7, U64_MAX, 0])
def test_dictionary_roundtrip(values):
    packed = encode_dictionary(values)
    assert list(decode_dictionary(packed, len(values))) == values
    # The alphabet is stored once: repeating a column barely grows it.
    if len(set(values)) == 1 and len(values) > 1:
        assert len(packed) < len(encode_varint(values)) + 32


def test_varint_stream_must_match_count_exactly():
    stream = encode_varint([1, 2, 3])
    with pytest.raises(LogFormatError):
        decode_varint(stream, 2)  # more values than claimed
    with pytest.raises(LogFormatError):
        decode_varint(stream, 4)  # fewer values than claimed
    with pytest.raises(LogFormatError):
        decode_varint(stream[:-1], 3)  # dangling continuation bit
    with pytest.raises(LogFormatError):
        decode_varint(b"\xff" * 11, 1)  # over-long varint


# ---------------------------------------------------------------------------
# Whole-image identity oracle


entry_lists = st.lists(
    st.tuples(
        st.integers(0, 1),  # kind
        st.integers(0, (1 << 63) - 1),  # counter (63-bit field)
        st.integers(0x1000, 0x1000 + 40),  # addr: small alphabet
        st.integers(0, 5),  # tid
    ),
    max_size=40,
)


def _fill(events, version=1):
    log = SharedLog.create(max(1, len(events)), version=version)
    for kind, counter, addr, tid in events:
        append(log, kind, counter, addr, tid)
    log._store_tail()
    return log


@settings(deadline=None, max_examples=40)
@given(entry_lists, st.sampled_from([1, 3, 65536]))
@example([], 1)  # empty shard
@example([(0, 5, 0x1000, 1)], 1)  # single-entry block
def test_identity_oracle(events, block_entries):
    """decode . encode == identity on the entry sequence, entry for
    entry, at every block size (1 == single-entry blocks)."""
    log = _fill(events)
    image = encode_log(
        log, block_entries=block_entries, sort_by_thread=False
    )
    col = ColumnarLog(image)
    assert len(col) == len(log)
    assert list(col) == read_entries(log)
    # The convert-back path restores a fixed-width log with the same
    # entries and header identity.
    back = decode_log(image)
    assert read_entries(back) == read_entries(log)
    assert (back.version, back.pid, back.profiler_addr) == (
        log.version, log.pid, log.profiler_addr
    )


@settings(deadline=None, max_examples=25)
@given(entry_lists)
def test_thread_sort_preserves_per_thread_order(events):
    log = _fill(events)
    col = ColumnarLog(encode_log(log, sort_by_thread=True))
    for tid in {e[3] for e in events}:
        assert [e for e in col if e.tid == tid] == [
            e for e in read_entries(log) if e.tid == tid
        ]


def test_v2_call_sites_roundtrip():
    log = SharedLog.create(8, version=2)
    for i in range(8):
        append(log, KIND_CALL, i, 0x2000 + i, 1, call_site=0x9000 + i)
    log._store_tail()
    col = ColumnarLog(encode_log(log, sort_by_thread=False))
    assert col.version == 2 and col.entry_size == 32
    assert list(col) == read_entries(log)


def test_empty_log_roundtrip():
    log = SharedLog.create(4)
    image = encode_log(log)
    col = ColumnarLog(image)
    assert len(col) == 0 and col.block_count == 0
    assert list(col) == []
    assert len(col.columns()) == 0
    assert len(decode_log(image)) == 0


def test_single_entry_blocks_make_one_block_per_entry():
    log = _fill([(0, i, 0x1000, 1) for i in range(5)])
    col = ColumnarLog(encode_log(log, block_entries=1,
                                 sort_by_thread=False))
    assert col.block_count == 5
    assert list(col) == read_entries(log)


def test_compression_on_the_call_return_shape():
    """The format's reason to exist: a plausible call/return log
    shrinks well past the gated 3x on fixed-width bytes."""
    log = SharedLog.create(4096)
    for i in range(2048):
        append(log, KIND_CALL, i * 3, 0x1000 + (i % 7) * 64, 1 + i % 4)
        append(log, KIND_RET, i * 3 + 1, 0x1000 + (i % 7) * 64,
                   1 + i % 4)
    log._store_tail()
    image = encode_log(log)
    assert len(log.to_bytes()) / len(image) >= 3.0


# ---------------------------------------------------------------------------
# Strict reading vs salvage of damaged images


def _blocked_image(n_blocks=3, per_block=100):
    events = [
        (i % 2, i, 0x1000 + (i % 5) * 64, 1)
        for i in range(n_blocks * per_block)
    ]
    log = _fill(events)
    return log, encode_log(
        log, block_entries=per_block, sort_by_thread=False
    )


def test_strict_reader_raises_on_crc_damage():
    log, image = _blocked_image()
    col = ColumnarLog(image)
    damaged = bytearray(image)
    damaged[col._blocks[1][0] + 5] ^= 0xFF
    with pytest.raises(LogFormatError, match="CRC mismatch"):
        list(ColumnarLog(bytes(damaged)))


def test_analyze_path_raises_on_crc_damage(tmp_path):
    """Read from a file, a damaged block raises the strict reader's
    error; closing the mapping while the traceback still views it
    must not turn that into a BufferError."""
    from repro.api import Analyzer
    from repro.symbols import BinaryImage

    _, image = _blocked_image()
    damaged = bytearray(image)
    damaged[ColumnarLog(image)._blocks[1][0] + 5] ^= 0xFF
    path = tmp_path / "damaged.teeperf"
    path.write_bytes(damaged)
    with pytest.raises(LogFormatError, match="salvage with"):
        Analyzer(BinaryImage("app")).analyze(str(path))


def test_corruption_quarantines_exactly_the_damaged_block():
    log, image = _blocked_image(n_blocks=3, per_block=100)
    col = ColumnarLog(image)
    damaged = bytearray(image)
    damaged[col._blocks[1][0] + 5] ^= 0xFF  # inside block 1's payload

    salvaged, report = recover_log(bytes(damaged))
    assert report.crc_failures == 1
    assert report.entries_salvaged == 200
    assert report.entries_quarantined == 100
    assert report.entries_salvaged + report.entries_quarantined \
        == report.tail  # nothing silently dropped
    [bad] = report.quarantined
    assert (bad.start, bad.count, bad.reason) == (100, 100, REASON_CRC)
    # Every healthy block survives verbatim — including the one
    # *after* the damage (payload_len lets the scan skip the wreck).
    entries = read_entries(log)
    assert read_entries(salvaged) == entries[:100] + entries[200:]


def test_truncation_quarantines_the_missing_tail():
    log, image = _blocked_image(n_blocks=3, per_block=100)
    col = ColumnarLog(image)
    # Cut mid-way through block 2's payload.
    cut = image[: col._blocks[2][0] + 10]

    salvaged, report = recover_log(cut)
    assert report.entries_salvaged == 200
    assert read_entries(salvaged) == read_entries(log)[:200]
    [tail] = report.quarantined
    assert (tail.start, tail.count, tail.reason) == (
        200, 100, REASON_TRUNCATED
    )
    assert report.entries_salvaged + report.entries_quarantined \
        == report.tail


def test_not_compressed_image_is_rejected():
    log = _fill([(0, 1, 0x1000, 1)])
    with pytest.raises(LogFormatError, match="FLAG_COMPRESSED"):
        ColumnarLog(log.to_bytes())
