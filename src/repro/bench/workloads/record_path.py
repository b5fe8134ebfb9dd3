"""Record-path measurement core: batched write and columnar decode
against faithful reconstructions of the pre-batching code.

The reconstructions (:class:`LegacyLog`, :func:`legacy_decode`) are
the seed's hot path, byte for byte in behaviour: the header flags are
re-read through ``struct.unpack_from`` on *every* event (no memoryview
cast, no mirror), reservation is one fetch-and-add per event, and each
entry is packed individually; decoding materialises one ``LogEntry``
per entry.  They are kept here, frozen, precisely so the speedup
floors keep meaning after the library moves on.  **Do not "fix" this
code — its slowness is the measurement.**
"""

import itertools
import struct
import time

import numpy as _np

from repro.api import SharedLog
from repro.core import KIND_CALL, ThreadLogWriter
from repro.core.log import (
    COUNTER_MASK,
    ENTRY_SIZE_V2,
    FLAG_MASK_CALLS,
    FLAG_MASK_RETS,
    HEADER_SIZE,
    LogEntry,
    _ENTRY,
    _ENTRY_V2,
    _KIND_BIT,
    decode_columns,
)

from repro.bench.timing import best_of

__all__ = [
    "LegacyLog",
    "bench_decode",
    "bench_write",
    "build_event_columns",
    "codec_sizes",
    "decode_sample",
    "legacy_decode",
    "write_sample",
    "zero_copy_sample",
]

#: acceptance floors (ISSUE 3): batched write path >= 3x events/sec,
#: columnar bulk decode >= 5x, both against the pre-batching baseline.
WRITE_FLOOR = 3.0
DECODE_FLOOR = 5.0

#: acceptance floors (ISSUE 8): the bulk zero-copy column path
#: >= 10x events/sec over the frozen per-event baseline, and rev 1.2
#: columnar images >= 3x smaller than the fixed-width rev 1.1 bytes
#: on the standard workload.
ZERO_COPY_FLOOR = 10.0
CODEC_RATIO_FLOOR = 3.0


class LegacyLog:
    """Per-event append exactly as the pre-batching SharedLog did it."""

    def __init__(self, capacity, entry_size=24):
        self._buf = bytearray(HEADER_SIZE + capacity * entry_size)
        struct.pack_into("<Q", self._buf, 8, 0xF)  # ACTIVE | both masks
        self._capacity = capacity
        self._entry_size = entry_size
        self._reservations = itertools.count(0)
        self.dropped = 0

    def _word(self, index):
        return struct.unpack_from("<Q", self._buf, index * 8)[0]

    @property
    def flags(self):
        return self._word(1) & 0xFFFF

    def measures(self, kind):
        flag = FLAG_MASK_CALLS if kind == KIND_CALL else FLAG_MASK_RETS
        return bool(self.flags & flag)

    def try_reserve(self):
        index = next(self._reservations)
        if index >= self._capacity:
            self.dropped += 1
            return None
        return index

    def write_entry(self, index, kind, counter, addr, tid, call_site=0):
        word0 = (counter & COUNTER_MASK) | (_KIND_BIT if kind else 0)
        offset = HEADER_SIZE + index * self._entry_size
        if self._entry_size == ENTRY_SIZE_V2:
            _ENTRY_V2.pack_into(
                self._buf, offset, word0, addr, tid, call_site
            )
        else:
            _ENTRY.pack_into(self._buf, offset, word0, addr, tid)

    def append(self, kind, counter, addr, tid, call_site=0):
        if not self.measures(kind):
            return False
        index = self.try_reserve()
        if index is None:
            return False
        self.write_entry(index, kind, counter, addr, tid, call_site)
        return True


def legacy_decode(buf, count, entry_size=24):
    """One ``unpack_from`` and one LogEntry per entry — the pre-PR
    reader that columnar decode replaced."""
    entries = []
    add = entries.append
    offset = HEADER_SIZE
    if entry_size == ENTRY_SIZE_V2:
        for _ in range(count):
            word0, addr, tid, call_site = _ENTRY_V2.unpack_from(
                buf, offset
            )
            add(LogEntry(word0 >> 63, word0 & COUNTER_MASK, addr, tid,
                         call_site))
            offset += entry_size
    else:
        for _ in range(count):
            word0, addr, tid = _ENTRY.unpack_from(buf, offset)
            add(LogEntry(word0 >> 63, word0 & COUNTER_MASK, addr, tid))
            offset += entry_size
    return entries


def _legacy_write(n_events):
    log = LegacyLog(n_events)
    append = log.append
    for i in range(n_events):
        append(KIND_CALL, i, 0x400000, 7)


def _batched_write(n_events):
    log = SharedLog.create(n_events)
    with ThreadLogWriter(log) as writer:
        append = writer.append
        for i in range(n_events):
            append(KIND_CALL, i, 0x400000, 7)


def write_sample(n_events, inner=2):
    """One paired measurement of the write path.

    Times the legacy per-event append and the batched
    :class:`ThreadLogWriter` back to back — best-of-``inner`` each, so
    additive one-off noise (allocation, paging) cancels out of the
    ratio — and returns ``(t_legacy, t_batched)``.  Pairing inside one
    sample means host noise hits both sides roughly equally, so the
    speedup *ratio* is the stable quantity the harness collects;
    run-to-run variance still shows up across repetitions.
    """
    t_legacy = best_of(lambda: _legacy_write(n_events), inner)
    t_batched = best_of(lambda: _batched_write(n_events), inner)
    return t_legacy, t_batched


def build_event_columns(n_events):
    """The write benchmark's event mix, prebuilt as columns — what a
    columnar producer (the fleet ingest path, a simulator batch)
    already holds before the write."""
    return (
        _np.zeros(n_events, dtype=_np.uint64),  # KIND_CALL
        _np.arange(n_events, dtype=_np.uint64),
        _np.full(n_events, 0x400000, dtype=_np.uint64),
        _np.full(n_events, 7, dtype=_np.uint64),
    )


def _zero_copy_write(n_events, columns):
    log = SharedLog.create(n_events)
    committed = log.append_columns(*columns)
    assert committed == n_events


def zero_copy_sample(n_events, columns, inner=2):
    """One paired measurement of the bulk zero-copy write path.

    Times the frozen legacy per-event append against
    :meth:`SharedLog.append_columns` writing the same events from
    prebuilt columns (one reservation, one vectorised blit — no
    per-event Python work at all); returns ``(t_legacy, t_bulk)``.
    """
    t_legacy = best_of(lambda: _legacy_write(n_events), inner)
    t_bulk = best_of(lambda: _zero_copy_write(n_events, columns), inner)
    return t_legacy, t_bulk


def codec_sizes(log):
    """``(fixed_width_bytes, rev12_bytes)`` for one log, with the
    entry-exact round trip asserted outside any timed region."""
    from repro.core.columnar import ColumnarLog, encode_log

    raw = log.to_bytes()
    image = encode_log(log)
    assert len(ColumnarLog(image)) == len(log)
    return len(raw), len(image)


def build_filled_log(n_entries):
    """A full in-memory log with the decode benchmark's entry mix."""
    i = _np.arange(n_entries, dtype=_np.uint64)
    log = SharedLog.create(n_entries)
    log.append_columns(i & 1, i * 3, 0x400000 + i, 1 + i % 4)  # odd: RET
    log._store_tail()
    return log


def decode_sample(buf, version, n_entries):
    """One paired measurement of the decode path; ``(t_legacy,
    t_columnar)``.  Both sides must decode every entry (asserted)."""
    start = time.perf_counter()
    n_legacy = len(legacy_decode(buf, n_entries))
    t_legacy = time.perf_counter() - start
    start = time.perf_counter()
    n_columnar = len(decode_columns(buf, version, 0, n_entries))
    t_columnar = time.perf_counter() - start
    assert n_legacy == n_entries and n_columnar == n_entries
    return t_legacy, t_columnar


def bench_write(n_events, repeats):
    """events/sec: legacy per-event append vs batched ThreadLogWriter
    (best-of-``repeats``, the standalone scripts' point estimate)."""
    t_legacy = best_of(lambda: _legacy_write(n_events), repeats)
    t_batched = best_of(lambda: _batched_write(n_events), repeats)
    return {
        "events": n_events,
        "legacy_events_per_sec": n_events / t_legacy,
        "batched_events_per_sec": n_events / t_batched,
        "legacy_ns_per_event": t_legacy / n_events * 1e9,
        "batched_ns_per_event": t_batched / n_events * 1e9,
        "speedup": t_legacy / t_batched,
        "floor": WRITE_FLOOR,
    }


def bench_decode(n_entries, repeats):
    """entries/sec: per-entry LogEntry decode vs columnar bulk decode
    (best-of-``repeats``)."""
    log = build_filled_log(n_entries)
    buf = log.to_bytes()

    sink = []

    def legacy():
        sink.append(len(legacy_decode(buf, n_entries)))

    def columnar():
        sink.append(len(decode_columns(buf, log.version, 0, n_entries)))

    t_legacy = best_of(legacy, repeats)
    t_columnar = best_of(columnar, repeats)
    assert all(n == n_entries for n in sink)
    return {
        "entries": n_entries,
        "legacy_entries_per_sec": n_entries / t_legacy,
        "columnar_entries_per_sec": n_entries / t_columnar,
        "speedup": t_legacy / t_columnar,
        "floor": DECODE_FLOOR,
    }
