"""Crash recovery: salvage analysis for damaged TEE-Perf logs.

The recorder lives outside the TEE precisely so the log survives an
application crash (paper §Recorder); this module is the reader-side
half of that promise.  Given a snapshot that may be truncated, torn
mid-entry, or corrupted after the fact — a buffer, or a file it maps
read-only rather than reading whole — :func:`recover_log` classifies
every byte of the entry array and rebuilds a clean log from the parts
that are provably (or plausibly) committed:

* **sealed logs** (``FLAG_SEALED``): a segment is *recovered* when its
  seal record's CRC32 still matches the bytes on disk; a segment whose
  CRC mismatches is quarantined (``crc-mismatch``); committed regions
  covered by no seal are quarantined (``unsealed``) unless they sit
  below the header's monotonic seal watermark, which vouches for the
  contiguous prefix even when a truncation ate the journal trailer;
* **unsealed logs**: every complete committed entry is salvaged
  structurally — exactly the prefix an undamaged reader would decode;
* in both cases a trailing partial entry is quarantined as
  ``torn-entry`` and entries the tail claims beyond the bytes present
  as ``truncated``.

Nothing is silently dropped: the :class:`RecoveryReport` lists every
quarantined range with its byte offsets, entry counts and reason code,
plus per-thread salvage counts and the four counters that flow into
:class:`repro.core.stats.PipelineStats` (``segments_sealed``,
``entries_salvaged``, ``entries_quarantined``, ``crc_failures``).

:func:`repair_tails` is a separate, explicitly requested pass
(``tee-perf recover --repair-tails``) that writes each thread's events
back balanced, with synthetic returns, by the same
:func:`~repro.core.reconstruct.balance` the analyzer applies to an
anomalous shard.  The analyzer's ``recover="auto"`` path does *not*
repair: it balances in memory and marks the frames it closes as
truncated, which keeps salvaged-prefix analysis byte-identical to
analysing the undamaged prefix.
"""

import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as _np

from repro.core.errors import LogFormatError, RecoveryError
from repro.core.log import (
    FLAG_MULTITHREAD,
    HEADER_SIZE,
    SharedLog,
    _map_file,
    _merge_intervals,
    _unmap,
    _validate_header,
    _VERSION_SHIFT,
    is_compressed_image,
)
from repro.core.reconstruct import balance

#: Valid ``recover=`` modes for :meth:`repro.core.analyzer.Analyzer.analyze`:
#: ``"off"`` trusts the log, ``"auto"`` salvages damage and analyses
#: what survives, ``"strict"`` raises :class:`RecoveryError` on any
#: quarantine or CRC failure.
RECOVER_MODES = ("off", "auto", "strict")

# Reason codes for quarantined ranges.
REASON_TORN = "torn-entry"
REASON_TRUNCATED = "truncated"
REASON_CRC = "crc-mismatch"
REASON_UNSEALED = "unsealed"


@dataclass(frozen=True)
class QuarantinedRange:
    """A contiguous region of the original image recovery refused.

    ``start``/``count`` are entry indices (``count`` can be 0 for
    stray in-flight bytes past the tail); ``byte_start``/``byte_end``
    locate the region in the original image.
    """

    start: int
    count: int
    byte_start: int
    byte_end: int
    reason: str


@dataclass
class RecoveryReport:
    """What salvage found, kept and quarantined."""

    sealed: bool = False
    capacity: int = 0
    tail: int = 0
    present: int = 0
    watermark: int = 0
    segments_sealed: int = 0  # seal records observed in the journal
    segments_recovered: int = 0  # of those, CRC-verified and salvaged
    entries_salvaged: int = 0
    entries_quarantined: int = 0
    crc_failures: int = 0
    tails_repaired: int = 0  # synthetic RETs added by repair_tails
    rets_dropped: int = 0  # unmatched RETs dropped by repair_tails
    salvaged_per_thread: dict = field(default_factory=dict)
    quarantined_per_thread: dict = field(default_factory=dict)
    quarantined: list = field(default_factory=list)

    @property
    def ok(self):
        """True when nothing was quarantined or CRC-failed."""
        return not self.entries_quarantined and not self.crc_failures \
            and not self.quarantined

    def counters(self):
        """The four counters PipelineStats carries."""
        return {
            "segments_sealed": self.segments_sealed,
            "entries_salvaged": self.entries_salvaged,
            "entries_quarantined": self.entries_quarantined,
            "crc_failures": self.crc_failures,
        }

    def to_dict(self):
        return {
            "sealed": self.sealed,
            "capacity": self.capacity,
            "tail": self.tail,
            "present": self.present,
            "watermark": self.watermark,
            "segments_sealed": self.segments_sealed,
            "segments_recovered": self.segments_recovered,
            "entries_salvaged": self.entries_salvaged,
            "entries_quarantined": self.entries_quarantined,
            "crc_failures": self.crc_failures,
            "tails_repaired": self.tails_repaired,
            "rets_dropped": self.rets_dropped,
            "salvaged_per_thread": dict(self.salvaged_per_thread),
            "quarantined_per_thread": dict(self.quarantined_per_thread),
            "quarantined": [
                {
                    "start": q.start,
                    "count": q.count,
                    "byte_start": q.byte_start,
                    "byte_end": q.byte_end,
                    "reason": q.reason,
                }
                for q in self.quarantined
            ],
        }

    def report(self):
        """A human-readable salvage summary."""
        lines = [
            "TEE-Perf recovery report",
            f"  log: {'sealed' if self.sealed else 'unsealed'}, "
            f"tail={self.tail}, present={self.present}, "
            f"capacity={self.capacity}, watermark={self.watermark}",
            f"  salvaged: {self.entries_salvaged} entries "
            f"({self.segments_recovered}/{self.segments_sealed} "
            f"sealed segments CRC-verified)",
            f"  quarantined: {self.entries_quarantined} entries in "
            f"{len(self.quarantined)} ranges, "
            f"crc failures: {self.crc_failures}",
        ]
        if self.tails_repaired or self.rets_dropped:
            lines.append(
                f"  repaired: {self.tails_repaired} synthetic RETs "
                f"added, {self.rets_dropped} unmatched RETs dropped"
            )
        for q in self.quarantined:
            lines.append(
                f"    [{q.start}, {q.start + q.count}) "
                f"bytes {q.byte_start}..{q.byte_end}: {q.reason}"
            )
        tids = set(self.salvaged_per_thread) | set(self.quarantined_per_thread)
        for tid in sorted(tids):
            lines.append(
                f"  thread {tid}: "
                f"{self.salvaged_per_thread.get(tid, 0)} salvaged, "
                f"{self.quarantined_per_thread.get(tid, 0)} quarantined"
            )
        return "\n".join(lines)


def _subtract(intervals, holes):
    """`intervals` minus `holes`, both sorted merged (start, end) lists."""
    out = []
    for start, end in intervals:
        cursor = start
        for hs, he in holes:
            if he <= cursor or hs >= end:
                continue
            if hs > cursor:
                out.append((cursor, hs))
            cursor = max(cursor, he)
            if cursor >= end:
                break
        if cursor < end:
            out.append((cursor, end))
    return out


def _coerce(source):
    """Normalise an in-memory log source for salvage, without copying.

    Fixed-width images come back as a tolerantly-parsed, *read-only*
    :class:`SharedLog` view over the caller's buffer (salvage never
    mutates its input — the rebuilt log is a fresh allocation), so the
    fleet shm fast path hands segments straight in as ``memoryview``
    with zero serialisation.  Rev 1.2 compressed images come back as a
    ``memoryview`` for :func:`_recover_columnar` to block-scan.
    """
    if isinstance(source, SharedLog):
        return source
    from repro.core.columnar import ColumnarLog

    if isinstance(source, ColumnarLog):
        source = source._buf
    try:
        view = memoryview(source)
    except TypeError:
        raise TypeError(
            f"cannot recover from {type(source).__name__}"
        ) from None
    if is_compressed_image(view):
        return view
    return SharedLog.view(view)


def _salvage_plan(log):
    """Classify the entry array into salvage intervals and quarantined
    ranges; returns ``(salvage, report)`` with `salvage` a sorted list
    of half-open entry-index intervals."""
    es = log.entry_size
    present = log._present
    extent = min(log.tail_or_live(), log.capacity)
    readable = min(extent, present)
    report = RecoveryReport(
        sealed=log.sealed,
        capacity=log.capacity,
        tail=extent,
        present=present,
        watermark=log.seal_watermark,
        segments_sealed=len(log._seals),
    )

    if log.sealed:
        valid, bad = [], []
        for r in log._seals:
            if r.end <= present:
                if log._crc_block(r.start, r.count) == r.crc:
                    if r.start < readable:
                        valid.append((r.start, min(r.end, readable)))
                        report.segments_recovered += 1
                    continue
                report.crc_failures += 1
                if r.start < readable:
                    bad.append((r.start, min(r.end, readable)))
            # A seal past the bytes present cannot be CRC-verified;
            # its surviving prefix may still ride the watermark rule.
        bad = _merge_intervals(bad)
        watermark = min(log.seal_watermark, readable)
        salvage = _merge_intervals(
            valid + _subtract([(0, watermark)] if watermark else [], bad)
        )
    else:
        salvage = [(0, readable)] if readable else []

    for start, end in _subtract([(0, readable)] if readable else [], salvage):
        overlaps_bad = log.sealed and any(
            hs < end and he > start for hs, he in bad
        )
        report.quarantined.append(
            QuarantinedRange(
                start,
                end - start,
                HEADER_SIZE + start * es,
                HEADER_SIZE + end * es,
                REASON_CRC if overlaps_bad else REASON_UNSEALED,
            )
        )

    # Beyond the bytes present: a torn partial entry, then pure
    # truncation up to what the tail claims.
    leftover = (log._array_end - HEADER_SIZE) - present * es
    if leftover:
        torn_count = 1 if extent > present else 0
        report.quarantined.append(
            QuarantinedRange(
                present,
                torn_count,
                HEADER_SIZE + present * es,
                log._array_end,
                REASON_TORN,
            )
        )
    missing_from = present + (1 if leftover and extent > present else 0)
    if extent > missing_from:
        report.quarantined.append(
            QuarantinedRange(
                missing_from,
                extent - missing_from,
                HEADER_SIZE + missing_from * es,
                HEADER_SIZE + extent * es,
                REASON_TRUNCATED,
            )
        )

    report.entries_salvaged = sum(e - s for s, e in salvage)
    report.entries_quarantined = sum(q.count for q in report.quarantined)
    return salvage, report


def _tally_threads(log, intervals, counts):
    """Add per-thread entry counts over `intervals` into `counts`."""
    for start, end in intervals:
        for index in range(start, end):
            tid = log.entry(index).tid
            counts[tid] = counts.get(tid, 0) + 1


def _rebuild(log, salvage, capacity=None):
    """A fresh, clean SharedLog holding the salvaged entries in order."""
    if capacity is None:
        # Evidence-based sizing: the header's capacity word may itself
        # be corrupt (a single bit flip can claim 2**55 entries), so
        # never allocate beyond what the image demonstrably holds.
        total = sum(end - start for start, end in salvage)
        capacity = max(1, total, min(log.capacity, log._present))
    out = SharedLog.create(
        capacity,
        pid=log.pid,
        profiler_addr=log.profiler_addr,
        shm_base=log.shm_base,
        multithread=log.multithread,
        version=log.version,
    )
    es = log.entry_size
    cursor = 0
    for start, end in salvage:
        raw = memoryview(log._buf)[
            HEADER_SIZE + start * es : HEADER_SIZE + end * es
        ]
        out.write_block(cursor, end - start, raw)
        cursor += end - start
    out._next_free = cursor
    out._store_tail()
    return out


def _recover_columnar(data):
    """Salvage a rev 1.2 compressed columnar image, block by block.

    Every codec block carries its own CRC32 and a ``payload_len`` that
    lets the scan skip over it, so damage quarantines *exactly* the
    damaged block: a CRC mismatch (or a section that will not decode)
    drops that block with ``crc-mismatch`` and the scan keeps every
    healthy block after it.  A block whose bytes run off the end of
    the image stops the scan — its offsets and everything behind it
    are gone — and the remainder of what the header's tail claims is
    quarantined as ``truncated``.  The accounting identity holds
    exactly as for fixed-width salvage: ``salvaged + quarantined ==
    tail``.
    """
    from repro.core import columnar as _columnar

    view = memoryview(data)
    header = _validate_header(view)
    version = (header[1] >> _VERSION_SHIFT) & 0xFFFF
    tail = header[5]
    report = RecoveryReport(
        sealed=False, capacity=header[4], tail=tail, watermark=0
    )

    # Scan the block directory tolerantly: (entry cursor, byte offset,
    # per-block verdict).  Nothing decodes yet — sizing first.
    magic_end = HEADER_SIZE + len(_columnar.COLUMNAR_MAGIC)
    blocks = []  # (payload_at, count, crc, payload_len)
    scan_ok = (
        len(view) >= magic_end + 8
        and bytes(view[HEADER_SIZE:magic_end]) == _columnar.COLUMNAR_MAGIC
    )
    if scan_ok:
        (n_blocks,) = struct.unpack_from("<Q", view, magic_end)
        offset = magic_end + 8
        for _ in range(n_blocks):
            if offset + 24 > len(view):
                break  # block header itself truncated
            payload_len, count, crc = struct.unpack_from(
                "<3Q", view, offset
            )
            payload_at = offset + 24
            if payload_at + payload_len > len(view):
                break  # payload runs off the image: this and the rest
            blocks.append((payload_at, count, crc, payload_len))
            offset = payload_at + payload_len
    report.segments_sealed = len(blocks)

    decoded = []  # (count, LogColumns-tuple) for healthy blocks
    cursor = 0
    for index, (payload_at, count, crc, payload_len) in enumerate(blocks):
        payload = view[payload_at : payload_at + payload_len]
        bad = zlib.crc32(payload) != crc
        if bad:
            report.crc_failures += 1
        else:
            try:
                columns = _columnar._decode_block_payload(
                    payload, count, version
                )
            except LogFormatError:
                bad = True
        if bad:
            report.quarantined.append(
                QuarantinedRange(
                    cursor, count, payload_at,
                    payload_at + payload_len, REASON_CRC,
                )
            )
        else:
            decoded.append((cursor, columns))
            report.entries_salvaged += count
            report.segments_recovered += 1
        cursor += count
    report.present = cursor
    if tail > cursor:
        report.quarantined.append(
            QuarantinedRange(
                cursor, tail - cursor,
                min(len(view), magic_end), len(view), REASON_TRUNCATED,
            )
        )
    report.tail = max(tail, cursor)
    report.entries_quarantined = sum(q.count for q in report.quarantined)

    out = SharedLog.create(
        max(1, report.entries_salvaged),
        pid=header[3],
        profiler_addr=header[6],
        shm_base=header[2],
        multithread=bool(header[1] & FLAG_MULTITHREAD),
        version=version,
    )
    per_thread = report.salvaged_per_thread
    for _, (kind, counter, addr, tid, call_site) in decoded:
        out.append_columns(kind, counter, addr, tid, call_site)
        uniq, counts = _np.unique(tid, return_counts=True)
        for t, c in zip(uniq.tolist(), counts.tolist()):
            per_thread[t] = per_thread.get(t, 0) + c
    out._store_tail()
    return out, report


def recover_log(source, repair=False):
    """Salvage every committed region of a possibly damaged log.

    `source` may be a path (mapped read-only, and unmapped before
    this returns or raises), raw bytes/memoryview (zero-copy), any
    reader :func:`~repro.core.log.open_log` returns, or a rev 1.2
    compressed image in any of those shapes — salvage dispatches on
    the header flag and quarantines per codec block.  Returns ``(salvaged,
    report)`` — a fresh, clean :class:`SharedLog` holding the
    recovered entries in log order, and the :class:`RecoveryReport`
    describing everything that was kept, repaired, or quarantined
    (with byte ranges and reason codes — nothing is dropped silently).

    With ``repair=True`` the salvaged log additionally gets its
    CALL/RET tails balanced by :func:`repair_tails`.

    Raises :class:`repro.core.errors.LogFormatError` when the header
    itself is too damaged to describe a log (no magic, no layout —
    there is nothing principled to salvage without it).
    """
    if isinstance(source, (str, os.PathLike)):
        buf = _map_file(source)
        try:
            return recover_log(buf, repair)
        finally:
            _unmap(buf)
    log = _coerce(source)
    if isinstance(log, memoryview):
        salvaged, report = _recover_columnar(log)
        if repair:
            salvaged = repair_tails(salvaged, report)
        return salvaged, report
    salvage, report = _salvage_plan(log)
    salvaged = _rebuild(log, salvage)
    _tally_threads(log, salvage, report.salvaged_per_thread)
    # Quarantined-but-decodable regions (unsealed bytes are intact,
    # just not vouched for) get per-thread counts too.
    decodable = [
        (q.start, q.start + q.count)
        for q in report.quarantined
        if q.reason == REASON_UNSEALED
    ]
    _tally_threads(log, decodable, report.quarantined_per_thread)
    if repair:
        salvaged = repair_tails(salvaged, report)
    return salvaged, report


def recovery_stats(report, stats):
    """Fold a report's counters into a PipelineStats instance."""
    stats.segments_sealed += report.segments_sealed
    stats.entries_salvaged += report.entries_salvaged
    stats.entries_quarantined += report.entries_quarantined
    stats.crc_failures += report.crc_failures
    return stats


def repair_tails(log, report=None):
    """Balance every thread's CALL/RET events with synthetic returns.

    Each thread's events, in first-appearance order, go through
    :func:`~repro.core.reconstruct.balance`, the analyzer's own
    matching rules: a RET that matches no open frame is dropped
    (counted), a RET that matches a *deeper* frame gets synthetic RETs
    for the frames in between (same counter), and frames still open at
    the end get synthetic RETs at the thread's last counter.  The rows
    go back in log order: a synthetic RET just before the RET it
    precedes, and the closes at the end after every entry, thread by
    thread.

    Returns a fresh balanced :class:`SharedLog`; counts go on
    `report` (``tails_repaired`` / ``rets_dropped``) when given.
    """
    cols = log.columns()
    n = len(cols)
    tids, first, inverse = _np.unique(
        cols.tid, return_index=True, return_inverse=True
    )
    parts = []  # per thread: (position, kind, counter, addr, tid, call_site)
    added = dropped = 0
    for j in _np.argsort(first, kind="stable").tolist():
        rows = _np.nonzero(inverse == j)[0]
        (kind, counter, addr, call_site), synthetic, source, lost = balance(
            cols.kind[rows], cols.counter[rows], cols.addr[rows],
            None if cols.call_site is None else cols.call_site[rows],
        )
        # Log order: a synthetic RET takes the position of the RET it
        # precedes, a close at the end takes len(log).
        position = _np.append(rows, n)[source]
        tid = _np.full(len(source), tids[j], dtype=_np.uint64)
        parts.append((position, kind, counter, addr, tid, call_site))
        added += int(synthetic.sum())
        dropped += lost
    out = SharedLog.create(
        max(1, log.capacity, n - dropped + added),
        pid=log.pid,
        profiler_addr=log.profiler_addr,
        shm_base=log.shm_base,
        multithread=log.multithread,
        version=log.version,
    )
    if parts:
        position, *columns = zip(*parts)
        order = _np.argsort(_np.concatenate(position), kind="stable")
        out.append_columns(*(
            None if col[0] is None else _np.concatenate(col)[order]
            for col in columns
        ))
    out._store_tail()
    if report is not None:
        report.tails_repaired += added
        report.rets_dropped += dropped
    return out


def require_clean(report):
    """Raise :class:`RecoveryError` unless the report is spotless —
    the ``recover="strict"`` contract."""
    if not report.ok:
        raise RecoveryError(
            f"strict recovery: {report.entries_quarantined} entries "
            f"quarantined in {len(report.quarantined)} ranges, "
            f"{report.crc_failures} CRC failures",
            report=report,
        )
    return report
