"""The TEE-Perf log: Figure 2 of the paper, byte for byte.

The log lives in shared memory between the profiled application (inside
the TEE) and the recorder (on the host).  It consists of a 64-byte
header followed by fixed-size 24-byte entries::

    header  (8 x u64)                     entry (3 x u64)
    ------------------------------        -------------------------------
    0  magic ("TEEPERF\\0")               0  kind (bit 63) | counter value
    1  flags | version                    1  call/ret instruction address
    2  shared-memory base address         2  thread id
    3  process id
    4  log size (max entries)
    5  tail index (next free entry)
    6  address of profiler function
    7  seal watermark (sealed logs; else reserved/zero)

Entries are reserved with a fetch-and-add on the tail, so writers never
contend on a lock; reservations past the maximum size are *dropped* and
counted, and the analyzer independently dismisses anything past the
maximum — the paper's rule for records "which might be wrong at the end
of the log".  The real injected code issues one ``lock xadd``; this
reproduction models that atomic with a tail integer whose update is a
two-bytecode critical section (:meth:`SharedLog.reserve_block`, which
amortises the one atomic over a whole block of entries — the relaxed
reservation of §II-C; a block of one is the per-event case).

:class:`ThreadLogWriter` is the one writer of recorded events: one per
thread, it stages each entry as its packed bytes and commits each
block with a single blit.  Only per-thread ordering survives — exactly
the contract the analyzer needs.  It also builds the recorders'
per-thread event hook (:attr:`ThreadLogWriter.make_hook`), so the
entry layout is packed in this module alone.
:meth:`SharedLog.append_columns` is the bulk counterpart for producers
that already hold columns (salvage, conversion).

The flags word is the only mutable control surface: bit 0 (ACTIVE)
gates recording and may be flipped while the application runs, which is
how dynamic de-/activation and selective phases work without adding a
critical section to the hot path.  ACTIVE and the event mask are
decided in one place, the hook, from the flags byte (header byte 8,
:data:`_NEED_FLAGS`); the writers below it write what they are given.

Crash consistency — *sealed segments* (opt-in via
``SharedLog.create(sealed=True)``, flag bit 4): every committed block
may be *sealed*, which records ``(start, count, crc32)`` in a seal
journal and advances the header's monotonic *seal watermark* (word 7)
over the contiguous sealed prefix.  A reader of a crashed snapshot can
then distinguish committed regions (covered by a CRC-verified seal, or
under the watermark) from in-flight ones (reserved but never sealed)
and torn ones (partial trailing bytes).  The journal is persisted as a
trailer after the entry array (``"TPSEAL\\0\\0"`` magic, record count,
then 24-byte ``(start, count, crc)`` records) and parsed tolerantly:
a truncated or garbage trailer never makes a log unreadable — salvage
is :mod:`repro.core.recovery`'s job.  Sealing is off by default so
unsealed images stay byte-for-byte what they always were.

Reading has a columnar fast path: :func:`decode_columns` turns a span
of raw entries into :class:`LogColumns` — one array per field
(kind/counter/addr/tid/call-site), decoded with a single vectorised
``numpy`` view — and :class:`LogEntry` objects are materialised
lazily, only where a consumer asks for them.  :func:`open_log` is the
one place a source becomes a reader: a file is mapped read-only (a
:class:`LogStream`, the :class:`SharedLog` subclass that owns the
mapping, or a rev 1.2 :class:`~repro.core.columnar.ColumnarLog`), a
buffer is wrapped in place.
"""

import mmap
import os
import struct
import sys
import threading
import traceback
import zlib
from dataclasses import dataclass

import numpy as _np

from repro.core.errors import LogFormatError

# memoryview.cast only knows native formats; the log is little-endian,
# so the flat word view is valid exactly on little-endian hosts (struct
# keeps big-endian ones correct, just slower).
_NATIVE_WORDS = sys.byteorder == "little"

MAGIC = int.from_bytes(b"TEEPERF\x00", "little")
HEADER_SIZE = 64
VERSION = 1
# Version 2 extends each entry with the call-site address — the second
# argument the compiler passes to __cyg_profile_func_enter.  The
# header's version field exists exactly so the analyzer can support
# multiple entry layouts (§II-B).
VERSION_2 = 2
ENTRY_SIZE = 24  # version-1 layout
ENTRY_SIZE_V2 = 32
_ENTRY_SIZES = {VERSION: ENTRY_SIZE, VERSION_2: ENTRY_SIZE_V2}

# Flags (low 16 bits of header word 1; the version sits above them).
FLAG_ACTIVE = 1 << 0
FLAG_MULTITHREAD = 1 << 1
# Event mask: which events are measured (both set by default).
FLAG_MASK_CALLS = 1 << 2
FLAG_MASK_RETS = 1 << 3
# Sealed segments: committed blocks carry CRC32 seal records and header
# word 7 is the monotonic seal watermark (see module docstring).
FLAG_SEALED = 1 << 4
# Format rev 1.2: the payload after the header is delta/varint columnar
# blocks (see repro.core.columnar), not a fixed-width entry array.  The
# version field still describes the *entry layout* (v1: 3 words, v2: 4)
# so one flag bit covers both layouts' compressed forms.
FLAG_COMPRESSED = 1 << 5

_VERSION_SHIFT = 16
# Byte offset of the low byte of header word 1 — the flag bits, ACTIVE
# and the event mask among them — on every host: the log is
# little-endian.
_FLAGS_BYTE = 8
# The flag bits an event needs set to be recorded, indexed by kind
# (KIND_CALL is 0, KIND_RET is 1): ACTIVE and the kind's mask bit.
# Every hook tests ``flags_byte & need == need`` with this pair.
_NEED_FLAGS = (
    FLAG_ACTIVE | FLAG_MASK_CALLS,
    FLAG_ACTIVE | FLAG_MASK_RETS,
)

# Entry word 0: bit 63 is the kind, the low 63 bits the counter value.
KIND_CALL = 0
KIND_RET = 1
_KIND_BIT = 1 << 63
COUNTER_MASK = _KIND_BIT - 1

_HEADER = struct.Struct("<8Q")
_ENTRY = struct.Struct("<3Q")
_ENTRY_V2 = struct.Struct("<4Q")
# A v2 entry with call site 0: struct zero-fills pad bytes, so the live
# hook packs both layouts with the same three arguments.
_ENTRY_V2_NO_SITE = struct.Struct("<3Q8x")

# The seal journal: a trailer after the entry array.  Header is the
# magic word plus a record count; each record is (start, count, crc32)
# over the raw bytes of entries [start, start + count).
SEAL_MAGIC = int.from_bytes(b"TPSEAL\x00\x00", "little")
_SEAL_HEADER = struct.Struct("<2Q")
_SEAL_RECORD = struct.Struct("<3Q")
SEAL_RECORD_SIZE = _SEAL_RECORD.size


@dataclass(frozen=True)
class SealRecord:
    """One sealed segment: `count` entries at index `start`, with the
    CRC32 of their raw bytes as committed."""

    start: int
    count: int
    crc: int

    @property
    def end(self):
        return self.start + self.count


def _validate_header(buf):
    """Parse and validate the 64-byte header, raising
    :class:`LogFormatError` with byte-offset context on damage."""
    if len(buf) < HEADER_SIZE:
        raise LogFormatError(
            f"log header is truncated: buffer holds {len(buf)} bytes, "
            f"the header needs {HEADER_SIZE} (offset 0)"
        )
    header = _HEADER.unpack_from(buf, 0)
    if header[0] != MAGIC:
        raise LogFormatError(
            f"bad magic at offset 0: 0x{header[0]:016x} "
            f"(expected {bytes(MAGIC.to_bytes(8, 'little'))!r}) — "
            f"not a TEE-Perf log"
        )
    version = (header[1] >> _VERSION_SHIFT) & 0xFFFF
    if version not in _ENTRY_SIZES:
        raise LogFormatError(
            f"unsupported log version {version} in header word 1 "
            f"(offset 8; known versions: {sorted(_ENTRY_SIZES)})"
        )
    return header


def _merge_intervals(intervals):
    """Coalesce (start, end) half-open intervals into a sorted,
    non-overlapping list."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _parse_seal_journal(buf, array_end, capacity):
    """Parse the seal-journal trailer at `array_end`, tolerantly.

    Damage never raises: a missing, truncated or garbage journal
    yields whatever prefix of records still parses and bounds-checks
    (each must describe a non-empty segment inside the entry array).
    Deciding whether a parsed record's CRC still matches the data is
    :mod:`repro.core.recovery`'s job.
    """
    view = memoryview(buf)
    if len(view) < array_end + _SEAL_HEADER.size:
        return []
    magic, count = _SEAL_HEADER.unpack_from(view, array_end)
    if magic != SEAL_MAGIC:
        return []
    fit = (len(view) - array_end - _SEAL_HEADER.size) // SEAL_RECORD_SIZE
    records = []
    offset = array_end + _SEAL_HEADER.size
    for _ in range(min(count, fit)):
        start, n, crc = _SEAL_RECORD.unpack_from(view, offset)
        offset += SEAL_RECORD_SIZE
        if n < 1 or start + n > capacity or crc >> 32:
            break  # garbage record: the rest of the journal is suspect
        records.append(SealRecord(start, n, crc))
    return records

# Entries decoded per ingestion chunk.  8192 v2 entries are 256 KiB of
# raw log — big enough to amortise the struct dispatch, small enough
# that a streaming reader never holds more than a sliver of the log.
DEFAULT_CHUNK_ENTRIES = 8192

# Entries a ThreadLogWriter stages before committing a block: one
# fetch-and-add and one blit per 256 events.
DEFAULT_WRITER_BLOCK = 256


@dataclass(frozen=True)
class LogEntry:
    """One decoded call/return record."""

    kind: int  # KIND_CALL or KIND_RET
    counter: int  # software-counter value at the event
    addr: int  # runtime address of the entered/exited function
    tid: int  # id of the executing thread
    call_site: int = 0  # v2 logs: runtime address of the call site

    @property
    def is_call(self):
        return self.kind == KIND_CALL

    @property
    def is_ret(self):
        return self.kind == KIND_RET


class LogColumns:
    """A decoded span of the log as structure-of-arrays.

    One numpy ``uint64`` array per entry field — ``kind``,
    ``counter``, ``addr``, ``tid`` and (v2 only, else ``None``)
    ``call_site`` — cut from a single vectorised decode pass.
    :class:`LogEntry` objects are only materialised on demand
    (:meth:`entries`, iteration), so bulk consumers — the analyzer's
    sharding pass, counters, histograms — never pay the per-entry
    object cost.

    ``start`` is the log index of the first decoded entry, so a
    chunked reader can map columns back to absolute positions.
    """

    __slots__ = ("kind", "counter", "addr", "tid", "call_site", "start")

    def __init__(self, kind, counter, addr, tid, call_site, start=0):
        self.kind = kind
        self.counter = counter
        self.addr = addr
        self.tid = tid
        self.call_site = call_site
        self.start = start

    def __len__(self):
        return len(self.kind)

    def as_lists(self):
        """The columns as plain Python lists (ints).

        ``call_site`` stays ``None`` for v1 spans.
        """
        return [col.tolist() if col is not None else None
                for col in self.as_arrays()]

    def as_arrays(self):
        """The five columns as a list of arrays; ``call_site`` stays
        ``None`` for v1 spans."""
        return [self.kind, self.counter, self.addr, self.tid,
                self.call_site]

    def counter_bounds(self):
        """(min, max) counter value in the span; ``None`` when empty."""
        if not len(self.kind):
            return None
        return int(self.counter.min()), int(self.counter.max())

    def entries(self):
        """Materialise the span as :class:`LogEntry` objects."""
        kind, counter, addr, tid, call_site = self.as_lists()
        if call_site is None:
            return [
                LogEntry(k, c, a, t)
                for k, c, a, t in zip(kind, counter, addr, tid)
            ]
        return [
            LogEntry(k, c, a, t, s)
            for k, c, a, t, s in zip(kind, counter, addr, tid, call_site)
        ]

    def __iter__(self):
        return iter(self.entries())


def decode_columns(buf, version, start, count, copy=False):
    """Decode `count` consecutive entries at index `start` into columns.

    The bulk read path behind :meth:`SharedLog.iter_column_chunks`:
    one ``numpy.frombuffer`` view reshaped to (count, words) and
    sliced per field — no per-entry Python work at all.

    With ``copy=True`` the columns are materialised (one vectorised
    memcpy) instead of viewing `buf` — required when `buf` must stay
    closeable, e.g. the file mapping a :class:`LogStream` holds.
    """
    entry_size = _ENTRY_SIZES[version]
    offset = HEADER_SIZE + start * entry_size
    view = memoryview(buf)[offset : offset + count * entry_size]
    words = entry_size // 8
    mat = _np.frombuffer(view, dtype="<u8").reshape(count, words)
    if copy:
        mat = mat.copy()
        view.release()
    word0 = mat[:, 0]
    kind = (word0 >> _np.uint64(63)).astype(_np.uint64)
    counter = word0 & _np.uint64(COUNTER_MASK)
    call_site = mat[:, 3] if words == 4 else None
    return LogColumns(kind, counter, mat[:, 1], mat[:, 2], call_site, start)


class _LogReader:
    """The read surface every log reader shares.

    Header fields come from one lookup, ``_word(index)`` (header word
    `index` as an int); a reader also sets ``_capacity``,
    ``_entry_size`` and ``_seals``, and yields its entries through
    ``iter_column_chunks``.
    """

    @property
    def flags(self):
        return self._word(1) & 0xFFFF

    @property
    def version(self):
        return (self._word(1) >> _VERSION_SHIFT) & 0xFFFF

    @property
    def shm_base(self):
        return self._word(2)

    @property
    def pid(self):
        return self._word(3)

    @property
    def capacity(self):
        return self._capacity

    @property
    def tail(self):
        return self._word(5)

    @property
    def profiler_addr(self):
        return self._word(6)

    @property
    def active(self):
        return bool(self.flags & FLAG_ACTIVE)

    @property
    def multithread(self):
        return bool(self.flags & FLAG_MULTITHREAD)

    @property
    def entry_size(self):
        return self._entry_size

    @property
    def sealed(self):
        """Whether this log records sealed segments (flag bit 4)."""
        return bool(self.flags & FLAG_SEALED)

    @property
    def seals(self):
        """The seal journal: :class:`SealRecord` per sealed segment."""
        return list(self._seals)

    @property
    def seal_watermark(self):
        """Entries in the contiguous sealed prefix (header word 7).

        Monotonic: a reader may treat entries below the watermark as
        committed without consulting the journal, even when a crash
        (or a truncation that ate the trailer) lost the CRC records.
        """
        return self._word(7)

    def __iter__(self):
        for cols in self.iter_column_chunks():
            yield from cols.entries()


class SharedLog(_LogReader):
    """The shared-memory log: header + append-only entry array.

    The buffer is a plain ``bytearray`` by default; in live mode real
    threads append concurrently (reservation is GIL-atomic), in
    simulated mode the machine serialises writers anyway.  ``capacity``
    is the maximum number of entries, fixed at creation exactly as in
    the paper.  With ``SharedLog.create(..., shm=True)`` the buffer is
    a true ``multiprocessing.shared_memory`` segment instead: another
    process can :meth:`attach` by name and read (or append to) the very
    same bytes — the fleet's producer fast path hands segments over
    without ever serialising them.  :meth:`view` wraps an existing
    image (bytes, a memoryview, an mmap) *without copying*; such a log
    is read-only, which is all salvage and analysis need.
    """

    def __init__(self, buf, shm=None):
        header = _validate_header(buf)
        if header[1] & FLAG_COMPRESSED:
            raise LogFormatError(
                "compressed (rev 1.2) image: the payload is columnar "
                "blocks, not a fixed-width entry array — open it with "
                "repro.core.columnar.ColumnarLog (open_log() dispatches "
                "automatically)"
            )
        self._buf = buf
        self._shm = shm
        version = (header[1] >> _VERSION_SHIFT) & 0xFFFF
        self._entry_size = _ENTRY_SIZES[version]
        self._capacity = header[4]
        # Where the entry array ends (and a seal journal, if any,
        # begins).  A truncated image may stop short of it; complete
        # entries actually present clip every read path so a damaged
        # file never turns into a bare struct/ValueError mid-decode.
        self._array_end = min(
            len(buf), HEADER_SIZE + self._capacity * self._entry_size
        )
        self._present = (self._array_end - HEADER_SIZE) // self._entry_size
        self._seals = (
            _parse_seal_journal(buf, self._array_end, self._capacity)
            if header[1] & FLAG_SEALED
            else []
        )
        self._sealed_intervals = _merge_intervals(
            (r.start, r.end) for r in self._seals
        )
        # Header words as a flat u64 view: flags/tail reads on the hot
        # path cost one index, not a struct unpack.
        self._words = (
            memoryview(buf)[: (len(buf) // 8) * 8].cast("Q")
            if _NATIVE_WORDS
            else None
        )
        # The tail: the paper's single atomic fetch-and-add, modelled
        # by an integer bumped inside a two-bytecode critical section,
        # so blocks stay contiguous under concurrency.
        self._tail_lock = threading.Lock()
        self._next_free = self.tail
        self.dropped = 0

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def create(
        cls,
        capacity,
        pid=0,
        profiler_addr=0,
        shm_base=0x7F00_0000_0000,
        multithread=True,
        version=VERSION,
        sealed=False,
        shm=False,
        shm_name=None,
    ):
        """Allocate and initialise a log for `capacity` entries.

        ``sealed=True`` enables crash-consistent sealed segments:
        batched writers seal each committed block, the recorder seals
        the remainder at stop, and the image gains a CRC journal
        trailer.  Off by default — unsealed images stay byte-identical
        to what every earlier reader expects.

        ``shm=True`` backs the log with a real
        ``multiprocessing.shared_memory`` segment instead of a private
        ``bytearray``: another process can :meth:`attach` by the
        segment's :attr:`shm_name` and read the same bytes with zero
        serialisation.  Call :meth:`close` (``unlink=True`` in the
        owning process) when done.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        if version not in _ENTRY_SIZES:
            raise ValueError(
                f"unsupported version {version} (known: "
                f"{sorted(_ENTRY_SIZES)})"
            )
        size = HEADER_SIZE + capacity * _ENTRY_SIZES[version]
        seg = None
        if shm:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(
                name=shm_name, create=True, size=size
            )
            # The OS may round the segment up to a page; the log is
            # exactly the bytes it asked for.  New segments are
            # zero-filled, which a fresh log relies on.
            buf = memoryview(seg.buf)[:size]
        else:
            buf = bytearray(size)
        flags = FLAG_MASK_CALLS | FLAG_MASK_RETS
        if multithread:
            flags |= FLAG_MULTITHREAD
        if sealed:
            flags |= FLAG_SEALED
        _HEADER.pack_into(
            buf,
            0,
            MAGIC,
            flags | (version << _VERSION_SHIFT),
            shm_base,
            pid,
            capacity,
            0,  # tail
            profiler_addr,
            0,  # seal watermark
        )
        return cls(buf, shm=seg)

    @classmethod
    def from_bytes(cls, data):
        """Wrap an existing log image (e.g. read back from disk)."""
        return cls(bytearray(data))

    @classmethod
    def view(cls, data):
        """Wrap an existing image **without copying** it.

        `data` may be ``bytes``, a ``memoryview`` (e.g. over a shared
        -memory segment), an ``mmap`` — anything with the buffer
        protocol.  The resulting log is read-only unless the
        underlying buffer is writable; salvage and analysis, which
        only read, use this to avoid materialising a second copy of
        a large image.
        """
        return cls(data)

    @classmethod
    def attach(cls, name):
        """Attach to a log living in a named shared-memory segment
        (the other half of ``create(shm=True)``).

        The attached log reads — and can append to — the creating
        process's bytes directly.  Call :meth:`close` (without
        ``unlink``) when done.
        """
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(name=name)
        header = _validate_header(seg.buf)
        version = (header[1] >> _VERSION_SHIFT) & 0xFFFF
        size = HEADER_SIZE + header[4] * _ENTRY_SIZES[version]
        buf = memoryview(seg.buf)[: min(size, len(seg.buf))]
        return cls(buf, shm=seg)

    @property
    def shm_name(self):
        """The shared-memory segment's name (None for private logs)."""
        return self._shm.name if self._shm is not None else None

    def close(self, unlink=False):
        """Release a shared-memory backing (no-op for private logs).

        The owning process passes ``unlink=True`` to also remove the
        segment; attachers close without unlinking.  The log must not
        be used after close.
        """
        seg = self._shm
        if seg is None:
            return
        self._shm = None
        if self._words is not None:
            self._words.release()
            self._words = None
        if isinstance(self._buf, memoryview):
            self._buf.release()
        self._buf = b""
        try:
            seg.close()
        except BufferError:  # an exported view still pins the buffer
            pass
        if unlink:
            try:
                seg.unlink()
            except FileNotFoundError:
                pass

    @classmethod
    def load(cls, path):
        """Read a persisted log file."""
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    def dump(self, path):
        """Persist the log (what the recorder wrapper does after a run)."""
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    def to_bytes(self):
        """The full log image, header synchronised.

        Sealed logs append the seal-journal trailer after the entry
        array; unsealed images are byte-identical to what they always
        were.
        """
        self._store_tail()
        if not self.sealed:
            return bytes(self._buf)
        return bytes(self._buf[: self._array_end]) + self._journal_bytes()

    def _journal_bytes(self):
        """The seal journal serialised as the image trailer."""
        seals = self._seals
        parts = [_SEAL_HEADER.pack(SEAL_MAGIC, len(seals))]
        parts.extend(
            _SEAL_RECORD.pack(r.start, r.count, r.crc) for r in seals
        )
        return b"".join(parts)

    # ------------------------------------------------------------------
    # Header accessors

    def _word(self, index):
        if self._words is not None:
            return self._words[index]
        return struct.unpack_from("<Q", self._buf, index * 8)[0]

    def _set_word(self, index, value):
        if self._words is not None:
            self._words[index] = value
        else:
            struct.pack_into("<Q", self._buf, index * 8, value)

    def set_profiler_addr(self, addr):
        """The recorder stores the well-known function address here."""
        self._set_word(6, addr)

    def set_pid(self, pid):
        self._set_word(3, pid)

    def set_active(self, active):
        """Flip the ACTIVE flag (atomic on real hardware; here the GIL
        plays that role).  Safe to call while the application runs."""
        word = self._word(1)
        if active:
            word |= FLAG_ACTIVE
        else:
            word &= ~FLAG_ACTIVE
        self._set_word(1, word)

    def measures(self, kind):
        """Whether the event mask admits this event kind."""
        flag = FLAG_MASK_CALLS if kind == KIND_CALL else FLAG_MASK_RETS
        return bool(self.flags & flag)

    def set_event_mask(self, calls=True, rets=True):
        """Choose which events are measured — changeable while the
        application runs, like the ACTIVE flag (§II-B)."""
        word = self._word(1)
        word &= ~(FLAG_MASK_CALLS | FLAG_MASK_RETS)
        if calls:
            word |= FLAG_MASK_CALLS
        if rets:
            word |= FLAG_MASK_RETS
        self._set_word(1, word)

    # ------------------------------------------------------------------
    # Sealing (crash consistency)

    def _crc_block(self, start, count):
        offset = HEADER_SIZE + start * self._entry_size
        span = count * self._entry_size
        return zlib.crc32(memoryview(self._buf)[offset : offset + span])

    def seal(self, start, count):
        """Seal `count` committed entries at index `start`.

        Records their CRC32 in the journal and advances the watermark
        if the contiguous sealed prefix grew.  Returns the new
        :class:`SealRecord`.
        """
        if not self.sealed:
            raise LogFormatError(
                "seal() on a log created without sealed=True"
            )
        if count < 1 or start < 0 or start + count > self._capacity:
            raise ValueError(
                f"seal [{start}, {start + count}) outside the entry "
                f"array [0, {self._capacity})"
            )
        record = SealRecord(start, count, self._crc_block(start, count))
        self._seals.append(record)
        self._sealed_intervals = _merge_intervals(
            self._sealed_intervals + [(start, record.end)]
        )
        first = self._sealed_intervals[0]
        if first[0] == 0 and first[1] > self._word(7):
            self._set_word(7, first[1])
        return record

    def seal_remainder(self):
        """Seal every committed-but-unsealed gap in ``[0, entries)``.

        The recorder's stop/pause hook.  The writers seal each block
        they commit, so this seals only what was written without one
        (:meth:`write_block` on its own); one call here leaves a
        cleanly finished log fully sealed — and a crashed run, which
        never gets here, leaves its in-flight regions unsealed for
        recovery to quarantine.  Returns the number of new seal
        records.
        """
        end = len(self)
        gaps = []
        cursor = 0
        for s, e in self._sealed_intervals:
            if cursor < min(s, end):
                gaps.append((cursor, min(s, end)))
            cursor = max(cursor, e)
        if cursor < end:
            gaps.append((cursor, end))
        for s, e in gaps:
            self.seal(s, e - s)
        return len(gaps)

    # ------------------------------------------------------------------
    # Appending (below the hook: write what is given)

    def reserve_block(self, n):
        """One fetch-and-add reserves `n` consecutive slots.

        Returns ``(start, granted)``: the first reserved index and how
        many of the `n` slots actually exist.  When the block straddles
        the capacity boundary ``granted < n`` — the tail of the block
        was reserved past the end and is *surrendered*: those slots
        were never writable, and the caller owns counting whatever
        events they would have carried as dropped
        (:class:`ThreadLogWriter` does exactly that at flush).  A block
        reserved entirely past capacity returns ``granted == 0``.

        This method does not touch :attr:`dropped` itself: a block is
        reserved *per flush*, not per event, so only the caller knows
        how many events the surrendered slots represent.
        """
        if n < 1:
            raise ValueError(f"block size must be positive: {n}")
        with self._tail_lock:
            start = self._next_free
            self._next_free = start + n
        if start >= self._capacity:
            return start, 0
        return start, min(n, self._capacity - start)

    def write_block(self, start, granted, raw):
        """Blit `granted` pre-packed entries into slots
        ``[start, start + granted)`` — the commit half of
        :meth:`reserve_block`.  `raw` must hold at least
        ``granted * entry_size`` bytes in the log's entry layout."""
        if not granted:
            return
        entry_size = self._entry_size
        offset = HEADER_SIZE + start * entry_size
        span = granted * entry_size
        self._buf[offset : offset + span] = raw[:span]

    def append_columns(self, kind, counter, addr, tid, call_site=None):
        """Bulk vectorised append: one reserved block for the whole
        batch, packed straight into the log buffer.

        The column counterpart of :class:`ThreadLogWriter` for
        producers that already hold their events as columns (arrays or
        lists of kind/counter/addr/tid, plus ``call_site`` for v2
        logs): one :meth:`reserve_block` fetch-and-add covers the
        batch, and the columns are written through a writable
        ``numpy`` view of the reserved slots — no per-event Python
        work, no intermediate packed ``bytes``.  Every row is written:
        admission (ACTIVE, the event mask) is the hooks' decision.
        Rows lost past the capacity boundary are counted on
        :attr:`dropped`.  Returns the number of entries committed.
        """
        u64 = _np.uint64
        kind = _np.ascontiguousarray(kind, dtype=u64)
        counter = _np.ascontiguousarray(counter, dtype=u64)
        addr = _np.ascontiguousarray(addr, dtype=u64)
        tid = _np.ascontiguousarray(tid, dtype=u64)
        if call_site is not None:
            call_site = _np.ascontiguousarray(call_site, dtype=u64)
        n = len(kind)
        if not n:
            return 0
        start, granted = self.reserve_block(n)
        surrendered = n - granted
        if surrendered:
            self.dropped += surrendered
        if not granted:
            return 0
        entry_size = self._entry_size
        words = entry_size // 8
        offset = HEADER_SIZE + start * entry_size
        mat = _np.frombuffer(
            memoryview(self._buf)[offset : offset + granted * entry_size],
            dtype="<u8",
        ).reshape(granted, words)
        mat[:, 0] = (counter[:granted] & u64(COUNTER_MASK)) | (
            kind[:granted] << u64(63)
        )
        mat[:, 1] = addr[:granted]
        mat[:, 2] = tid[:granted]
        if words == 4:
            mat[:, 3] = 0 if call_site is None else call_site[:granted]
        if self.sealed:
            self.seal(start, granted)
        return granted

    # ------------------------------------------------------------------
    # Reading (the analyzer's side)

    def __len__(self):
        return self._readable()

    def _readable(self):
        """Complete entries a reader may decode: the live tail,
        clipped by capacity (the dismissal rule) and by the complete
        entries actually present in the buffer (a truncated or
        mid-write image may be short of its own tail)."""
        return min(self.tail_or_live(), self._capacity, self._present)

    def tail_or_live(self):
        """Entries written: live reservation counter or stored tail,
        whichever has advanced further."""
        return max(self._next_free, self.tail)

    def entry(self, index):
        """Decode entry `index` (layout chosen by the header version)."""
        if index >= self._readable():
            raise IndexError(f"entry {index} past end of log")
        offset = HEADER_SIZE + index * self._entry_size
        call_site = 0
        if self._entry_size == ENTRY_SIZE_V2:
            word0, addr, tid, call_site = _ENTRY_V2.unpack_from(
                self._buf, offset
            )
        else:
            word0, addr, tid = _ENTRY.unpack_from(self._buf, offset)
        kind = KIND_RET if word0 & _KIND_BIT else KIND_CALL
        return LogEntry(kind, word0 & COUNTER_MASK, addr, tid, call_site)

    # Decoded columns view the buffer; a reader that closes its buffer
    # decodes into copies instead.
    _copy_columns = False

    def iter_column_chunks(self, chunk_size=DEFAULT_CHUNK_ENTRIES):
        """Yield :class:`LogColumns` spans of at most `chunk_size`, in
        log order.

        The analyzer's bulk-ingestion path: no :class:`LogEntry`
        objects are built — each span is one vectorised decode, so a
        consumer never holds more than one decoded chunk at a time.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive: {chunk_size}")
        total = self._readable()
        for start in range(0, total, chunk_size):
            yield decode_columns(
                self._buf, self.version, start,
                min(chunk_size, total - start), copy=self._copy_columns,
            )

    def columns(self):
        """The whole log decoded as one :class:`LogColumns` span."""
        return decode_columns(
            self._buf, self.version, 0, self._readable(),
            copy=self._copy_columns,
        )

    def _store_tail(self):
        # tail_or_live, not _next_free: an attached reader whose
        # reservation counter was snapshotted before the owner stored
        # its tail must never regress the shared header word.  The
        # equality guard skips the no-op store, so a read-only view
        # (SharedLog.view over bytes or foreign shared memory) — which
        # never appended — needs no writable buffer.
        value = min(self.tail_or_live(), self._capacity)
        if value != self._word(5):
            self._set_word(5, value)

    def __repr__(self):
        return (
            f"{type(self).__name__}(entries={len(self)}/{self._capacity}, "
            f"active={self.active}, dropped={self.dropped})"
        )


class ThreadLogWriter:
    """A thread's writer over one :class:`SharedLog` — the one path
    every recorded event takes into the log.

    The injected code's amortised hot path: :attr:`append` — a closure
    specialised at construction so every per-event load is a cell
    variable or a default-argument constant, never an attribute chain —
    packs each entry **in place** into a staging buffer preallocated
    once at construction (one C-level ``Struct.pack_into``; the
    per-event path allocates *nothing*), and each `block` of entries
    commits with one :meth:`SharedLog.reserve_block` fetch-and-add
    plus a single slice copy of the staging buffer into the shared
    buffer — no per-event ``bytes`` objects, no ``b"".join`` at
    commit.  A `block` of one commits every event as it is staged:
    the per-event case.

    :attr:`make_hook` ``(tid, counter)`` builds the recorders'
    per-thread hook ``on_event(kind, addr)`` over the same staging
    buffer: one frame per event checks ACTIVE and the event mask, reads
    the tick, packs the entry and commits a full block (see
    :class:`repro.core.instrument.LiveHooks` and
    :class:`~repro.core.instrument.SimHooks`).

    The contract, matching ``docs/log-format.md``:

    * **one writer per thread** — the staging buffer is not shared, so
      per-thread event order is preserved exactly; global interleaving
      becomes per-block, which is within the format's "only per-thread
      order is meaningful" rule;
    * ``ACTIVE`` and the event mask are decided *at staging time*, by
      the hook (:attr:`make_hook`, or a caller testing
      :data:`_NEED_FLAGS` before :attr:`append`, which writes what it
      is given): a flag flipped between a block's staging and its
      flush affects later events only, and already-staged events are
      always committed;
    * drop accounting is exact but deferred: events staged into a
      block whose reservation straddles (or lies past) the capacity
      boundary are counted on :attr:`dropped` — and added to the log's
      own counter — at flush, when the surrendered tail slots are
      known.

    Call :meth:`flush` (or :meth:`close`, or leave a ``with`` block)
    when the thread is done so the final partial block commits.
    """

    __slots__ = (
        "log",
        "block",
        "flushed",
        "dropped",
        "blocks_flushed",
        "append",
        "make_hook",
        "_flush_impl",
        "_pending_impl",
        "_staged_bytes",
        "_clear_staged",
    )

    def __init__(self, log, block=DEFAULT_WRITER_BLOCK):
        if block < 1:
            raise ValueError(f"block size must be positive: {block}")
        self.log = log
        self.block = block
        self.flushed = 0  # entries committed to the log
        self.dropped = 0  # staged events lost to surrendered slots
        self.blocks_flushed = 0
        entry_size = log.entry_size
        # The staging buffer: `block` entries' worth of bytes,
        # allocated exactly once.  `pos` — the byte offset of the next
        # free staging slot — lives in a closure cell shared by the
        # append/flush/pending closures below; packing writes the
        # entry's final bytes straight into `stage`, so the per-event
        # path performs zero allocations and flush is one slice copy.
        stage = bytearray(block * entry_size)
        stage_view = memoryview(stage)
        pos = 0
        writer = self

        def flush_impl():
            """Commit the staged entries as one reserved block."""
            nonlocal pos
            if not pos:
                return 0
            count = pos // entry_size
            start, granted = log.reserve_block(count)
            if granted:
                # One slice copy: staging bytes -> reserved slots.
                log.write_block(start, granted, stage_view)
                if log.sealed:
                    log.seal(start, granted)
                writer.flushed += granted
            pos = 0
            surrendered = count - granted
            if surrendered:
                writer.dropped += surrendered
                log.dropped += surrendered
            writer.blocks_flushed += 1
            return granted

        # The staging closure.  Every name it touches per event is a
        # cell variable or a default-arg constant.  `pos` doubles as
        # the block-full test: it hits `_cap` exactly when `block`
        # events have been staged since the last flush (an external
        # flush only makes the next block smaller, which the format
        # permits — block boundaries carry no meaning).  The block-full
        # commit goes through the *bound* flush so subclasses that
        # override it (fault injection) stay in the loop.
        flush = self.flush
        if entry_size == ENTRY_SIZE_V2:

            def append(kind, counter, addr, tid, call_site=0,
                       _mask=COUNTER_MASK, _kbit=_KIND_BIT,
                       _stage=stage, _pack=_ENTRY_V2.pack_into,
                       _es=entry_size, _cap=block * entry_size):
                """Stage one event in place; it commits (or is counted
                as a capacity drop) at flush."""
                nonlocal pos
                _pack(_stage, pos, counter & _mask | (kind and _kbit),
                      addr, tid, call_site)
                pos += _es
                if pos == _cap:
                    flush()

        else:

            def append(kind, counter, addr, tid, call_site=0,
                       _mask=COUNTER_MASK, _kbit=_KIND_BIT,
                       _stage=stage, _pack=_ENTRY.pack_into,
                       _es=entry_size, _cap=block * entry_size):
                """Stage one event in place; it commits (or is counted
                as a capacity drop) at flush."""
                nonlocal pos
                _pack(_stage, pos, counter & _mask | (kind and _kbit),
                      addr, tid)
                pos += _es
                if pos == _cap:
                    flush()

        def make_hook(tid, counter):
            """The hook ``on_event(kind, addr)`` of thread `tid`.

            It stages into this writer's buffer, so it and
            :attr:`append` may be mixed.  ACTIVE and the event mask
            are read from the log's own flags byte at every event (a
            flag flipped through another mapping of the log is
            honoured; a byte index allocates nothing, unlike a u64
            word read), and tested before the tick is read, so a
            dropped event costs one byte index.  The tick comes inline
            from the shared word of a
            :class:`~repro.core.counter.ProcessCounter`
            (``counter.words[0]``), through ``read()`` from any other
            counter.  A v2 entry is packed with call site 0.
            """
            header = log._buf
            pack = (
                _ENTRY_V2_NO_SITE if entry_size == ENTRY_SIZE_V2 else _ENTRY
            ).pack_into
            ticks = getattr(counter, "words", None)
            if ticks is not None:

                def on_event(kind, addr, _hdr=header, _at=_FLAGS_BYTE,
                             _need=_NEED_FLAGS, _ticks=ticks, _tid=tid,
                             _mask=COUNTER_MASK, _kbit=_KIND_BIT,
                             _stage=stage, _pack=pack,
                             _es=entry_size, _cap=block * entry_size):
                    nonlocal pos
                    need = _need[kind]
                    if _hdr[_at] & need != need:
                        return
                    _pack(_stage, pos, _ticks[0] & _mask | (kind and _kbit),
                          addr, _tid)
                    pos += _es
                    if pos == _cap:
                        flush()

            else:

                def on_event(kind, addr, _hdr=header, _at=_FLAGS_BYTE,
                             _need=_NEED_FLAGS, _read=counter.read,
                             _tid=tid, _mask=COUNTER_MASK, _kbit=_KIND_BIT,
                             _stage=stage, _pack=pack,
                             _es=entry_size, _cap=block * entry_size):
                    nonlocal pos
                    need = _need[kind]
                    if _hdr[_at] & need != need:
                        return
                    _pack(_stage, pos, _read() & _mask | (kind and _kbit),
                          addr, _tid)
                    pos += _es
                    if pos == _cap:
                        flush()

            return on_event

        def staged_bytes():
            """The staged-but-uncommitted prefix of the staging buffer
            (a view, not a copy) — fault injection reads this to model
            a writer dying mid-commit."""
            return stage_view[:pos]

        def clear_staged():
            nonlocal pos
            pos = 0

        self.append = append
        self.make_hook = make_hook
        self._flush_impl = flush_impl
        self._pending_impl = lambda: pos // entry_size
        self._staged_bytes = staged_bytes
        self._clear_staged = clear_staged

    @property
    def pending(self):
        """Entries staged but not yet committed."""
        return self._pending_impl()

    def flush(self):
        """Commit the staged entries as one reserved block.

        Returns the number of entries committed; the difference to
        what was staged is the exact count of events dropped because
        their slots were surrendered past the capacity boundary.
        """
        return self._flush_impl()

    def close(self):
        self.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.flush()
        return False

    def __repr__(self):
        return (
            f"ThreadLogWriter(block={self.block}, "
            f"pending={self.pending}, "
            f"flushed={self.flushed}, dropped={self.dropped})"
        )


def is_compressed_image(data):
    """True when a bytes-like image carries rev 1.2 compressed
    columnar payload (valid magic and ``FLAG_COMPRESSED`` set)."""
    if len(data) < 16:
        return False
    magic, word1 = struct.unpack_from("<2Q", data, 0)
    return magic == MAGIC and bool(word1 & FLAG_COMPRESSED)


def _map_file(path):
    """The file at `path` as a read-only ``mmap``, or as ``bytes``
    where it cannot be mapped (an empty file, a filesystem without
    mmap).  The mapping keeps its own descriptor, so the file is
    closed at once; :func:`_unmap` releases it."""
    with open(path, "rb") as fh:
        try:
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            return fh.read()


def _unmap(buf):
    """Close what :func:`_map_file` returned (bytes need nothing).

    Closed while an exception propagates, the mapping may still be
    viewed from the finished frames of that exception's traceback (a
    reader that raised mid-decode); their locals are dropped and the
    close retried.  A view held anywhere else still fails the close.
    """
    if not isinstance(buf, mmap.mmap):
        return
    try:
        buf.close()
    except BufferError as err:
        pending = err.__context__
        if pending is None:
            raise
        while pending is not None:
            traceback.clear_frames(pending.__traceback__)
            pending = pending.__context__
        buf.close()


def _open_mapped(reader, path):
    """``reader(buf)`` over :func:`_map_file` of `path`; a rejected
    image closes the mapping again."""
    buf = _map_file(path)
    try:
        return reader(buf)
    except BaseException:
        _unmap(buf)
        raise


def _mapped_reader(buf):
    from repro.core.columnar import ColumnarLog

    if is_compressed_image(buf):
        return ColumnarLog(buf)
    return LogStream(buf)


def open_log(source):
    """Open a log for reading; the one place a source becomes a reader.

    * A path is mapped read-only (read whole only where it cannot be
      mapped): a fixed-width image opens as a :class:`LogStream`, a
      rev 1.2 compressed image as a
      :class:`~repro.core.columnar.ColumnarLog`.  Both decode lazily,
      so a log far larger than memory streams through a constant
      working set.
    * ``bytes``, a ``bytearray`` or a ``memoryview`` is wrapped in
      place, without a copy: a :class:`SharedLog` view, or a
      ``ColumnarLog`` for a compressed image.
    * An open reader is returned as it is.

    Close what a path opened (``close()`` or a ``with`` block); on a
    wrapped buffer ``close()`` does nothing.  Any other source raises
    :class:`TypeError`.
    """
    from repro.core.columnar import ColumnarLog

    if isinstance(source, (SharedLog, ColumnarLog)):
        return source
    if isinstance(source, (str, os.PathLike)):
        return _open_mapped(_mapped_reader, source)
    if isinstance(source, (bytes, bytearray, memoryview)):
        if is_compressed_image(source):
            return ColumnarLog(source)
        return SharedLog.view(source)
    raise TypeError(f"cannot open a log from {type(source).__name__}")


class LogStream(SharedLog):
    """A persisted fixed-width log, read through a read-only mapping
    of its file.

    :func:`open_log` opens every fixed-width file this way: the kernel
    pages entries in as chunks are decoded, so nothing is read whole.
    The read surface is :class:`SharedLog`'s; what differs is the
    lifetime.  Columns decode into copies, so they outlive
    :meth:`close`, which unmaps the file.
    """

    _copy_columns = True

    @classmethod
    def open(cls, path):
        """Map the file at `path`; a rejected header unmaps it again."""
        return _open_mapped(cls, path)

    def close(self):
        """Unmap the file; the stream must not be read afterwards."""
        if self._words is not None:
            self._words.release()
            self._words = None
        buf, self._buf = self._buf, b""
        _unmap(buf)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
