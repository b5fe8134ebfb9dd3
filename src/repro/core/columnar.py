"""On-disk format rev 1.2 — compressed columnar log images.

A fixed-width TEE-Perf image spends 24 (v1) or 32 (v2) bytes per
entry, but the columns are wildly compressible: counters are
near-monotonic (per thread they only ever grow, and by small steps),
addresses draw from the program's small function alphabet, thread ids
barely change within a thread-sorted run.  Rev 1.2 exploits exactly
that: the persisted payload is the *columns* of the log, delta- and
dictionary-transformed and LEB128-varint packed, in CRC-guarded
blocks.  On the standard workloads the image shrinks 3-5x; decoding is
one vectorised numpy pass per block, so ``open_log()`` and the
analyzer consume rev 1.2 transparently through :class:`ColumnarLog`,
which shares :class:`~repro.core.log.SharedLog`'s header accessors
and ``iter_column_chunks`` read surface.

Image layout (all integers little-endian u64 unless noted)::

    64-byte header        exactly the rev 1.0/1.1 header, with
                          FLAG_COMPRESSED set; `tail` is the total
                          entry count; the version field still names
                          the *entry layout* (v1/v2) the columns carry
    8 bytes               payload magic "TPCOL12\\0"
    u64                   block count
    blocks                each:
      u64 payload_len     bytes of the column sections below
      u64 count           entries in this block
      u64 crc32           zlib.crc32 of the payload bytes
      payload             one section per column, each
                          ``u64 section_len`` + section bytes

Column encodings (fixed per column, part of the format)::

    kind        plain LEB128 (0/1 - one byte per entry)
    counter     zigzag(delta) LEB128; deltas in wraparound u64
                arithmetic, the first delta is from 0
    addr        dictionary: varint count + zigzag-delta-packed sorted
                uniques + plain LEB128 indices
    tid         zigzag(delta) LEB128
    call_site   dictionary (v2 layouts only)

The codec is order-preserving — ``decode(encode(entries)) ==
entries``, entry for entry, whatever the input order (the rev 1.2
identity oracle).  :func:`encode_log` *additionally* stable-sorts
entries by thread id before encoding (``sort_by_thread=True``, the
default): per-thread order — the only order the format guarantees and
the analyzer consumes — is untouched, while counters become
near-monotonic within each run, which is where the compression comes
from.

Damage tolerance: every block carries its own CRC32, so salvage
(:mod:`repro.core.recovery`) quarantines exactly the damaged block —
`payload_len` lets the scan skip over it and keep every healthy block
after it.
"""

import struct
import zlib

import numpy as _np

from repro.core.errors import LogFormatError
from repro.core.log import (
    DEFAULT_CHUNK_ENTRIES,
    FLAG_COMPRESSED,
    FLAG_SEALED,
    HEADER_SIZE,
    LogColumns,
    MAGIC,
    SharedLog,
    _ENTRY_SIZES,
    _HEADER,
    _LogReader,
    _unmap,
    _validate_header,
    _VERSION_SHIFT,
)

__all__ = [
    "COLUMNAR_MAGIC",
    "ColumnarLog",
    "DEFAULT_CODEC_BLOCK",
    "decode_delta",
    "decode_dictionary",
    "decode_log",
    "decode_varint",
    "encode_delta",
    "encode_dictionary",
    "encode_log",
    "encode_varint",
]

COLUMNAR_MAGIC = b"TPCOL12\x00"

#: Entries per codec block.  64k entries keep a block's decoded
#: columns around half a megabyte (v1) — one vectorised pass each, and
#: fine-grained enough that quarantining a damaged block loses little.
DEFAULT_CODEC_BLOCK = 65536

_U64 = struct.Struct("<Q")
_BLOCK_HEADER = struct.Struct("<3Q")  # payload_len, count, crc32
_DICT_HEADER = struct.Struct("<2Q")  # unique count, packed-unique bytes
_MAX_VARINT = 10  # ceil(64 / 7)


# ----------------------------------------------------------------------
# LEB128 varints

def encode_varint(values):
    """Pack a sequence of u64 values as LEB128 varints (one stream)."""
    values = _np.ascontiguousarray(values, dtype=_np.uint64)
    n = len(values)
    if not n:
        return b""
    # Byte count per value: 1 + how many 7-bit shifts stay nonzero.
    nb = _np.ones(n, dtype=_np.int64)
    tmp = values >> _np.uint64(7)
    while tmp.any():
        nb += tmp != 0
        tmp >>= _np.uint64(7)
    ends = _np.cumsum(nb)
    starts = ends - nb
    out = _np.zeros(int(ends[-1]), dtype=_np.uint8)
    for i in range(int(nb.max())):
        m = nb > i
        byte = (
            (values[m] >> _np.uint64(7 * i)) & _np.uint64(0x7F)
        ).astype(_np.uint8)
        byte |= (nb[m] > i + 1).astype(_np.uint8) << 7
        out[starts[m] + i] = byte
    return out.tobytes()


def decode_varint(data, count):
    """Decode exactly `count` LEB128 varints; the stream must contain
    neither more nor fewer (:class:`LogFormatError` otherwise)."""
    arr = _np.frombuffer(data, dtype=_np.uint8)
    ends = _np.flatnonzero((arr & 0x80) == 0)
    if len(ends) != count or (count and ends[-1] != len(arr) - 1) \
            or (not count and len(arr)):
        raise LogFormatError(
            f"malformed varint stream: {len(ends)} terminators in "
            f"{len(arr)} bytes, expected {count} values"
        )
    if not count:
        return _np.zeros(0, dtype=_np.uint64)
    starts = _np.empty(count, dtype=_np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    if int(lengths.max()) > _MAX_VARINT:
        raise LogFormatError(
            f"varint longer than {_MAX_VARINT} bytes in stream"
        )
    out = _np.zeros(count, dtype=_np.uint64)
    for i in range(int(lengths.max())):
        m = lengths > i
        out[m] |= (
            (arr[starts[m] + i] & _np.uint64(0x7F)).astype(_np.uint64)
            << _np.uint64(7 * i)
        )
    return out


# ----------------------------------------------------------------------
# Zigzag deltas (counters, thread ids)

def encode_delta(values):
    """Delta + zigzag + varint: near-monotonic u64 columns become
    ~1 byte per entry.  Deltas use wraparound u64 arithmetic, so
    max-u64 values and non-monotonic regressions round-trip exactly."""
    values = _np.ascontiguousarray(values, dtype=_np.uint64)
    if not len(values):
        return b""
    deltas = _np.diff(values, prepend=_np.uint64(0))
    sign = (deltas.view(_np.int64) >> _np.int64(63)).view(_np.uint64)
    return encode_varint((deltas << _np.uint64(1)) ^ sign)


def decode_delta(data, count):
    """Invert :func:`encode_delta` for exactly `count` values."""
    zig = decode_varint(data, count)
    signed = (zig >> _np.uint64(1)).view(_np.int64) ^ -(
        (zig & _np.uint64(1)).view(_np.int64)
    )
    return _np.cumsum(signed.view(_np.uint64), dtype=_np.uint64)


# ----------------------------------------------------------------------
# Dictionary columns (addresses, call sites)

def encode_dictionary(values):
    """Dictionary-pack a small-alphabet column: the sorted unique
    values delta-packed once, then one varint index per entry."""
    values = _np.ascontiguousarray(values, dtype=_np.uint64)
    uniq, inverse = _np.unique(values, return_inverse=True)
    packed = encode_delta(uniq)
    return (
        _DICT_HEADER.pack(len(uniq), len(packed))
        + packed
        + encode_varint(inverse)
    )


def decode_dictionary(data, count):
    """Invert :func:`encode_dictionary` for exactly `count` values."""
    view = memoryview(data)
    if len(view) < _DICT_HEADER.size:
        raise LogFormatError(
            f"dictionary section truncated: {len(view)} bytes"
        )
    n_uniq, packed_len = _DICT_HEADER.unpack_from(view, 0)
    body = view[_DICT_HEADER.size:]
    if packed_len > len(body) or (count and not n_uniq):
        raise LogFormatError(
            f"dictionary section inconsistent: {n_uniq} uniques in "
            f"{packed_len} bytes, section holds {len(body)}"
        )
    uniq = decode_delta(body[:packed_len], n_uniq)
    idx = decode_varint(body[packed_len:], count)
    if count and int(idx.max()) >= n_uniq:
        raise LogFormatError(
            f"dictionary index {int(idx.max())} out of range "
            f"({n_uniq} uniques)"
        )
    return uniq[idx]


# ----------------------------------------------------------------------
# Blocks

# (encoder, decoder) per column position; call_site reuses the addr
# scheme.  Fixed per column — part of the format, not negotiated.
_COLUMN_CODECS = (
    (encode_varint, decode_varint),       # kind
    (encode_delta, decode_delta),         # counter
    (encode_dictionary, decode_dictionary),  # addr
    (encode_delta, decode_delta),         # tid
    (encode_dictionary, decode_dictionary),  # call_site
)


def _encode_block(kind, counter, addr, tid, call_site):
    columns = [kind, counter, addr, tid]
    if call_site is not None:
        columns.append(call_site)
    sections = []
    for column, (encode, _) in zip(columns, _COLUMN_CODECS):
        packed = encode(column)
        sections.append(_U64.pack(len(packed)))
        sections.append(packed)
    payload = b"".join(sections)
    return (
        _BLOCK_HEADER.pack(len(payload), len(kind), zlib.crc32(payload))
        + payload
    )


def _decode_block_payload(payload, count, version):
    """Decode one block's column sections into a column tuple.

    Raises :class:`LogFormatError` on any structural damage — the
    strict reader treats that as fatal, salvage as a quarantine.
    """
    n_columns = 5 if _ENTRY_SIZES[version] == 32 else 4
    view = memoryview(payload)
    offset = 0
    columns = []
    for position in range(n_columns):
        if offset + _U64.size > len(view):
            raise LogFormatError(
                f"block payload truncated in section {position} "
                f"(offset {offset})"
            )
        (length,) = _U64.unpack_from(view, offset)
        offset += _U64.size
        if offset + length > len(view):
            raise LogFormatError(
                f"block section {position} claims {length} bytes, "
                f"payload holds {len(view) - offset}"
            )
        decode = _COLUMN_CODECS[position][1]
        columns.append(decode(view[offset : offset + length], count))
        offset += length
    if offset != len(view):
        raise LogFormatError(
            f"{len(view) - offset} stray bytes after block sections"
        )
    if n_columns == 4:
        columns.append(None)
    return tuple(columns)


# ----------------------------------------------------------------------
# Whole-image encode / decode

def encode_log(source, block_entries=DEFAULT_CODEC_BLOCK,
               sort_by_thread=True):
    """Encode a log into a rev 1.2 compressed columnar image.

    `source` is any reader :func:`~repro.core.log.open_log` returns
    (a :class:`ColumnarLog` works too, so re-encoding is a no-op round
    trip).  With `sort_by_thread` (default) entries are
    stable-sorted by thread id first: per-thread order — the only
    order the format guarantees — is preserved exactly, and counters
    become near-monotonic within each thread's run, which is where
    the compression ratio comes from.  Pass ``sort_by_thread=False``
    to encode the sequence as-is (the identity-oracle configuration).

    Returns the complete image as ``bytes``.
    """
    if block_entries < 1:
        raise ValueError(
            f"block_entries must be positive: {block_entries}"
        )
    kind, counter, addr, tid, call_site = source.columns().as_arrays()
    total = len(kind)
    if sort_by_thread and total:
        order = _np.argsort(tid, kind="stable")
        kind, counter = kind[order], counter[order]
        addr, tid = addr[order], tid[order]
        if call_site is not None:
            call_site = call_site[order]

    version = source.version
    # The header travels unchanged except: FLAG_COMPRESSED on, the
    # seal machinery off (block CRCs are rev 1.2's integrity story),
    # and the tail pinned to the encoded entry count.
    flags = (source.flags | FLAG_COMPRESSED) & ~FLAG_SEALED
    header = _HEADER.pack(
        MAGIC,
        flags | (version << _VERSION_SHIFT),
        source.shm_base,
        source.pid,
        source.capacity,
        total,
        source.profiler_addr,
        0,  # no seal watermark in rev 1.2
    )
    blocks = []
    for start in range(0, total, block_entries):
        end = min(start + block_entries, total)
        blocks.append(
            _encode_block(
                kind[start:end],
                counter[start:end],
                addr[start:end],
                tid[start:end],
                call_site[start:end] if call_site is not None else None,
            )
        )
    return b"".join(
        [header, COLUMNAR_MAGIC, _U64.pack(len(blocks))] + blocks
    )


def decode_log(data):
    """Fully decode a rev 1.2 image into a fixed-width
    :class:`~repro.core.log.SharedLog` (rev 1.0 semantics, same
    entries in the image's order) — the convert-back path."""
    with ColumnarLog(data) as log:
        return log.to_shared_log()


class ColumnarLog(_LogReader):
    """A read-only rev 1.2 image with :class:`~repro.core.log.
    SharedLog`'s read surface.

    The header parses eagerly and the block directory is scanned once
    (offsets, counts, CRCs — no payload is touched); columns decode
    lazily, one block per vectorised pass, so
    :meth:`iter_column_chunks` feeds the analyzer without ever
    holding the expanded log.  CRC failures and malformed sections
    raise :class:`LogFormatError` — the strict reader's contract;
    tolerant salvage is :mod:`repro.core.recovery`'s job.
    """

    compressed = True
    # Rev 1.2 has no seal journal; per-block CRCs guard integrity.
    sealed = False
    _seals = ()

    def __init__(self, buf):
        header = _validate_header(buf)
        if not header[1] & FLAG_COMPRESSED:
            raise LogFormatError(
                "not a compressed image (FLAG_COMPRESSED clear) — use "
                "SharedLog/LogStream for fixed-width rev 1.0/1.1 logs"
            )
        self._buf = buf
        self._header = header
        self._capacity = header[4]
        self._entry_size = _ENTRY_SIZES[self.version]
        magic_end = HEADER_SIZE + len(COLUMNAR_MAGIC)
        if bytes(buf[HEADER_SIZE:magic_end]) != COLUMNAR_MAGIC:
            raise LogFormatError(
                f"missing columnar payload magic at offset "
                f"{HEADER_SIZE} (expected {COLUMNAR_MAGIC!r})"
            )
        if len(buf) < magic_end + _U64.size:
            raise LogFormatError("truncated before the block count")
        (n_blocks,) = _U64.unpack_from(buf, magic_end)
        # The block directory: (byte offset, entry count, crc,
        # payload_len) per block, bounds-checked during the scan.
        self._blocks = []
        offset = magic_end + _U64.size
        for index in range(n_blocks):
            if offset + _BLOCK_HEADER.size > len(buf):
                raise LogFormatError(
                    f"block {index} header truncated at offset {offset}"
                )
            payload_len, count, crc = _BLOCK_HEADER.unpack_from(
                buf, offset
            )
            payload_at = offset + _BLOCK_HEADER.size
            if payload_at + payload_len > len(buf):
                raise LogFormatError(
                    f"block {index} claims {payload_len} payload bytes "
                    f"at offset {payload_at}, image holds "
                    f"{len(buf) - payload_at}"
                )
            self._blocks.append((payload_at, count, crc, payload_len))
            offset = payload_at + payload_len
        self._count = sum(b[1] for b in self._blocks)

    def _word(self, index):
        return self._header[index]

    @property
    def nbytes(self):
        """Size of the compressed image in bytes."""
        return len(self._buf)

    @property
    def block_count(self):
        return len(self._blocks)

    # ------------------------------------------------------------------
    # Reading

    def __len__(self):
        return self._count

    def _decode_block(self, index, start):
        payload_at, count, crc, payload_len = self._blocks[index]
        payload = memoryview(self._buf)[
            payload_at : payload_at + payload_len
        ]
        if zlib.crc32(payload) != crc:
            raise LogFormatError(
                f"block {index} CRC mismatch at offset {payload_at} "
                f"({count} entries) — salvage with "
                f"repro.core.recovery.recover_log"
            )
        kind, counter, addr, tid, call_site = _decode_block_payload(
            payload, count, self.version
        )
        return LogColumns(kind, counter, addr, tid, call_site, start)

    def iter_column_chunks(self, chunk_size=DEFAULT_CHUNK_ENTRIES):
        """Yield :class:`~repro.core.log.LogColumns` spans of at most
        `chunk_size` — the analyzer's bulk-ingestion surface, decoded
        one block at a time."""
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive: {chunk_size}")
        start = 0
        for index in range(len(self._blocks)):
            cols = self._decode_block(index, start)
            count = len(cols)
            for at in range(0, count, chunk_size):
                stop = min(at + chunk_size, count)
                if at == 0 and stop == count:
                    yield cols
                else:
                    call_site = (
                        cols.call_site[at:stop]
                        if cols.call_site is not None
                        else None
                    )
                    yield LogColumns(
                        cols.kind[at:stop],
                        cols.counter[at:stop],
                        cols.addr[at:stop],
                        cols.tid[at:stop],
                        call_site,
                        start + at,
                    )
            start += count

    def columns(self):
        """The whole image decoded as one :class:`~repro.core.log.
        LogColumns` span."""
        spans = [
            self._decode_block(i, 0) for i in range(len(self._blocks))
        ]
        spans = [s for s in spans if len(s)]
        if not spans:
            empty = _np.zeros(0, dtype=_np.uint64)
            call_site = None if self._entry_size == 24 else empty
            return LogColumns(empty, empty, empty, empty, call_site, 0)
        if len(spans) == 1:
            return spans[0]
        cat = _np.concatenate
        call_site = (
            cat([s.call_site for s in spans])
            if spans[0].call_site is not None
            else None
        )
        return LogColumns(
            cat([s.kind for s in spans]),
            cat([s.counter for s in spans]),
            cat([s.addr for s in spans]),
            cat([s.tid for s in spans]),
            call_site,
            0,
        )

    def to_shared_log(self):
        """Expand into a fixed-width :class:`~repro.core.log.
        SharedLog` (the image's entry order, rev 1.0/1.1 flags)."""
        out = SharedLog.create(
            max(1, self.capacity, self._count),
            pid=self.pid,
            profiler_addr=self.profiler_addr,
            shm_base=self.shm_base,
            multithread=self.multithread,
            version=self.version,
        )
        for cols in self.iter_column_chunks():
            out.append_columns(
                cols.kind, cols.counter, cols.addr, cols.tid,
                cols.call_site,
            )
        out._store_tail()
        return out

    def close(self):
        """Unmap the file the image was opened from (nothing to do for
        bytes); the image must not be read afterwards."""
        _unmap(self._buf)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self):
        return (
            f"ColumnarLog(entries={self._count}, "
            f"blocks={len(self._blocks)}, version={self.version}, "
            f"nbytes={self.nbytes})"
        )
