"""The fleet ingest wire protocol and its producer-side client.

Remote recorder sessions talk to the daemon over a local stream socket
with length-prefixed frames::

    frame  := u32 header_len | header JSON (utf-8) | payload bytes
    header := {"type": ..., ..., "size": <payload bytes, default 0>}

Four message types, one round trip each (every frame is acknowledged,
which doubles as backpressure — a producer never runs ahead of the
daemon's accept loop):

* ``hello``   — opens a session: tenant, session name, the producer's
  symbol table (:meth:`repro.symbols.BinaryImage.to_json` text);
* ``segment`` — one sealed log image, inline in the payload *or* (the
  fast path) named via ``shm`` — a
  :class:`multiprocessing.shared_memory.SharedMemory` block the
  daemon attaches and reads without the bytes ever crossing the
  socket;
* ``bye``     — closes the session; the ack carries the daemon's
  accounting for it;
* ``ping``    — liveness, used by tests and the CLI.

The unit of ingest is a whole log image (header + entries + seal
journal), i.e. exactly what :meth:`repro.core.log.SharedLog.to_bytes`
or a crashed producer's :func:`repro.faults.crashed_snapshot`
produces.  The daemon runs salvage on every image, so a dirty handoff
degrades into quarantine accounting, never into a protocol error.
"""

import json
import logging
import socket
import struct
import uuid
from collections import Counter

__all__ = [
    "FleetClient",
    "ProtocolError",
    "read_frame",
    "write_frame",
]

_LEN = struct.Struct("!I")

#: Refuse absurd frames before allocating for them.
MAX_HEADER = 1 << 20
MAX_PAYLOAD = 1 << 31

_LOG = logging.getLogger("repro.fleet")


class ProtocolError(RuntimeError):
    """A malformed or out-of-order frame."""


def _read_exact(sock, n):
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError(
                f"connection closed {remaining} bytes short of a frame"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock):
    """``(header dict, payload bytes)`` — or ``None`` at clean EOF."""
    prefix = b""
    while len(prefix) < _LEN.size:
        chunk = sock.recv(_LEN.size - len(prefix))
        if not chunk:
            if prefix:
                raise ProtocolError("connection closed mid-length")
            return None
        prefix += chunk
    (header_len,) = _LEN.unpack(prefix)
    if not 0 < header_len <= MAX_HEADER:
        raise ProtocolError(f"implausible header length {header_len}")
    try:
        header = json.loads(_read_exact(sock, header_len))
    except ValueError as exc:
        raise ProtocolError(f"header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ProtocolError(f"header is not an object: {header!r}")
    size = int(header.get("size", 0))
    if not 0 <= size <= MAX_PAYLOAD:
        raise ProtocolError(f"implausible payload size {size}")
    payload = _read_exact(sock, size) if size else b""
    return header, payload


def write_frame(sock, header, payload=b""):
    header = dict(header)
    if payload:
        header["size"] = len(payload)
    raw = json.dumps(header, separators=(",", ":")).encode()
    sock.sendall(_LEN.pack(len(raw)) + raw + payload)


def _shm_create(data):
    """Stage `data` in a fresh shared-memory block; returns the
    (attached) block.  Raises when the host has no usable
    ``multiprocessing.shared_memory``."""
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(create=True, size=len(data))
    shm.buf[: len(data)] = data
    return shm


def shm_read(name, size):
    """Attach the named block, copy `size` bytes out, detach."""
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    try:
        return bytes(shm.buf[:size])
    finally:
        shm.close()


class ShmSegment:
    """A zero-copy attachment to a named shared-memory block.

    :attr:`view` is a ``memoryview`` straight over the producer's
    segment — nothing is materialised; :meth:`release` drops the view
    and detaches (idempotent, and safe to call from a future's
    done-callback).  The consumer must hold the attachment open for
    as long as anything references :attr:`view`.
    """

    __slots__ = ("_shm", "view")

    def __init__(self, name, size):
        from multiprocessing import shared_memory

        self._shm = shared_memory.SharedMemory(name=name)
        self.view = memoryview(self._shm.buf)[:size]

    def release(self):
        if self._shm is None:
            return
        self.view.release()
        self.view = None
        try:
            self._shm.close()
        except BufferError:  # a consumer still holds a sub-view
            pass
        self._shm = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.release()
        return False


def shm_view(name, size):
    """Attach the named block zero-copy; returns a :class:`ShmSegment`
    whose ``.view`` is the live bytes (no copy is ever taken)."""
    return ShmSegment(name, size)


class FleetClient:
    """A producer-side session over the ingest socket.

    One client == one recorder session: it says hello once (tenant +
    symtab), publishes any number of segments, and says bye.  Context
    management closes the session and the socket::

        with FleetClient(addr).open("web", image.to_json()) as session:
            session.publish(log.to_bytes())
    """

    def __init__(self, address, timeout=30.0):
        self.address = tuple(address)
        self.timeout = timeout
        self._sock = None
        self.session = None
        self.tenant = None
        self.segments_sent = 0
        #: Shared-memory publishes sent inline instead, by the name of
        #: the exception that ruled shared memory out.
        self.shm_fallbacks = Counter()

    # ------------------------------------------------------------------

    def _request(self, header, payload=b""):
        if self._sock is None:
            raise ProtocolError("client is not connected")
        write_frame(self._sock, header, payload)
        frame = read_frame(self._sock)
        if frame is None:
            raise ProtocolError("daemon closed the connection")
        ack, _ = frame
        if not ack.get("ok"):
            raise ProtocolError(
                f"daemon refused {header.get('type')}: "
                f"{ack.get('error', 'no reason given')}"
            )
        return ack

    def open(self, tenant, symtab_json, session=None):
        """Connect and start a session; returns ``self``."""
        if self._sock is not None:
            raise ProtocolError("session already open")
        self._sock = socket.create_connection(
            self.address, timeout=self.timeout
        )
        self.tenant = tenant
        self.session = session or f"session-{uuid.uuid4().hex[:8]}"
        self._request({
            "type": "hello",
            "tenant": tenant,
            "session": self.session,
            "symtab": symtab_json,
        })
        return self

    def publish(self, log_bytes, via_shm=False):
        """Publish one log image; returns the daemon's ack.

        ``via_shm=True`` stages the image in a shared-memory block and
        sends only its name — the zero-copy-over-the-socket fast path.
        Falls back to the inline payload when the host has no usable
        shared memory (``ImportError`` or ``OSError`` staging the
        block), counted in :attr:`shm_fallbacks` and logged on the
        ``repro.fleet`` logger; any other error propagates.
        """
        log_bytes = bytes(log_bytes)
        if via_shm:
            try:
                shm = _shm_create(log_bytes)
            except (ImportError, OSError) as exc:
                shm = None  # no /dev/shm here: inline is still correct
                self.shm_fallbacks[type(exc).__name__] += 1
                _LOG.warning(
                    "shared memory unavailable, publishing inline: "
                    "%s: %s", type(exc).__name__, exc,
                )
            if shm is not None:
                try:
                    ack = self._request({
                        "type": "segment",
                        "shm": shm.name,
                        "shm_size": len(log_bytes),
                    })
                finally:
                    shm.close()
                    try:
                        shm.unlink()
                    except FileNotFoundError:  # pragma: no cover
                        pass
                self.segments_sent += 1
                return ack
        ack = self._request({"type": "segment"}, log_bytes)
        self.segments_sent += 1
        return ack

    def ping(self):
        return self._request({"type": "ping"})

    def bye(self):
        """End the session; returns the daemon's accounting for it."""
        if self._sock is None:
            return None
        try:
            ack = self._request({"type": "bye"})
        finally:
            self._sock.close()
            self._sock = None
        return ack

    def close(self):
        if self._sock is not None:
            try:
                self.bye()
            except (OSError, ProtocolError):  # already torn down
                if self._sock is not None:
                    self._sock.close()
                    self._sock = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
