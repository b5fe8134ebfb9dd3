"""The per-event reference writer: one reserved slot per event.

The differential oracle of :class:`~repro.core.log.ThreadLogWriter`
and of the hooks built on it, and the tests' way of laying out a log
entry by entry.  Each event takes its own
:meth:`~repro.core.log.SharedLog.reserve_block` ``(1)``, is packed
here with :mod:`struct` — independently of the writer's staging
closures — and lands through
:meth:`~repro.core.log.SharedLog.write_block`.  A slot past capacity
is counted on the log's ``dropped``, one per event.  Like every writer
it writes what it is given (admission — ACTIVE, the event mask — is
the caller's) and seals nothing.
"""

import struct

from repro.core.log import COUNTER_MASK, ENTRY_SIZE_V2, KIND_RET

_V1 = struct.Struct("<3Q")
_V2 = struct.Struct("<4Q")


def append(log, kind, counter, addr, tid, call_site=0):
    """Reserve one slot and write one entry into `log`; False when the
    log was full (the drop is counted on ``log.dropped``).

    Word 0 is the kind in bit 63 over the counter's low 63 bits, then
    come addr, tid and (v2) the call site.
    """
    start, granted = log.reserve_block(1)
    if not granted:
        log.dropped += 1
        return False
    word0 = counter & COUNTER_MASK | (1 << 63 if kind == KIND_RET else 0)
    if log.entry_size == ENTRY_SIZE_V2:
        raw = _V2.pack(word0, addr, tid, call_site)
    else:
        raw = _V1.pack(word0, addr, tid)
    log.write_block(start, 1, raw)
    return True
