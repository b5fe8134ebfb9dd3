"""Deterministic fault injection for crash-consistency testing.

The recorder's whole crash-consistency story (sealed segments in
:mod:`repro.core.log`, salvage in :mod:`repro.core.recovery`) is only
as credible as the crashes it is tested against.  This module produces
them, reproducibly:

* :class:`CrashingWriter` — a :class:`~repro.core.log.ThreadLogWriter`
  that dies at a chosen phase of a chosen block commit
  (:data:`CRASH_PHASES`): before the reservation, after reserving but
  before writing a byte, mid-write (a torn block), after writing but
  before sealing, or after a complete seal;
* :class:`FaultInjector` — seeded byte-level damage to a persisted
  image: bit flips in chosen regions and truncation at arbitrary
  offsets;
* :func:`crash_after` — a countdown guard that raises
  :class:`InjectedCrash` mid-call inside an instrumented application;
* :func:`crashed_snapshot` / :func:`run_to_crash` — capture the
  shared memory exactly as a crash leaves it: tail synced to the live
  reservation counter (on real hardware the fetch-and-add lives in
  the shared mapping), seal journal as of the last *completed* seal,
  and — crucially — no final flush or ``seal_remainder()``, which
  only a clean ``stop()`` performs.

Everything is driven by explicit seeds/choices, never wall-clock or
global randomness, so every test failure replays exactly.
"""

import random

from repro.core.log import HEADER_SIZE, ThreadLogWriter
from repro.machine.errors import SimThreadError

__all__ = [
    "CRASH_PHASES",
    "CrashingWriter",
    "FaultInjector",
    "InjectedCrash",
    "crash_after",
    "crashed_snapshot",
    "run_to_crash",
    "seeded_crash_plan",
]

#: The commit phases a :class:`CrashingWriter` can die in, in the
#: order they occur inside one flush.
CRASH_PHASES = (
    "before-reserve",  # staged events lost, log untouched
    "after-reserve",  # slots reserved, zero bytes written
    "mid-write",  # a torn block: partial bytes, ends mid-entry
    "after-write",  # bytes committed, seal never recorded
    "after-seal",  # a complete commit, then death
)


class InjectedCrash(RuntimeError):
    """The simulated application/writer death. Deliberate, not a bug."""


class CrashingWriter(ThreadLogWriter):
    """A batched writer that dies at `phase` of its `crash_flush`-th
    non-empty flush (1-based).  Earlier flushes behave normally, so a
    test can build up healthy sealed blocks before the crash.
    """

    __slots__ = ("phase", "crash_flush", "_flush_calls", "crashed")

    def __init__(self, log, block=None, phase="after-write",
                 crash_flush=1):
        if phase not in CRASH_PHASES:
            raise ValueError(
                f"unknown crash phase {phase!r} "
                f"(choose from {CRASH_PHASES})"
            )
        kwargs = {} if block is None else {"block": block}
        super().__init__(log, **kwargs)
        self.phase = phase
        self.crash_flush = crash_flush
        self._flush_calls = 0
        self.crashed = False

    def flush(self):
        staged = self._staged_bytes()
        count = len(staged) // self.log.entry_size
        if not count:
            return 0
        self._flush_calls += 1
        crashing = not self.crashed and self._flush_calls == self.crash_flush
        if crashing:
            self.crashed = True
        log = self.log
        if crashing and self.phase == "before-reserve":
            raise InjectedCrash("writer died before reserving its block")
        start, granted = log.reserve_block(count)
        if crashing and self.phase == "after-reserve":
            raise InjectedCrash(
                f"writer died holding [{start}, {start + granted}) "
                f"with nothing written"
            )
        if granted:
            raw = staged
            if crashing and self.phase == "mid-write":
                entry_size = log.entry_size
                # End mid-entry: half the block, plus a few bytes.
                torn = (granted * entry_size) // 2 + 3
                offset = HEADER_SIZE + start * entry_size
                log._buf[offset : offset + torn] = raw[:torn]
                raise InjectedCrash(
                    f"writer died {torn} bytes into its "
                    f"{granted * entry_size}-byte block"
                )
            log.write_block(start, granted, raw)
            if crashing and self.phase == "after-write":
                raise InjectedCrash(
                    f"writer died after writing [{start}, "
                    f"{start + granted}) but before sealing it"
                )
            if log.sealed:
                log.seal(start, granted)
            self.flushed += granted
        self._clear_staged()
        surrendered = count - granted
        if surrendered:
            self.dropped += surrendered
            log.dropped += surrendered
        self.blocks_flushed += 1
        if crashing and self.phase == "after-seal":
            raise InjectedCrash("writer died right after a clean commit")
        return granted


class FaultInjector:
    """Seeded byte-level damage to a persisted log image."""

    def __init__(self, seed=0):
        self.rng = random.Random(seed)

    def flip(self, data, n=1, lo=HEADER_SIZE, hi=None):
        """Flip one random bit in each of `n` random bytes of
        ``data[lo:hi]``; returns ``(damaged, offsets)``."""
        buf = bytearray(data)
        hi = len(buf) if hi is None else min(hi, len(buf))
        if hi <= lo:
            return bytes(buf), []
        offsets = sorted(
            self.rng.randrange(lo, hi) for _ in range(n)
        )
        for offset in offsets:
            buf[offset] ^= 1 << self.rng.randrange(8)
        return bytes(buf), offsets

    def truncate(self, data, offset=None, lo=0):
        """Cut the image at `offset` (random in ``[lo, len)`` when not
        given); returns ``(truncated, offset)``."""
        if offset is None:
            offset = self.rng.randrange(lo, len(data) + 1)
        return bytes(data[:offset]), offset


def seeded_crash_plan(seed, max_flush=2):
    """A deterministic (phase, crash_flush) pair from one seed.

    The composition point between fault injection and schedule
    exploration: the explorer derives one seed per trial, the same
    seed picks both the schedule and the crash plan, so every
    (interleaving, fault) pair replays from a single integer.
    """
    rng = random.Random(seed)
    phase = CRASH_PHASES[rng.randrange(len(CRASH_PHASES))]
    return phase, rng.randrange(1, max_flush + 1)


def crash_after(calls, message="application crashed mid-call"):
    """A zero-argument guard that raises :class:`InjectedCrash` on its
    `calls`-th invocation — drop it into an instrumented method to
    kill the simulated application mid-call, deterministically."""
    remaining = [calls]

    def guard():
        remaining[0] -= 1
        if remaining[0] <= 0:
            raise InjectedCrash(message)

    return guard


def crashed_snapshot(log):
    """The shared memory exactly as a crash would leave it.

    The tail word is synced to the live reservation counter (the
    fetch-and-add lives in the shared mapping on real hardware, so a
    crash cannot un-reserve), and the seal journal reflects only the
    seals that *completed* — no final flush, no ``seal_remainder()``,
    because the application never reached a clean ``stop()``.
    """
    return log.to_bytes()


def run_to_crash(recorder, entry, *args, **kwargs):
    """Start `recorder`, run `entry` until it raises
    :class:`InjectedCrash`, and return the crashed snapshot bytes.

    `entry` may be ``machine.run`` for a simulated recorder: the
    machine re-raises a simulated thread's crash as a
    :class:`~repro.machine.errors.SimThreadError`, which counts as the
    crash when its ``original`` is an :class:`InjectedCrash`.  Any
    other error propagates.

    Deliberately never calls ``recorder.stop()`` — stop flushes the
    hooks and seals the remainder, which would hide the crash.  Only
    the counter is stopped, after the snapshot, so a live recorder's
    counter process does not outlive the crash.  Raises
    :class:`AssertionError` when `entry` returns without crashing
    (the fault was mis-planted).
    """
    recorder.start()
    try:
        entry(*args, **kwargs)
    except InjectedCrash:
        return crashed_snapshot(recorder.log)
    except SimThreadError as err:
        if not isinstance(err.original, InjectedCrash):
            raise
        return crashed_snapshot(recorder.log)
    else:
        raise AssertionError(
            "entry returned without crashing; fault not planted?"
        )
    finally:
        recorder.counter.stop()
