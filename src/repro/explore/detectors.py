"""The detector stack: what exploration checks on every schedule.

Three families, all fed by one run of a workload under one schedule:

* **liveness** — deadlock and livelock are detected by the machine
  itself (:class:`~repro.machine.errors.DeadlockError`,
  :class:`~repro.machine.errors.LivelockError`); the explorer turns
  them into findings carrying the schedule that produced them.
* **races** — :class:`LocksetRaceDetector` runs the Eraser lockset
  algorithm over the sync primitives' choice-point events plus the
  workload's declared shared accesses
  (:meth:`~repro.machine.machine.Machine.note_access`).  A location
  whose candidate lockset drains to empty while written by more than
  one thread is reported exactly once.
* **oracles** — after a clean run, the workload re-checks the
  invariants the schedule was trying to break: per-thread byte
  identity of the batched writers against each thread's events packed
  one by one, and recovery's exact ``salvaged + quarantined ==
  entries`` accounting (helpers below, reused from
  :mod:`repro.core.recovery`).

A finding is data, not an exception: every one carries the trial,
seed and policy that produced it so it can be replayed.
"""

from dataclasses import dataclass, field

from repro.machine.schedule import SyncObserver

__all__ = [
    "ContentionTracker",
    "Finding",
    "LocksetRaceDetector",
    "OracleViolation",
    "check_per_thread_identity",
    "check_recovery_accounting",
]


class OracleViolation(AssertionError):
    """A workload invariant did not survive the schedule."""


@dataclass
class Finding:
    """One detector hit under one schedule."""

    detector: str  # "deadlock" | "livelock" | "race" | "oracle:<name>" | ...
    message: str
    trial: int = None
    seed: int = None
    policy: str = None
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "detector": self.detector,
            "message": self.message,
            "trial": self.trial,
            "seed": self.seed,
            "policy": self.policy,
            "details": dict(self.details),
        }

    def __str__(self):
        where = (
            f" (trial {self.trial}, seed {self.seed}, {self.policy})"
            if self.trial is not None
            else ""
        )
        return f"[{self.detector}]{where} {self.message}"


# Eraser lockset states for one shared location.
_VIRGIN = "virgin"
_EXCLUSIVE = "exclusive"
_SHARED = "shared"
_SHARED_MODIFIED = "shared-modified"


class LocksetRaceDetector(SyncObserver):
    """Lockset (Eraser-style) race detection over the sync primitives.

    Tracks, per simulated thread, the set of locks currently held
    (``SimLock`` and ``SimRWLock`` report through the ``acquired`` /
    ``released`` hooks), and per declared location the candidate
    lockset — the intersection of the locksets of every thread that
    touched it since it became shared.  State machine per location:
    virgin → exclusive (first thread) → shared / shared-modified
    (second thread, read / write).  Only the shared-modified state
    with an empty candidate set reports, and each location reports at
    most once.
    """

    name = "race"

    def __init__(self):
        self._held = {}  # tid -> set of primitive ids
        self._names = {}  # primitive id -> display name
        self._state = {}  # location -> [state, owner_tid, candidate set]
        self.findings = []
        self._reported = set()

    # -- SyncObserver hooks -------------------------------------------

    def acquired(self, primitive, thread):
        self._names[id(primitive)] = getattr(primitive, "name", "lock")
        self._held.setdefault(thread.tid, set()).add(id(primitive))

    def released(self, primitive, thread):
        self._held.get(thread.tid, set()).discard(id(primitive))

    def access(self, location, thread, write):
        held = frozenset(self._held.get(thread.tid, ()))
        entry = self._state.get(location)
        if entry is None:
            self._state[location] = [_VIRGIN, thread.tid, None]
            entry = self._state[location]
        state, owner, candidates = entry
        if state == _VIRGIN:
            entry[0] = _EXCLUSIVE
            entry[1] = thread.tid
            return
        if state == _EXCLUSIVE:
            if thread.tid == owner:
                return
            entry[0] = _SHARED_MODIFIED if write else _SHARED
            entry[2] = set(held)
            self._maybe_report(location, entry, thread)
            return
        # shared / shared-modified: refine the candidate lockset.
        entry[2] &= held
        if write:
            entry[0] = _SHARED_MODIFIED
        self._maybe_report(location, entry, thread)

    # -- internals -----------------------------------------------------

    def _maybe_report(self, location, entry, thread):
        if entry[0] != _SHARED_MODIFIED or entry[2]:
            return
        if location in self._reported:
            return
        self._reported.add(location)
        self.findings.append(
            Finding(
                "race",
                f"unprotected shared-modified access to {location!r} "
                f"(last by {thread.name}; no common lock remains)",
                details={"location": repr(location), "tid": thread.tid},
            )
        )

    def locks_held(self, tid):
        """Display names of the locks `tid` currently holds."""
        return sorted(
            self._names.get(pid, "lock") for pid in self._held.get(tid, ())
        )


class ContentionTracker(SyncObserver):
    """Maps scheduling steps to observed dependent transitions.

    Two operations are *dependent* when they touch the same object
    from different threads and at least one writes: lock
    acquisitions/waits on the same primitive, atomic RMWs on the same
    cell, declared data accesses to the same location.  Whenever such
    a pair is observed, both scheduling steps involved are flagged —
    the current one (``machine.schedule_steps - 1``, the pick that
    started the running slice) *and* the step of the earlier
    operation, which is where a different choice could have reordered
    the pair (the DPOR backtracking point; reordering independent
    transitions cannot change the outcome, so everything else is
    pruned).  The systematic mode branches exactly at flagged steps.
    """

    def __init__(self, machine):
        self._machine = machine
        # key -> {tid: (last step touching key, ever wrote)}
        self._ops = {}
        self.flagged_steps = set()

    def _step(self):
        return self._machine.schedule_steps - 1

    def _op(self, key, tid, write):
        step = self._step()
        if step < 0:
            return
        entry = self._ops.setdefault(key, {})
        for other_tid, (other_step, other_write) in entry.items():
            if other_tid != tid and (write or other_write):
                self.flagged_steps.add(other_step)
                self.flagged_steps.add(step)
        prev = entry.get(tid)
        entry[tid] = (step, write or (prev is not None and prev[1]))

    # Lock/semaphore operations conflict with each other: writes.
    def acquired(self, primitive, thread):
        self._op(id(primitive), thread.tid, True)

    def contended(self, primitive, thread):
        self._op(id(primitive), thread.tid, True)

    def atomic(self, primitive, thread):
        self._op(id(primitive), thread.tid, True)

    def access(self, location, thread, write):
        self._op(("loc", location), thread.tid, write)


def check_recovery_accounting(image, name="recovery-accounting"):
    """Run salvage over `image` and enforce exact accounting.

    `image` is anything :func:`repro.core.recovery.recover_log`
    accepts (bytes, a :class:`SharedLog`, a path).  The invariant —
    nothing dropped silently — is
    ``entries_salvaged + entries_quarantined == committed entries``.
    Returns the :class:`RecoveryReport`; raises
    :class:`OracleViolation` when the books do not balance.
    """
    from repro.core.log import SharedLog
    from repro.core.recovery import recover_log

    salvaged, report = recover_log(image)
    committed = report.entries_salvaged + report.entries_quarantined
    if isinstance(image, (bytes, bytearray, memoryview)):
        present = len(SharedLog.view(image))
    else:
        present = len(image)
    if committed != present:
        raise OracleViolation(
            f"{name}: salvaged({report.entries_salvaged}) + "
            f"quarantined({report.entries_quarantined}) = {committed} "
            f"!= committed entries ({present})"
        )
    if len(salvaged) != report.entries_salvaged:
        raise OracleViolation(
            f"{name}: salvaged log holds {len(salvaged)} entries but "
            f"the report claims {report.entries_salvaged}"
        )
    return report


def check_per_thread_identity(log, events_by_tid, name="byte-identity"):
    """The batched-writer oracle, schedule-independent form.

    For every thread, the entries that thread committed into `log`
    (in log order) must be *byte-identical* to that thread's event
    sequence packed one entry at a time with :mod:`struct` — word 0
    the kind in bit 63 over the counter's low 63 bits, then the
    address, the tid and (v2) the call site.  Block interleaving
    across threads is schedule-dependent; each thread's own entry byte
    sequence is not — that invariant is enforced under every explored
    schedule.
    """
    import struct

    from repro.core.log import COUNTER_MASK, HEADER_SIZE

    size = log.entry_size
    buf = log._buf
    got = {tid: [] for tid in events_by_tid}
    for index, entry in enumerate(log):
        offset = HEADER_SIZE + index * size
        got.setdefault(entry.tid, []).append(
            bytes(buf[offset : offset + size])
        )
    layout = f"<{size // 8}Q"
    for tid, events in events_by_tid.items():
        expected = []
        for kind, counter, addr, event_tid, *call_site in events:
            fields = [counter & COUNTER_MASK | kind << 63, addr, event_tid]
            fields += call_site or [0]
            expected.append(struct.pack(layout, *fields[: size // 8]))
        if got.get(tid, []) != expected:
            raise OracleViolation(
                f"{name}: thread {tid} committed "
                f"{len(got.get(tid, []))} entries that are not "
                f"byte-identical to its {len(expected)}-entry "
                f"per-event baseline"
            )
