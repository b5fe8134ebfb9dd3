"""The machine: simulated threads under a deterministic scheduler.

Simulated threads are real ``threading.Thread`` objects, but the machine
serialises them completely: exactly one simulated thread executes Python
code at a time, and control is handed over only at checkpoints.  *Which*
runnable thread resumes is decided by a pluggable
:class:`~repro.machine.schedule.SchedulePolicy`; the default
:class:`~repro.machine.schedule.MinTimePolicy` always resumes the
runnable thread with the smallest local virtual time (ties broken by
spawn order), which makes the simulation a conservative discrete-event
execution — every run of the same program is bit-for-bit identical.
Exploration (:mod:`repro.explore`) swaps in seeded-random and
pathological policies to hammer the same program across many
interleavings.
"""

import itertools
import threading

from repro.machine.clock import VirtualClock
from repro.machine.errors import (
    DeadlockError,
    LivelockError,
    MachineError,
    SimThreadError,
    TooManyThreadsError,
)
from repro.machine.schedule import (
    BLOCKED as _BLOCKED,
    DEFAULT_SPAWN_COST as _DEFAULT_SPAWN_COST,
    DONE as _DONE,
    MinTimePolicy,
    NEW as _NEW,
    RUNNABLE as _RUNNABLE,
    RUNNING as _RUNNING,
)

_current = threading.local()


def current_thread():
    """Return the :class:`SimThread` executing the caller.

    Raises :class:`MachineError` when called from outside a simulated
    thread (e.g. from the host test process).
    """
    thread = getattr(_current, "thread", None)
    if thread is None:
        raise MachineError("not inside a simulated thread")
    return thread


class _KillThread(BaseException):
    """Internal: unwinds a simulated thread when the machine aborts."""


class SimThread:
    """One simulated thread with its own local virtual time."""

    def __init__(self, machine, tid, func, args, kwargs, name, start_time):
        self.machine = machine
        self.tid = tid
        self.name = name or f"thread-{tid}"
        self.start_time = float(start_time)
        self.local_time = float(start_time)
        self.state = _NEW
        self.result = None
        self.error = None
        self.end_time = None
        self._func = func
        self._args = args
        self._kwargs = kwargs
        self._resume = threading.Event()
        self._kill = False
        self._block_reason = None
        self._joiners = []
        self._real = threading.Thread(
            target=self._bootstrap, name=self.name, daemon=True
        )

    # ------------------------------------------------------------------
    # Time accounting (fast path — no scheduler interaction)

    def advance(self, cycles):
        """Charge `cycles` of CPU work to this thread's local time.

        The charge is stretched by the machine's processor-sharing
        factor when more threads are live than cores are available.
        """
        if cycles < 0:
            raise ValueError(f"cannot advance by negative cycles: {cycles}")
        self.local_time += cycles * self.machine._slowdown()

    # ------------------------------------------------------------------
    # Scheduler interaction

    def checkpoint(self):
        """Hand control to the scheduler; resume when chosen again."""
        self.state = _RUNNABLE
        self._yield_to_scheduler()

    def sleep(self, cycles):
        """Advance local time and let other threads catch up."""
        self.advance(cycles)
        self.checkpoint()

    def join(self):
        """Block the *calling* thread until this thread finishes.

        Returns this thread's result; re-raises its exception wrapped in
        :class:`SimThreadError`.  The caller's local time advances to at
        least this thread's end time.
        """
        caller = current_thread()
        if caller is self:
            raise MachineError(f"{self.name} cannot join itself")
        if self.state != _DONE:
            caller._block(f"join({self.name})")
            self._joiners.append(caller)
            caller._yield_to_scheduler()
        caller.local_time = max(caller.local_time, self.end_time)
        if self.error is not None:
            raise SimThreadError(self.name, self.error)
        return self.result

    # ------------------------------------------------------------------
    # Internals

    def _block(self, reason):
        self.state = _BLOCKED
        self._block_reason = reason

    def _unblock(self, at_time):
        self.state = _RUNNABLE
        self._block_reason = None
        self.local_time = max(self.local_time, at_time)

    def _yield_to_scheduler(self):
        # A dying thread must never park again: _KillThread unwinds
        # through the workload's ``with lock:`` blocks, whose releases
        # checkpoint — waiting here would strand the thread on an
        # event nobody will ever set (and _abort's join would stall).
        if self._kill:
            raise _KillThread()
        self.machine._yielded.set()
        self._resume.wait()
        self._resume.clear()
        if self._kill:
            raise _KillThread()

    def _bootstrap(self):
        _current.thread = self
        try:
            self._resume.wait()
            self._resume.clear()
            if self._kill:
                return
            try:
                self.result = self._func(*self._args, **self._kwargs)
            except _KillThread:
                return
            except BaseException as exc:  # noqa: BLE001 — reported to run()
                self.error = exc
        finally:
            if not self._kill:
                self.state = _DONE
                self.end_time = self.local_time
                for joiner in self._joiners:
                    joiner._unblock(self.end_time)
                self.machine._yielded.set()

    def __repr__(self):
        return (
            f"SimThread(tid={self.tid}, name={self.name!r}, "
            f"state={self.state}, t={self.local_time:.0f})"
        )


class Machine:
    """A simulated multicore machine.

    Parameters
    ----------
    cores:
        Number of hardware threads.  When more simulated threads are
        live than cores available, CPU charges are stretched by the
        ratio (processor sharing).
    freq_hz:
        Core frequency used to convert cycles to wall time.
    max_threads:
        Guard against runaway spawning.
    spawn_cost:
        Cycles charged to a parent for each spawn.
    policy:
        The :class:`~repro.machine.schedule.SchedulePolicy` deciding
        which runnable thread resumes at each step.  Default:
        :class:`~repro.machine.schedule.MinTimePolicy` (the
        deterministic conservative order).
    max_steps:
        Optional scheduling-step budget; exceeding it aborts the run
        with :class:`~repro.machine.errors.LivelockError`.  ``None``
        (the default) means unbounded.
    """

    def __init__(
        self,
        cores=8,
        freq_hz=VirtualClock().freq_hz,
        max_threads=1024,
        spawn_cost=_DEFAULT_SPAWN_COST,
        policy=None,
        max_steps=None,
    ):
        if cores < 1:
            raise ValueError(f"need at least one core, got {cores}")
        self.clock = VirtualClock(freq_hz)
        self.cores = cores
        self.spawn_cost = spawn_cost
        self.policy = policy if policy is not None else MinTimePolicy()
        self.max_steps = max_steps
        self.schedule_steps = 0
        #: Choice-point observers (:class:`repro.machine.schedule
        #: .SyncObserver`); the sync primitives report here when the
        #: list is non-empty.
        self.sync_observers = []
        self._max_threads = max_threads
        self._reserved_cores = 0
        self._threads = []
        self._tids = itertools.count(1)
        self._yielded = threading.Event()
        self._running = False
        self._elapsed = 0.0

    # ------------------------------------------------------------------
    # Public API

    def current(self):
        """The simulated thread executing the caller."""
        return current_thread()

    def spawn(self, func, *args, name=None, kwargs=None):
        """Create a new simulated thread running ``func(*args, **kwargs)``.

        Keyword arguments for the workload go in the explicit `kwargs`
        dict, so they can never collide with the spawn's own ``name=``.

        When called from inside a simulated thread, the spawn cost is
        charged to the parent and the child starts at the parent's local
        time.  When called before :meth:`run`, the child starts at time
        zero.
        """
        kwargs = dict(kwargs) if kwargs else {}
        if len(self._threads) >= self._max_threads:
            raise TooManyThreadsError(
                f"thread budget of {self._max_threads} exhausted"
            )
        parent = getattr(_current, "thread", None)
        if parent is not None and parent.machine is self:
            parent.advance(self.spawn_cost)
            start_time = parent.local_time
        else:
            start_time = 0.0
        thread = SimThread(
            self, next(self._tids), func, args, kwargs, name, start_time
        )
        thread.state = _RUNNABLE
        self._threads.append(thread)
        thread._real.start()
        return thread

    def run(self, func=None, *args, name="main", kwargs=None):
        """Drive the simulation to completion and return `func`'s result.

        `func` (if given) is spawned as the root thread with the
        workload keywords from the explicit `kwargs` dict, as in
        :meth:`spawn`.  The scheduler then loops until every simulated
        thread is done, resuming the thread the policy picks at each
        step.
        """
        if self._running:
            raise MachineError("machine is already running")
        root = None
        if func is not None:
            root = self.spawn(func, *args, name=name, kwargs=kwargs)
        if not self._threads:
            raise MachineError("nothing to run: no threads spawned")
        self._running = True
        try:
            self._schedule_until_done()
        finally:
            self._running = False
        failed = next((t for t in self._threads if t.error is not None), None)
        if failed is not None:
            raise SimThreadError(failed.name, failed.error) from failed.error
        self._elapsed = max(t.end_time for t in self._threads)
        return root.result if root is not None else None

    def note_access(self, location, write=True):
        """Declare a shared-data access from the calling sim thread.

        `location` is any hashable identity for the shared datum (a
        string, an ``id()``, a tuple).  The declaration flows to the
        machine's :attr:`sync_observers` — the lockset race detector
        consumes it — and costs one list check when no observer is
        attached.
        """
        if not self.sync_observers:
            return
        thread = current_thread()
        for obs in self.sync_observers:
            obs.access(location, thread, write)

    def elapsed_cycles(self):
        """Virtual cycles from time zero to the last thread's end."""
        return self._elapsed

    def elapsed_seconds(self):
        """Virtual seconds from time zero to the last thread's end."""
        return self.clock.cycles_to_seconds(self._elapsed)

    def reserve_core(self, n=1):
        """Dedicate `n` cores (e.g. to the software counter thread)."""
        if self._reserved_cores + n >= self.cores:
            raise MachineError(
                f"cannot reserve {n} of {self.cores} cores "
                f"({self._reserved_cores} already reserved)"
            )
        self._reserved_cores += n

    def release_core(self, n=1):
        """Return previously reserved cores to the scheduler."""
        if n > self._reserved_cores:
            raise MachineError(
                f"releasing {n} cores but only {self._reserved_cores} reserved"
            )
        self._reserved_cores -= n

    def available_cores(self):
        """Cores usable by application threads."""
        return self.cores - self._reserved_cores

    # ------------------------------------------------------------------
    # Internals

    def _slowdown(self):
        live = sum(
            1 for t in self._threads if t.state in (_RUNNABLE, _RUNNING)
        )
        avail = max(1, self.cores - self._reserved_cores)
        return max(1.0, live / avail)

    def _sync_event(self, event, primitive, thread):
        """Fan a choice-point event out to the attached observers."""
        for obs in self.sync_observers:
            getattr(obs, event)(primitive, thread)

    def _schedule_until_done(self):
        while True:
            live = [t for t in self._threads if t.state != _DONE]
            if not live:
                return
            runnable = [t for t in live if t.state == _RUNNABLE]
            if not runnable:
                self._abort()
                raise DeadlockError(
                    f"{t.name}: {t._block_reason}" for t in live
                )
            if (
                self.max_steps is not None
                and self.schedule_steps >= self.max_steps
            ):
                self._abort()
                raise LivelockError(
                    self.schedule_steps,
                    (f"{t.name} ({t.state})" for t in live),
                )
            thread = self.policy.pick(runnable, self)
            if thread not in runnable:
                self._abort()
                raise MachineError(
                    f"policy {self.policy!r} picked "
                    f"{getattr(thread, 'name', thread)!r}, which is not "
                    f"runnable"
                )
            self.schedule_steps += 1
            thread.state = _RUNNING
            thread._resume.set()
            self._yielded.wait()
            self._yielded.clear()
            if any(t.error is not None for t in self._threads):
                self._abort()
                return

    def _abort(self):
        for thread in self._threads:
            if thread.state not in (_DONE,) and thread._real.is_alive():
                thread._kill = True
                thread._resume.set()
        for thread in self._threads:
            if thread._real.is_alive():
                thread._real.join(timeout=5.0)
            if thread.end_time is None:
                thread.end_time = thread.local_time
                thread.state = _DONE

