"""Software counters: the profiler's platform-independent clock.

The paper's recorder maps a counter into the TEE.  If the platform has
a usable hardware counter it is used directly; otherwise a *software
counter* — a host thread incrementing a word in a tight loop —
provides a fine-grained, "reasonably accurate" clock at the price of
one dedicated core.

Three implementations share one interface (``start``/``stop``/``read``
plus ``ticks_to_ns``):

* :class:`VirtualCounter` — simulation mode; reads quantise the calling
  thread's virtual time to the counter resolution, and starting it
  reserves a machine core just as the real loop would.
* :class:`ProcessCounter` — live mode; a child interpreter increments
  word 0 of a page shared through ``mmap``, and the measured code only
  reads it.  The child owns one core while recording (it never holds
  the recorded program's GIL, so it keeps ticking while the program
  runs) and costs about 20 ms to start.
* :class:`PerfCounterClock` — live mode when a "hardware" counter is
  acceptable: ``time.perf_counter_ns``.
"""

import mmap
import os
import subprocess
import sys
import tempfile
import time
import weakref

from repro.core.errors import RecorderError

# A dependent increment through a shared cache line: the effective tick
# granularity of the paper's tight-loop counter as seen by a reader on
# another core.
DEFAULT_RESOLUTION_CYCLES = 8.0


# Seconds ProcessCounter.start waits for the first tick, and stop for
# the child to exit.
_TIMEOUT_S = 10.0

# The counter process: argv carries the shared page's fd and the
# recorder's pid.  Word 0 is the tick, word 1 the stop request; between
# checks of either (and of the parent still being alive) it stores 4096
# ticks.
_CHILD = """
import mmap, os, sys
fd, parent = int(sys.argv[1]), int(sys.argv[2])
words = memoryview(mmap.mmap(fd, mmap.PAGESIZE)).cast("Q")
os.close(fd)
tick = 0
while not words[1] and os.getppid() == parent:
    for tick in range(tick + 1, tick + 4097):
        words[0] = tick
os._exit(0)
"""


def _off_this_core(pid):
    """Keep process ``pid`` off the core the caller runs on.

    A new child may start on its parent's core, and the scheduler can
    take a second or more to move a spinning task to an idle core;
    until then the counter and the recorder share one core and reads
    microseconds apart see the same tick.  Best effort: with one usable
    core, or without affinity calls, the child stays where it is.
    """
    try:
        cpus = os.sched_getaffinity(0)
        # Field 39 of the calling thread's stat: the CPU it runs on.
        with open("/proc/thread-self/stat") as fh:
            here = int(fh.read().rsplit(")", 1)[1].split()[36])
        if len(cpus) > 1:
            os.sched_setaffinity(pid, cpus - {here})
    except (AttributeError, OSError, ValueError, IndexError):
        pass


class VirtualCounter:
    """Simulation-mode counter backed by the machine's virtual clock."""

    def __init__(self, machine, resolution_cycles=DEFAULT_RESOLUTION_CYCLES):
        if resolution_cycles <= 0:
            raise ValueError(
                f"resolution must be positive: {resolution_cycles}"
            )
        self.machine = machine
        self.resolution_cycles = resolution_cycles
        self._running = False
        # Integer fast path for the per-event read: when the resolution
        # is a power of two (the default, 8.0) its reciprocal is exact
        # in binary floating point, so `time * recip` truncates to the
        # same integer as `time / resolution` — one multiply instead of
        # a divide, with bit-identical results.
        self._recip = None
        as_int = int(resolution_cycles)
        if resolution_cycles == as_int and as_int & (as_int - 1) == 0:
            self._recip = 1.0 / resolution_cycles
        self._current = machine.current

    def start(self):
        """Dedicate a core to the counter loop."""
        if self._running:
            raise RecorderError("counter already running")
        self.machine.reserve_core()
        self._running = True

    def stop(self):
        if not self._running:
            raise RecorderError("counter not running")
        self.machine.release_core()
        self._running = False

    @property
    def running(self):
        return self._running

    def read(self):
        """Current tick count as seen by the calling simulated thread."""
        recip = self._recip
        if recip is not None:
            return int(self._current().local_time * recip)
        return int(self._current().local_time / self.resolution_cycles)

    def ticks_to_ns(self, ticks):
        return self.machine.clock.cycles_to_ns(ticks * self.resolution_cycles)

    def resolution_ns(self):
        return self.machine.clock.cycles_to_ns(self.resolution_cycles)


class ProcessCounter:
    """Live-mode counter: a child process incrementing a shared word.

    :meth:`start` maps one page of an unlinked temp file, hands its fd
    to a fresh interpreter (``subprocess``, never ``os.fork``), keeps
    that child off the caller's core and waits until its first store
    lands.  The child increments word 0 until :meth:`stop` sets word
    1, or until its parent is gone.
    A read is one index into :attr:`words`, so the hooks can inline
    ``words[0]`` instead of calling :meth:`read`.
    """

    def __init__(self):
        self.words = None
        self._proc = None
        self._start = None  # (ns, ticks) when ticking was first seen
        self._end = None  # (ns, ticks) at stop

    def start(self):
        if self._proc is not None:
            raise RecorderError("counter already running")
        if not sys.executable:
            raise RecorderError(
                "cannot start the software counter process: no Python "
                "executable (sys.executable is empty)"
            )
        try:
            with tempfile.TemporaryFile() as page:
                page.truncate(mmap.PAGESIZE)
                shared = mmap.mmap(page.fileno(), mmap.PAGESIZE)
                proc = subprocess.Popen(
                    [sys.executable, "-I", "-S", "-c", _CHILD,
                     str(page.fileno()), str(os.getpid())],
                    pass_fds=(page.fileno(),),
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE,
                )
        except (OSError, ValueError) as exc:
            raise RecorderError(
                f"cannot start the software counter process: {exc}"
            ) from exc
        _off_this_core(proc.pid)
        words = memoryview(shared).cast("Q")
        deadline = time.monotonic() + _TIMEOUT_S
        while not words[0]:
            if proc.poll() is not None or time.monotonic() > deadline:
                proc.kill()
                _, err = proc.communicate()
                raise RecorderError(
                    "software counter process did not start "
                    f"(exit status {proc.returncode}): "
                    f"{err.decode(errors='replace').strip()}"
                )
            time.sleep(0.0002)
        self._start = (time.perf_counter_ns(), words[0])
        self._end = None
        self.words = words
        self._proc = proc
        # A counter dropped without stop() still stops its child.
        weakref.finalize(self, words.__setitem__, 1, 1)

    def stop(self):
        proc = self._proc
        if proc is None:
            raise RecorderError("counter not running")
        words = self.words
        self._end = (time.perf_counter_ns(), words[0])
        words[1] = 1
        self._proc = None
        try:
            proc.communicate(timeout=_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RecorderError(
                "software counter process ignored stop; killed it"
            ) from None

    @property
    def running(self):
        return self._proc is not None

    def read(self):
        return self.words[0]

    def ticks_to_ns(self, ticks):
        """Calibrated from wall time over ticks elapsed (to stop, or to
        now while running)."""
        if self._start is None:
            return 0.0
        start_ns, start_ticks = self._start
        end_ns, end_ticks = self._end or (
            time.perf_counter_ns(), self.words[0]
        )
        if end_ticks <= start_ticks:
            return 0.0
        return ticks * (end_ns - start_ns) / (end_ticks - start_ticks)

    def resolution_ns(self):
        return self.ticks_to_ns(1)


class PerfCounterClock:
    """Live-mode "hardware" counter: the host's monotonic clock."""

    running = False

    def start(self):
        self.running = True

    def stop(self):
        self.running = False

    def read(self):
        return time.perf_counter_ns()

    def ticks_to_ns(self, ticks):
        return float(ticks)

    def resolution_ns(self):
        return 1.0
