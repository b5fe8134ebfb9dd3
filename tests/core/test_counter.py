"""Unit tests for the software counters."""

import os
import subprocess
import sys
import time

import pytest

from repro.core import PerfCounterClock, ProcessCounter, VirtualCounter
from repro.core.errors import RecorderError
from repro.machine import Machine


def test_virtual_counter_quantises_thread_time():
    machine = Machine(cores=4)
    counter = VirtualCounter(machine, resolution_cycles=10)

    def main():
        machine.current().advance(105)
        return counter.read()

    assert machine.run(main) == 10


def test_virtual_counter_reserves_a_core():
    machine = Machine(cores=4)
    counter = VirtualCounter(machine)
    counter.start()
    assert machine.available_cores() == 3
    counter.stop()
    assert machine.available_cores() == 4


def test_virtual_counter_lifecycle_errors():
    counter = VirtualCounter(Machine())
    with pytest.raises(RecorderError):
        counter.stop()
    counter.start()
    with pytest.raises(RecorderError):
        counter.start()
    counter.stop()


def test_virtual_counter_resolution_positive():
    with pytest.raises(ValueError):
        VirtualCounter(Machine(), resolution_cycles=0)


def test_virtual_counter_tick_conversion():
    machine = Machine(freq_hz=1e9)
    counter = VirtualCounter(machine, resolution_cycles=2)
    assert counter.ticks_to_ns(5) == pytest.approx(10.0)
    assert counter.resolution_ns() == pytest.approx(2.0)


def test_process_counter_advances_in_real_time():
    counter = ProcessCounter()
    counter.start()
    try:
        first = counter.read()
        time.sleep(0.05)
        second = counter.read()
    finally:
        counter.stop()
    assert second > first
    assert counter.resolution_ns() > 0
    # Stopped: the calibration and the last tick stay readable.
    assert counter.read() >= second
    assert counter.ticks_to_ns(10) == pytest.approx(
        10 * counter.resolution_ns()
    )


def test_process_counter_lifecycle_errors():
    counter = ProcessCounter()
    with pytest.raises(RecorderError):
        counter.stop()
    counter.start()
    with pytest.raises(RecorderError):
        counter.start()
    counter.stop()
    assert not counter.running
    with pytest.raises(RecorderError):
        counter.stop()


def test_process_counter_start_failure_names_the_cause(monkeypatch):
    monkeypatch.setattr(sys, "executable", "/nonexistent/python")
    counter = ProcessCounter()
    with pytest.raises(RecorderError, match="/nonexistent/python"):
        counter.start()
    assert not counter.running


def test_process_counter_ticks_while_a_thread_holds_the_gil():
    """The counter's own process keeps ticking while the reader spins
    in Python: reads 20 us apart inside a busy loop differ (a counter
    thread would wait for the GIL, and nearly all pairs would be
    equal).  A quarter of the pairs leaves room for a loaded host
    descheduling the child."""
    counter = ProcessCounter()
    counter.start()
    pairs, advanced = 5000, 0
    try:
        for _ in range(pairs):
            first = counter.read()
            until = time.perf_counter_ns() + 20_000
            while time.perf_counter_ns() < until:
                pass
            advanced += counter.read() > first
    finally:
        counter.stop()
    assert advanced > pairs // 4, f"{advanced} of {pairs} reads advanced"


def test_process_counter_child_keeps_off_the_callers_core():
    """start pins the child to every allowed core but the one the
    caller ran on; the scheduler alone may leave the two on one core
    for a second or more."""
    cpus = os.sched_getaffinity(0)
    counter = ProcessCounter()
    counter.start()
    try:
        placed = os.sched_getaffinity(counter._proc.pid)
    finally:
        counter.stop()
    if len(cpus) > 1:
        assert placed < cpus and len(placed) == len(cpus) - 1
    else:
        assert placed == cpus


def test_process_counter_child_is_gone_when_stop_returns():
    counter = ProcessCounter()
    counter.start()
    child = counter._proc
    assert child.poll() is None
    counter.stop()
    assert child.poll() is not None


def _running(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:  # an exited process nobody has reaped yet is a zombie
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def test_process_counter_child_exits_with_its_parent():
    """A recorder that dies without stop() leaves no spinning child."""
    script = (
        "from repro.core.counter import ProcessCounter\n"
        "counter = ProcessCounter()\n"
        "counter.start()\n"
        "print(counter._proc.pid, flush=True)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    ).stdout
    pid = int(out.split()[-1])
    deadline = time.monotonic() + 2.0
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _running(pid)


def test_perf_counter_clock_is_monotonic_ns():
    clock = PerfCounterClock()
    clock.start()
    a = clock.read()
    b = clock.read()
    clock.stop()
    assert b >= a
    assert clock.ticks_to_ns(100) == 100.0
