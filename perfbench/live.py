"""The live-record phase: a generated program under ``TEEPerf.live()``.

One repetition runs the program uninstrumented, then compiled and
recorded at library defaults, then persists the log with
``Recorder.persist`` in the default format, and checks the recording:
the program's checksums are unchanged, no event was dropped, every
function's call count equals what the generator expects, and the
exclusive ticks add up to the root calls' inclusive ticks.

The traced run adds the MooBench-style ladder (rungs a-e, each a full
run of the same program):

a. uninstrumented;
b. compiled, not recording (the wrappers' pass-through);
c. recording with the event mask off — the counter thread, the lower
   switch interval and the hook's early exit, but no log writes;
d. full recording;
e. persist.

Each rung is reported as ns/event over the rung below it.  Every
recording rung passes ``writer_block=DEFAULT_WRITER_BLOCK`` explicitly:
``RecordOptions`` defaults it to 0, not to the live default of 256.
"""

import importlib.util
import os
import threading
import time

from repro.api import TEEPerf
from repro.core.instrument import Instrumenter
from repro.core.log import DEFAULT_WRITER_BLOCK, SharedLog, ThreadLogWriter
from repro.core.options import RecordOptions
from repro.core.recorder import LiveRecorder

import gen
from common import (
    PhaseResult, call_counts, decompose, diff_counts, median, timed,
)

THREADS = 2
#: Persists per recording in the traced run: a persist takes tens of
#: milliseconds, and the median over many keeps a slow write from
#: setting ``log.persist_ns_per_event``.  The untraced run persists
#: once, as a user does: each persist writes the whole capacity, and
#: more of that writeback would slow the other steps.
PERSISTS = 5


class Program:
    """A generated module, written to `workdir` and imported."""

    def __init__(self, seed, events, workdir):
        source, self.expected = gen.program_source(
            seed, target_events=events, threads=THREADS
        )
        name = f"perfbench_prog_{seed}"
        path = os.path.join(workdir, f"{name}.py")
        with open(path, "w") as fh:
            fh.write(source)
        spec = importlib.util.spec_from_file_location(name, path)
        self.module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.module)

    def drive(self):
        """Run the program on :data:`THREADS` threads; returns the
        per-thread checksums."""
        run, reps = self.module.run, self.expected["reps"]
        out = [None] * THREADS

        def body(i):
            out[i] = run(reps, i + 1)

        threads = [
            threading.Thread(target=body, args=(i,)) for i in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return out


def check_recording(expected, analysis, calls, stats, checksums,
                    reference):
    """Every way a recording can be wrong, as a list of messages."""
    problems = []
    if checksums != reference:
        problems.append("program output changed under recording")
    if stats.entries_dropped:
        problems.append(f"{stats.entries_dropped} events dropped")
    if stats.entries_recorded != expected["events"]:
        problems.append(
            f"{stats.entries_recorded} events, expected {expected['events']}"
        )
    wrong = diff_counts(calls, expected["calls"])
    if wrong:
        problems.append(f"call counts differ for {wrong[:5]}")
    if analysis.total_exclusive() != analysis.method("run").inclusive:
        problems.append("exclusive ticks do not add up to the root calls")
    return problems


def _compile(program, options=None):
    perf = TEEPerf.live(record=options)
    perf.compile_module(program.module)
    return perf


def _record(program, log_path, persists):
    """Rungs d and e at library defaults: compile, record, persist
    `persists` times, analyze; returns timings and what the checks
    need."""
    setup_s, perf = timed(_compile, program)
    try:
        record_s, checksums = timed(perf.record, program.drive)
        stats = perf.recorder.pipeline_stats()
        persist_s = []
        for _ in range(persists):
            # A fresh file each time: truncating the previous image
            # could wait on its writeback, which is not persist's cost.
            if os.path.exists(log_path):
                os.remove(log_path)
            persist_s.append(timed(perf.recorder.persist, log_path)[0])
        analysis = perf.analyze()
    finally:
        perf.uninstrument()
    return {
        "setup_s": setup_s,
        "record_s": record_s,
        "persist_s": persist_s,
        "checksums": checksums,
        "stats": stats,
        "analysis": analysis,
        "bytes_on_disk": os.path.getsize(log_path),
    }


def _passthrough(program):
    """Rung b: compiled, never armed (the same compile stage
    ``TEEPerf.compile_module`` runs, without a recorder)."""
    instrumenter = Instrumenter()
    instrumenter.instrument_module(program.module)
    try:
        return timed(program.drive)[0]
    finally:
        instrumenter.finish().restore_all()


def _masked(program):
    """Rung c: recording with both event kinds masked off."""
    perf = _compile(program, RecordOptions(
        calls=False, rets=False, writer_block=DEFAULT_WRITER_BLOCK,
    ))
    try:
        return timed(perf.record, program.drive)[0]
    finally:
        perf.uninstrument()


def writer_append_ns(n=200_000):
    """``ThreadLogWriter.append`` alone: ns per call, net of the
    loop that drives it."""
    log = SharedLog.create(n)
    append = ThreadLogWriter(log, DEFAULT_WRITER_BLOCK).append
    start = time.perf_counter_ns()
    for i in range(n):
        append(0, i, 0x400000, 1)
    loaded = time.perf_counter_ns() - start
    start = time.perf_counter_ns()
    for i in range(n):
        pass
    empty = time.perf_counter_ns() - start
    return (loaded - empty) / n


class LivePhase:
    """The live-record step; :meth:`step` runs one repetition.

    Layer metrics are measured only when a `tracer` is given.
    `tamper` (a self-check hook) may edit each recording's call counts
    before the checks run.
    """

    min_reps = 3

    def __init__(self, program, workdir, tracer=None, tamper=None):
        self.program = program
        self.log_path = os.path.join(workdir, "live.teeperf")
        self.tracer = tracer
        self.tamper = tamper
        self.result = PhaseResult()
        self.reps = []

    def step(self):
        program, tracer = self.program, self.tracer
        before_s, reference = timed(program.drive)
        rep = _record(
            program, self.log_path, PERSISTS if tracer is not None else 1
        )
        # The uninstrumented runs on both sides of the recording pair
        # with it, so a drift in machine speed cancels in the ratio.
        rep["base_s"] = (before_s + timed(program.drive)[0]) / 2
        analysis = rep.pop("analysis")
        calls = call_counts(analysis)
        if self.tamper is not None:
            calls = self.tamper(calls)
        self.result.problems += check_recording(
            program.expected, analysis, calls, rep["stats"],
            rep.pop("checksums"), reference,
        )[:1]
        if tracer is not None:
            rep["wrap_s"] = _passthrough(program)
            rep["masked_s"] = _masked(program)
            tracer.wrap(TEEPerf, "record", "live.record")
            tracer.wrap(LiveRecorder, "persist", "log.persist")
            try:
                _record(program, self.log_path, PERSISTS)
            finally:
                tracer.unwrap()
            rep["traced_s"] = tracer.durations("live.record")[-1] + median(
                tracer.durations("log.persist")[-PERSISTS:]
            )
        self.reps.append(rep)

    @property
    def done(self):
        """Repetitions run so far."""
        return len(self.reps)

    def finish(self):
        reps, result = self.reps, self.result
        result.attempted = len(reps)
        result.setup = [r["setup_s"] for r in reps]

        def med(key):
            return median([r[key] for r in reps])

        result.metrics = {
            "record_slowdown": median(
                [r["record_s"] / r["base_s"] for r in reps]
            ),
            "persist_s": median([t for r in reps for t in r["persist_s"]]),
        }
        if self.tracer is None:
            return result
        events = self.program.expected["events"]
        stats = reps[-1]["stats"]
        base, wrap, masked = med("base_s"), med("wrap_s"), med("masked_s")
        full, persist = med("record_s"), result.metrics["persist_s"]
        rungs = {
            "program": base,
            "instrument": wrap - base,
            "counter": masked - wrap,
            "log_write": full - masked,
            "log_persist": persist,
        }
        result.layers = {
            "instrument.wrap_ns_per_event":
                rungs["instrument"] / events * 1e9,
            "counter.masked_ns_per_event": rungs["counter"] / events * 1e9,
            "log.write_ns_per_event": rungs["log_write"] / events * 1e9,
            "log.writer_append_ns": writer_append_ns(),
            "log.persist_ns_per_event": persist / events * 1e9,
            "log.persist_bytes_on_disk": reps[-1]["bytes_on_disk"],
            "log.bytes_written": stats.bytes_written,
            "live.events": stats.entries_recorded,
            "live.dropped": stats.entries_dropped,
            "live.blocks_flushed": stats.blocks_flushed,
        }
        result.layers.update(
            decompose("live", med("traced_s"), full + persist, rungs)
        )
        return result
