"""Stage 2 — the recorder.

The recorder wrapper is the run-time half of TEE-Perf: it sets up the
shared-memory log between the measured application (inside the TEE) and
itself (native, on the host), starts the software counter, announces
the log through the instrumented program's hook slot (the paper's
globally accessible variable), and persists the log afterwards.

Two recorders share that lifecycle:

* :class:`Recorder` — simulation mode, used by the evaluation.  The
  counter is the virtual clock (its loop still costs a core) and every
  instrumentation event charges the platform's per-event cycles.
* :class:`LiveRecorder` — live mode for real Python programs: a
  counter process on a shared word (it runs only between ``start``
  and ``stop``) and wall-clock-free logging.

Note that the shared log lives in *untrusted host memory*: it is never
charged against the enclave's EPC, exactly as §II-B requires ("it
should not increase the TEE's memory, which is usually limited").
"""

import os

from repro.core.counter import ProcessCounter, VirtualCounter
from repro.core.errors import RecorderError
from repro.core.instrument import LiveHooks, SimHooks
from repro.core.log import DEFAULT_WRITER_BLOCK, SharedLog, VERSION
from repro.core.stats import PipelineStats

DEFAULT_CAPACITY = 1 << 20  # entries
DEFAULT_PID = 4242


class _RecorderBase:
    """Shared lifecycle: idle -> started -> stopped.

    An optional :class:`repro.monitor.Monitor` can be handed in; the
    recorder then attaches live samplers for itself and its counter on
    ``start`` (replacing any previous run's, so re-recording under the
    same monitor is idempotent) and takes one final sampling pass on
    ``stop`` so the series capture the terminal state.
    """

    def __init__(
        self,
        program,
        capacity,
        pid,
        version=VERSION,
        monitor=None,
        writer_block=0,
        sealed=False,
        options=None,
    ):
        # A RecordOptions object is the one-stop configuration: when
        # given, it supplies capacity/pid/version/sealed and the event
        # mask, overriding the individual kwargs; its writer_block
        # overrides too unless it is None (the recorder's default).
        if options is not None:
            capacity = options.capacity
            pid = options.pid
            version = options.version
            if options.writer_block is not None:
                writer_block = options.writer_block
            sealed = options.sealed
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        if writer_block < 0:
            raise ValueError(
                f"writer_block must be >= 0: {writer_block}"
            )
        self.program = program
        self.capacity = capacity
        self.pid = pid
        self.version = version
        self.monitor = monitor
        self.writer_block = writer_block
        self.sealed = sealed
        self.options = options
        self.log = None
        self.loaded = None
        self.hooks = None
        self._started = False

    def start(self):
        """Map the shared memory, arm the hooks, start the counter."""
        if self._started:
            raise RecorderError("recorder already started")
        self.loaded = self.program.image.load(self._aslr_seed())
        self.log = SharedLog.create(
            self.capacity,
            pid=self.pid,
            profiler_addr=self.loaded.profiler_addr,
            version=self.version,
            sealed=self.sealed,
        )
        if self.options is not None and not (
            self.options.calls and self.options.rets
        ):
            self.log.set_event_mask(
                calls=self.options.calls, rets=self.options.rets
            )
        self.counter.start()
        self.hooks = self._make_hooks()
        self.program.hooks.arm(self.hooks, self.loaded.offset)
        self.log.set_active(True)
        self._started = True
        if self.monitor is not None:
            self._attach_monitor(self.monitor)
            self.monitor.poll_once()

    def stop(self):
        """Stop recording and detach from the application."""
        if not self._started:
            raise RecorderError("recorder not started")
        self.log.set_active(False)
        self.program.hooks.disarm()
        # Staged-but-unflushed blocks commit before the tail is stored:
        # events accepted at staging time are never lost to teardown.
        self.hooks.flush()
        self.counter.stop()
        self.log._store_tail()
        # A clean stop leaves the whole committed extent sealed: any
        # region still unsealed in a snapshot therefore belongs to a
        # run that crashed, which is exactly what recovery quarantines.
        if self.log.sealed:
            self.log.seal_remainder()
        self._started = False
        if self.monitor is not None:
            self.monitor.poll_once()

    def _attach_monitor(self, monitor):
        """Attach this recorder's live sources to `monitor`."""
        from repro.monitor import CounterSampler, RecorderSampler

        monitor.attach(RecorderSampler(self))
        monitor.attach(CounterSampler(self.counter))

    def pause(self):
        """Dynamically deactivate tracing (flags stay writable while
        the application runs — §II-B)."""
        self._require_started()
        self.log.set_active(False)
        # Committing staged blocks here keeps a pause -> inspect cycle
        # honest: everything accepted so far is visible in the log.
        self.hooks.flush()
        if self.log.sealed:
            self.log._store_tail()
            self.log.seal_remainder()

    def resume(self):
        """Re-activate tracing."""
        self._require_started()
        self.log.set_active(True)

    def persist(self, path, compress=False):
        """Write the entire log to persistent storage for the analyzer.

        With ``compress=True`` the image is written in the rev 1.2
        columnar format (:func:`repro.core.columnar.encode_log`) —
        typically 3–5× smaller; ``open_log()`` and the analyzer read
        either format transparently.  Returns the bytes written.
        """
        if self.log is None:
            raise RecorderError("nothing recorded yet")
        if self.hooks is not None:
            self.hooks.flush()
        if compress:
            from repro.core.columnar import encode_log

            image = encode_log(self.log)
            with open(path, "wb") as fh:
                fh.write(image)
            written = len(image)
        else:
            self.log.dump(path)
            written = os.path.getsize(path)
        self._bytes_on_disk = written
        return written

    def events_recorded(self):
        return len(self.log) if self.log is not None else 0

    def events_dropped(self):
        return self.log.dropped if self.log is not None else 0

    def pipeline_stats(self):
        """Recorder-side pipeline counters, ready for the analyzer to
        extend: what reached the log, and what was lost *before*
        analysis even starts (events dropped when the log's
        reservation counter overflowed, including staged events whose
        block straddled the capacity boundary at flush)."""
        pool = getattr(self.hooks, "pool", None)
        return PipelineStats(
            entries_recorded=self.events_recorded(),
            entries_dropped=self.events_dropped(),
            blocks_flushed=pool.blocks_flushed() if pool else 0,
            writer_block=self.writer_block,
            bytes_written=(
                self.events_recorded() * self.log.entry_size
                if self.log is not None
                else 0
            ),
            bytes_on_disk=getattr(self, "_bytes_on_disk", 0),
        )

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        if self._started:
            self.stop()
        return False

    def _require_started(self):
        if not self._started:
            raise RecorderError("recorder not started")

    def _aslr_seed(self):
        return 1

    def _make_hooks(self):
        raise NotImplementedError


class Recorder(_RecorderBase):
    """Simulation-mode recorder: virtual counter, per-event cycle cost.

    Parameters
    ----------
    machine, env:
        The simulated machine and the environment the application runs
        in; the per-event instrumentation cost comes from the
        environment's platform (it is higher inside an enclave, where
        the entry write crosses to untrusted memory).
    """

    def __init__(
        self,
        machine,
        env,
        program,
        capacity=DEFAULT_CAPACITY,
        pid=DEFAULT_PID,
        counter=None,
        aslr_seed=1,
        version=VERSION,
        monitor=None,
        writer_block=0,
        sealed=False,
        options=None,
    ):
        # Simulation defaults to the per-event path (writer_block=0):
        # regenerated figures stay byte-deterministic regardless of
        # batching.  Pass writer_block>0 to exercise the batched path.
        super().__init__(
            program, capacity, pid, version, monitor, writer_block,
            sealed, options,
        )
        self.machine = machine
        self.env = env
        self.counter = counter or VirtualCounter(machine)
        self._seed = aslr_seed

    def _attach_monitor(self, monitor):
        from repro.monitor import TeeCostSampler

        super()._attach_monitor(monitor)
        monitor.attach(TeeCostSampler(self.env))

    def _aslr_seed(self):
        return self._seed

    def _make_hooks(self):
        return SimHooks(
            self.log,
            self.counter,
            self.machine,
            self.env.costs.instrument_event_cycles,
            writer_block=self.writer_block,
        )


class LiveRecorder(_RecorderBase):
    """Live-mode recorder for real Python programs.

    The default counter is a :class:`~repro.core.counter.ProcessCounter`:
    its child process is spawned at :meth:`start` and gone by the time
    :meth:`stop` returns, so it owns a core only while recording.
    """

    def __init__(
        self,
        program,
        capacity=DEFAULT_CAPACITY,
        pid=DEFAULT_PID,
        counter=None,
        version=VERSION,
        monitor=None,
        writer_block=DEFAULT_WRITER_BLOCK,
        sealed=False,
        options=None,
    ):
        # Live mode defaults to batched per-thread writers: real wall
        # clock is on the line, so the amortised path is the default.
        super().__init__(
            program, capacity, pid, version, monitor, writer_block,
            sealed, options,
        )
        self.counter = counter or ProcessCounter()

    def _make_hooks(self):
        return LiveHooks(
            self.log, self.counter, writer_block=self.writer_block
        )
