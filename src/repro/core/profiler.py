"""The TEE-Perf facade: all four stages behind one handle.

Typical simulated-mode use (the evaluation's configuration)::

    from repro.api import TEEPerf
    from repro.tee import SGX_V1

    perf = TEEPerf.simulated(platform=SGX_V1, cores=8)
    perf.compile_instance(workload)        # stage 1
    perf.record(workload.run)              # stage 2
    analysis = perf.analyze()              # stage 3
    print(analysis.report())
    perf.flamegraph().write_svg("out.svg") # stage 4

Live mode profiles real Python code the same way, with a counter
process on a shared word instead of the virtual clock::

    perf = TEEPerf.live()
    perf.compile_module(my_module)
    perf.record(my_module.main)
    print(perf.analyze().report())
    perf.uninstrument()
"""

from repro.core.analyzer import Analyzer
from repro.core.errors import RecorderError, TEEPerfError
from repro.core.flamegraph import FlameGraph
from repro.core.instrument import Instrumenter
from repro.core.query import QuerySession
from repro.core.recorder import DEFAULT_CAPACITY, LiveRecorder, Recorder
from repro.machine import Machine
from repro.tee import NATIVE, make_env


class TEEPerf:
    """One profiling pipeline: compile, record, analyze, visualize."""

    def __init__(
        self,
        recorder_factory,
        instrumenter,
        machine=None,
        env=None,
        monitor=None,
    ):
        self._recorder_factory = recorder_factory
        self._instrumenter = instrumenter
        self.machine = machine
        self.env = env
        self.monitor = monitor
        self.program = None
        self.recorder = None
        self._analysis = None

    # ------------------------------------------------------------------
    # Constructors

    @classmethod
    def simulated(
        cls,
        platform=NATIVE,
        cores=8,
        machine=None,
        capacity=DEFAULT_CAPACITY,
        select=None,
        name="a.out",
        aslr_seed=1,
        monitor=None,
        writer_block=0,
        sealed=False,
        record=None,
    ):
        """A profiler for workloads on the simulated machine.

        `platform` picks the TEE cost model the workload runs under;
        the profiler itself stays platform-independent.  Passing a
        :class:`repro.monitor.Monitor` attaches live samplers for the
        recorder, counter, TEE cost model and (after ``analyze``) the
        pipeline stats.  Events go through per-thread writers;
        ``writer_block > 1`` batches them (default: blocks of one, the
        per-event case, which keeps simulated runs byte-deterministic
        and seals every entry of a sealed log as it commits);
        ``sealed=True`` records crash-consistent sealed segments.  A
        :class:`repro.core.options.RecordOptions` passed as `record`
        configures all of that in one object (and wins over the
        individual kwargs).
        """
        machine = machine or Machine(cores=cores)
        env = make_env(machine, platform)

        def factory(program):
            return Recorder(
                machine,
                env,
                program,
                capacity=capacity,
                aslr_seed=aslr_seed,
                monitor=monitor,
                writer_block=writer_block,
                sealed=sealed,
                options=record,
            )

        return cls(
            factory,
            Instrumenter(name, select=select),
            machine=machine,
            env=env,
            monitor=monitor,
        )

    @classmethod
    def live(
        cls, capacity=DEFAULT_CAPACITY, select=None, name="a.out",
        monitor=None, writer_block=None, sealed=False, record=None,
    ):
        """A profiler for real (unsimulated) Python code.

        `writer_block` sizes the per-thread batched writers (default:
        :data:`repro.core.log.DEFAULT_WRITER_BLOCK`); ``0`` commits
        blocks of one entry, the per-event case, each counted in
        ``PipelineStats.blocks_flushed``.  `sealed` and `record`
        mirror :meth:`simulated`.
        """
        kwargs = {}
        if writer_block is not None:
            kwargs["writer_block"] = writer_block

        def factory(program):
            return LiveRecorder(
                program, capacity=capacity, monitor=monitor,
                sealed=sealed, options=record, **kwargs
            )

        return cls(factory, Instrumenter(name, select=select), monitor=monitor)

    @classmethod
    def auto(cls, scope=None, capacity=DEFAULT_CAPACITY, version=None):
        """A zero-setup live profiler for *unmodified* Python code.

        No compile stage: the interpreter's profile hook supplies the
        call/return events, and functions are laid out in the image the
        first time they execute.  `scope` restricts tracing to your own
        modules (a prefix string, a list of prefixes, or a predicate on
        the module name).
        """
        from repro.core.autotrace import AutoRecorder, AutoTracer

        tracer = AutoTracer(scope=scope)

        def factory(program):
            return AutoRecorder(tracer, capacity=capacity, version=version)

        profiler = cls(factory, None)
        profiler.program = tracer.program
        return profiler

    # ------------------------------------------------------------------
    # Stage 1: compile

    def compile_module(self, module, prefix=None):
        """Instrument every function defined in `module`."""
        self._require_instrumenter().instrument_module(module, prefix=prefix)
        return self

    def compile_instance(self, obj, prefix=None):
        """Instrument the methods of `obj`."""
        self._require_instrumenter().instrument_instance(obj, prefix=prefix)
        return self

    def compile_class(self, cls, prefix=None):
        """Instrument the methods of `cls` for all its instances."""
        self._require_instrumenter().instrument_class(cls, prefix=prefix)
        return self

    def compile_function(self, func, owner, attr, prefix=None):
        """Instrument one function bound at ``owner.attr``."""
        self._require_instrumenter().instrument_function(
            func, owner, attr, prefix
        )
        return self

    def _require_instrumenter(self):
        if self._instrumenter is None:
            raise TEEPerfError(
                "this profiler auto-traces: there is no compile stage"
            )
        return self._instrumenter

    # ------------------------------------------------------------------
    # Stage 2: record

    def record(self, entry, *args, **kwargs):
        """Run ``entry(*args, **kwargs)`` under the recorder.

        In simulated mode the entry function becomes the machine's root
        thread; in live mode it is called directly.  Returns the entry
        function's result.
        """
        if self.program is None:
            self.program = self._instrumenter.finish()
        self.recorder = self._recorder_factory(self.program)
        self._analysis = None
        with self.recorder:
            if self.machine is not None:
                return self.machine.run(entry, *args, kwargs=kwargs)
            return entry(*args, **kwargs)

    def pause(self):
        self._require_recorder().pause()

    def resume(self):
        self._require_recorder().resume()

    def persist(self, path, image_path=None):
        """Write the raw log — and the simulated binary's symbol table
        — to disk, so ``tee-perf analyze`` can work fully offline.

        `image_path` defaults to ``<path>.symtab.json``; pass False to
        skip the image.
        """
        self._require_recorder().persist(path)
        if image_path is not False:
            image_path = image_path or f"{path}.symtab.json"
            with open(image_path, "w") as fh:
                fh.write(self.program.image.to_json())

    # ------------------------------------------------------------------
    # Stage 3: analyze

    def analyze(self, log=None, jobs=1, chunk_size=None, recover="off",
                options=None):
        """Analyze the last recording (or an explicit log/path).

        `jobs` widens the analyzer's per-thread shard pool; `recover`
        salvages a damaged log first (``"auto"``) or refuses damage
        (``"strict"``) — see
        :meth:`~repro.core.analyzer.Analyzer.analyze`.  An
        :class:`~repro.core.options.AnalyzeOptions` passed as
        `options` wins over the individual kwargs.  The resulting
        ``analysis.pipeline`` carries the recorder's counters (events
        dropped at record time) merged with the analyzer's.
        """
        if self.program is None:
            if not self._instrumenter.program.functions:
                raise TEEPerfError("nothing compiled yet")
            raise RecorderError("no recording was made yet")
        recorder = self._require_recorder() if log is None else None
        source = log if log is not None else recorder.log
        stats = recorder.pipeline_stats() if recorder is not None else None
        analyzer = Analyzer(self.program.image, tick_ns=self._tick_ns())
        self._analysis = analyzer.analyze(
            source, jobs=jobs, chunk_size=chunk_size, stats=stats,
            recover=recover, options=options,
        )
        if self.monitor is not None and self._analysis.pipeline is not None:
            from repro.monitor import PipelineSampler

            self.monitor.attach(PipelineSampler(self._analysis.pipeline))
            self.monitor.poll_once()
        return self._analysis

    def query(self):
        """An interactive-style query session over the last analysis."""
        return QuerySession(self._last_analysis())

    # ------------------------------------------------------------------
    # Stage 4: visualize

    def flamegraph(self, title=None):
        analysis = self._last_analysis()
        return FlameGraph.from_analysis(
            analysis, title=title or f"TEE-Perf: {self.program.name}"
        )

    # ------------------------------------------------------------------
    # Housekeeping

    def uninstrument(self):
        """Restore every patched function (clean rebuild)."""
        if self.program is not None:
            self.program.restore_all()

    def events_recorded(self):
        return self._require_recorder().events_recorded()

    def _tick_ns(self):
        if self.recorder is not None and hasattr(
            self.recorder.counter, "resolution_ns"
        ):
            return self.recorder.counter.resolution_ns() or 1.0
        return 1.0

    def _require_recorder(self):
        if self.recorder is None:
            raise RecorderError("no recording was made yet")
        return self.recorder

    def _last_analysis(self):
        if self._analysis is None:
            return self.analyze()
        return self._analysis
