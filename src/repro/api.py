"""The public API of the TEE-Perf reproduction, in one place.

Everything a user of the profiler needs sits behind this module::

    from repro.api import TEEPerf, AnalyzeOptions

    perf = TEEPerf.simulated(cores=8)
    perf.compile_instance(workload)
    perf.record(workload.run)
    print(perf.analyze(options=AnalyzeOptions(jobs=4)).report())

The facade is a *names* contract, not a new layer: every symbol here
is the same object as its home module's, so isinstance checks and
monkeypatching keep working.  The home modules remain importable —
``repro.core.analyzer.Analyzer`` is fine forever — but the
``repro.core`` package does not re-export these names
(``from repro.core import TEEPerf`` fails).

What belongs here:

* the four-stage pipeline — :class:`TEEPerf` (alias
  :data:`Profiler`), :class:`Recorder`, :class:`LiveRecorder`,
  :class:`Analyzer`, :class:`Analysis`, :class:`FlameGraph`,
  :class:`QuerySession`;
* the log and its persistence — :class:`SharedLog`,
  :func:`open_log`;
* crash recovery — :func:`recover_log`, :func:`repair_tails`,
  :class:`RecoveryReport`, :class:`QuarantinedRange`;
* differential profiling — :class:`AnalysisDiff`,
  :class:`MethodDelta` (also ``tee-perf diff`` on the command line);
* the fleet service — :class:`FleetDaemon`, :class:`FleetClient`,
  :class:`FleetServer`, :class:`IngestListener`,
  :class:`WindowStore`, :class:`PathTable`,
  :class:`FoldedProfile` (see docs/fleet.md);
* configuration — :class:`RecordOptions`, :class:`AnalyzeOptions`;
* instrumentation markers — :func:`symbol`, :func:`no_instrument`;
* counters and errors — :class:`PipelineStats` and the exception
  hierarchy rooted at :class:`TEEPerfError`;
* the evaluation driver — :func:`run_teeperf`;
* the deterministic machine — :class:`Machine` and the simulated
  sync primitives (:class:`SimLock`, :class:`SimAtomicU64`,
  :class:`SimBarrier`, :class:`SimCondition`, :class:`SimEvent`,
  :class:`SimRWLock`, :class:`SimSemaphore`), with
  :class:`DeadlockError` / :class:`LivelockError` as its liveness
  verdicts;
* schedule-space exploration — :class:`Explorer`,
  :class:`ExploreOptions`, :class:`ExploreReport`,
  :class:`SchedulePolicy` / :func:`make_policy` (see
  docs/exploration.md; ``tee-perf explore`` on the command line).
"""

from repro.core.analyzer import Analysis, Analyzer
from repro.core.diff import AnalysisDiff, MethodDelta
from repro.core.errors import (
    AnalyzerError,
    LogFormatError,
    RecorderError,
    RecoveryError,
    TEEPerfError,
)
from repro.core.flamegraph import FlameGraph
from repro.core.instrument import no_instrument, symbol
from repro.core.log import SharedLog, open_log
from repro.core.options import AnalyzeOptions, RecordOptions
from repro.core.profiler import TEEPerf
from repro.core.query import QuerySession
from repro.core.recorder import LiveRecorder, Recorder
from repro.core.recovery import (
    QuarantinedRange,
    RecoveryReport,
    recover_log,
    repair_tails,
)
from repro.core.stats import PipelineStats
from repro.explore import Explorer, ExploreOptions, ExploreReport
from repro.fleet import (
    FleetClient,
    FleetDaemon,
    FleetServer,
    FoldedProfile,
    IngestListener,
    PathTable,
    WindowStore,
)
from repro.machine import (
    DeadlockError,
    LivelockError,
    Machine,
    SchedulePolicy,
    SimAtomicU64,
    SimBarrier,
    SimCondition,
    SimEvent,
    SimLock,
    SimRWLock,
    SimSemaphore,
    make_policy,
)
from repro.phoenix.runner import run_teeperf

#: The profiler facade under its generic name.
Profiler = TEEPerf

__all__ = [
    "Analysis",
    "AnalysisDiff",
    "AnalyzeOptions",
    "Analyzer",
    "AnalyzerError",
    "DeadlockError",
    "ExploreOptions",
    "ExploreReport",
    "Explorer",
    "FlameGraph",
    "FleetClient",
    "FleetDaemon",
    "FleetServer",
    "FoldedProfile",
    "IngestListener",
    "LiveRecorder",
    "LivelockError",
    "LogFormatError",
    "Machine",
    "MethodDelta",
    "PathTable",
    "PipelineStats",
    "Profiler",
    "QuarantinedRange",
    "QuerySession",
    "RecordOptions",
    "Recorder",
    "RecorderError",
    "RecoveryError",
    "RecoveryReport",
    "SchedulePolicy",
    "SharedLog",
    "SimAtomicU64",
    "SimBarrier",
    "SimCondition",
    "SimEvent",
    "SimLock",
    "SimRWLock",
    "SimSemaphore",
    "TEEPerf",
    "TEEPerfError",
    "WindowStore",
    "make_policy",
    "no_instrument",
    "open_log",
    "recover_log",
    "repair_tails",
    "run_teeperf",
    "symbol",
]
