"""TEE-Perf itself: the paper's four-stage profiler.

* stage 1 — :mod:`repro.core.instrument`: the compiler pass;
* stage 2 — :mod:`repro.core.recorder` + :mod:`repro.core.counter` +
  :mod:`repro.core.log`: the run-time recorder, software counter and
  shared-memory log (Figure 2);
* stage 3 — :mod:`repro.core.analyzer` + :mod:`repro.core.query`: the
  offline analyzer and its declarative query interface;
* stage 4 — :mod:`repro.core.flamegraph`: Flame Graph output.

:class:`~repro.core.profiler.TEEPerf` ties the stages together.

The user-facing classes — TEEPerf, Analyzer, Recorder, LiveRecorder,
SharedLog, FlameGraph, open_log — live behind :mod:`repro.api` (or
their home modules, e.g. ``repro.core.analyzer.Analyzer``); this
package does not re-export them.  The supporting cast (constants,
column codecs, counters, exporters, markers) keeps its home here.
"""

from repro.core.analyzer import Analysis, CallRecord, MethodStats
from repro.core.diff import AnalysisDiff, MethodDelta
from repro.core.reconstruct import RecordColumns, reconstruct_vector
from repro.core.export import (
    to_callgrind,
    to_gprof,
    to_json,
    to_metrics,
    to_speedscope,
)
from repro.core.stats import PipelineStats
from repro.core.counter import (
    PerfCounterClock,
    ProcessCounter,
    VirtualCounter,
)
from repro.core.errors import (
    AnalyzerError,
    LogFormatError,
    RecorderError,
    RecoveryError,
    TEEPerfError,
)
from repro.core.flamegraph import fold_stacks
from repro.core.instrument import (
    Instrumenter,
    InstrumentedProgram,
    no_instrument,
    symbol,
)
from repro.core.log import (
    DEFAULT_CHUNK_ENTRIES,
    DEFAULT_WRITER_BLOCK,
    ENTRY_SIZE,
    HEADER_SIZE,
    KIND_CALL,
    KIND_RET,
    LogColumns,
    LogEntry,
    LogStream,
    ThreadLogWriter,
    decode_columns,
)
from repro.core.query import QuerySession


__all__ = [
    "Analysis",
    "AnalysisDiff",
    "AnalyzerError",
    "MethodDelta",
    "to_callgrind",
    "to_gprof",
    "to_json",
    "to_metrics",
    "to_speedscope",
    "CallRecord",
    "DEFAULT_CHUNK_ENTRIES",
    "DEFAULT_WRITER_BLOCK",
    "ENTRY_SIZE",
    "HEADER_SIZE",
    "Instrumenter",
    "InstrumentedProgram",
    "KIND_CALL",
    "KIND_RET",
    "LogColumns",
    "LogEntry",
    "LogFormatError",
    "LogStream",
    "MethodStats",
    "PerfCounterClock",
    "PipelineStats",
    "ProcessCounter",
    "QuerySession",
    "RecordColumns",
    "RecorderError",
    "RecoveryError",
    "reconstruct_vector",
    "TEEPerfError",
    "ThreadLogWriter",
    "VirtualCounter",
    "decode_columns",
    "fold_stacks",
    "no_instrument",
    "symbol",
]
