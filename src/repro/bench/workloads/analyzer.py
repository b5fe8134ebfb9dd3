"""Analyzer-scaling measurement core: entries/s across ``jobs``.

Builds the clean multi-thread log the scaling benchmark measures and
times the analyzer on it, single-worker and on its thread pool.  Sizes
are parameters so the standalone script keeps its paper-sized
512k-entry log while the suite harness runs a smaller one per
repetition.
"""

import time

from repro.api import Analyzer, SharedLog
from repro.core import KIND_CALL, KIND_RET, LogStream, ThreadLogWriter
from repro.symbols import BinaryImage

from repro.bench.timing import best_of

__all__ = [
    "VECTOR_FLOOR",
    "analyze_sample",
    "build_image",
    "build_log",
    "run_matrix",
]

#: Acceptance floor, entries/s of single-worker ``Analyzer.analyze``
#: on the clean log: 4x the rate the deleted entry-at-a-time engine
#: reached on the 2-core reference host (its median over 21 samples
#: on the smoke-sized log, the fastest of the three size profiles,
#: was 285k entries/s).
VECTOR_FLOOR = 1_140_000.0

#: Paper-sized defaults (the standalone script's log: 8 * 32k * 2 =
#: 512k entries over 48 functions).
THREADS = 8
FRAMES_PER_THREAD = 32_000
FUNCTIONS = 48


def build_image(functions=FUNCTIONS):
    image = BinaryImage("scaling")
    for i in range(functions):
        image.add_function(f"app::Fn{i:02d}()", size=64)
    return image


def build_log(image, threads=THREADS, frames_per_thread=FRAMES_PER_THREAD):
    """A clean log: nested call trees on every thread (entries =
    ``threads * frames_per_thread * 2``)."""
    functions = len(list(image.symtab))
    addrs = [sym.addr for sym in image.symtab]
    log = SharedLog.create(
        threads * frames_per_thread * 2,
        profiler_addr=image.profiler_addr,
    )
    with ThreadLogWriter(log) as writer:
        append = writer.append
        for tid in range(threads):
            counter = tid  # desynchronise threads a little
            stack = []
            opened = 0
            while opened < frames_per_thread or stack:
                counter += 3
                # Deterministic open/close pattern: grow to depth 6, drain.
                if opened < frames_per_thread and len(stack) < 6:
                    addr = addrs[(opened * 7 + tid) % functions]
                    stack.append(addr)
                    append(KIND_CALL, counter, addr, tid)
                    opened += 1
                else:
                    append(KIND_RET, counter, stack.pop(), tid)
    return log


def analyze_sample(analyzer, log):
    """One single-worker analysis of `log`, returning ``(entries/s,
    analysis)``.  The caller checks the analysis — correctness stays
    outside the timed region."""
    start = time.perf_counter()
    analysis = analyzer.analyze(log)
    return len(log) / (time.perf_counter() - start), analysis


def run_matrix(analyzer, log, stream_path, repeats):
    """One row per ``jobs`` cell: ``(name, analysis, seconds)``.

    ``best_of`` keeps the result of the *last* call per cell; all
    calls are equivalent by the differential guarantee the caller
    asserts."""

    def timed_cell(fn):
        result = []

        def body():
            result.append(fn())

        elapsed = best_of(body, repeats)
        return result[-1], elapsed

    cells = []
    cells.append(("vector j=1", *timed_cell(lambda: analyzer.analyze(log))))
    cells.append(
        ("vector j=4", *timed_cell(lambda: analyzer.analyze(log, jobs=4)))
    )
    if stream_path is not None:

        def analyze_mapped():
            with LogStream.open(str(stream_path)) as stream:
                return analyzer.analyze(stream, jobs=4)

        cells.append(("vector j=4 (mmap)", *timed_cell(analyze_mapped)))
    return cells


def make_analyzer(image):
    return Analyzer(image)
