"""Analyzer-scaling measurement core: the engine × jobs matrix.

Builds the clean multi-thread log the scaling benchmark measures and
times reconstruction engines against each other.  Sizes are
parameters so the standalone script keeps its paper-sized 512k-entry
log while the suite harness runs a smaller one per repetition.
"""

import time

from repro.api import Analyzer, SharedLog
from repro.core import KIND_CALL, KIND_RET, LogStream
from repro.symbols import BinaryImage

from repro.bench.timing import best_of

__all__ = [
    "VECTOR_FLOOR",
    "build_image",
    "build_log",
    "run_matrix",
    "vector_speedup_sample",
]

#: acceptance floor: vectorised reconstruction >= 4x the sequential
#: loop single-threaded.
VECTOR_FLOOR = 4.0

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
    append = log.append
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


def vector_speedup_sample(analyzer, log):
    """One paired measurement: sequential ``python`` engine vs the
    ``vector`` kernel, both single-worker, returning
    ``(t_python, t_vector, analyses)``.  The caller asserts the two
    analyses agree — correctness stays outside the timed region."""
    start = time.perf_counter()
    sequential = analyzer.analyze(log, engine="python")
    t_python = time.perf_counter() - start
    start = time.perf_counter()
    vector = analyzer.analyze(log, engine="vector")
    t_vector = time.perf_counter() - start
    return t_python, t_vector, (sequential, vector)


def run_matrix(analyzer, log, stream_path, repeats):
    """One row per (engine, jobs) cell: ``(name, analysis, seconds)``.

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
    cells.append(
        ("python j=1", *timed_cell(
            lambda: analyzer.analyze(log, engine="python")
        ))
    )
    cells.append(
        ("vector j=1", *timed_cell(
            lambda: analyzer.analyze(log, engine="vector")
        ))
    )
    cells.append(
        ("vector j=4", *timed_cell(
            lambda: analyzer.analyze(log, engine="vector", jobs=4)
        ))
    )
    if stream_path is not None:
        cells.append(
            ("vector j=4 (mmap)", *timed_cell(
                lambda: analyzer.analyze(
                    LogStream.open(str(stream_path)), engine="vector",
                    jobs=4,
                )
            ))
        )
    return cells


def make_analyzer(image):
    return Analyzer(image)
