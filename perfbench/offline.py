"""The offline-analyze phase: a log on disk to a written flame graph.

This is the ``tee-perf analyze`` path: path -> ``Analyzer.analyze`` ->
``FlameGraph.from_analysis`` -> folded text and SVG written.  The log
is generated (8 threads, one short-lived thread left inside a call, so
its shard takes the sequential fallback) and written twice: as a
sealed rev 1.1 image and as a rev 1.2 compressed image.  Each
repetition turns the rev 1.1 file into a flame graph with ``jobs=1``
and ``jobs=2`` and the rev 1.2 file with ``jobs=1``, and checks every
analysis against the generator: per-method call counts and total
exclusive ticks.

Set-up is loading the symbol table and building the ``Analyzer``.

The untraced run gives all its repetitions to the first pipeline,
``to_flamegraph_s``, the only end-to-end metric of this step: on a
shared 2-core host a metric needs most of a step's seconds to read the
same from run to run.  The traced run cycles through all three, reports
the other two as per-layer metrics, repeats each pipeline with spans
around the layers' public entry points (open, decode, analyze,
flame-graph build, fold, SVG, write) and salvages the rev 1.1 file once
with ``recover_log``.
"""

import os

import repro.core.analyzer as analyzer_module
from repro.core.analyzer import Analyzer
from repro.core.columnar import ColumnarLog
from repro.core.flamegraph import FlameGraph
from repro.core.log import LogStream
from repro.core.recovery import recover_log
from repro.symbols import BinaryImage

import gen
from common import (
    PhaseResult, call_counts, decompose, diff_counts, median, timed,
)

THREADS = 8
#: Entries of the short-lived thread left inside a call at capture.
OPEN_THREAD_ENTRIES = 65_536

#: (metric, file, jobs) — one flame graph each per repetition.
PIPELINES = (
    ("to_flamegraph_s", "rev11", 1),
    ("to_flamegraph_jobs2_s", "rev11", 2),
    ("to_flamegraph_rev12_s", "rev12", 1),
)


class OfflineInput:
    """The generated log, written to `workdir` in both formats."""

    def __init__(self, seed, entries, workdir):
        log = gen.synthetic_log(
            seed, entries, THREADS,
            open_tail=min(OPEN_THREAD_ENTRIES, entries // 16),
            name="offline.bin",
        )
        self.entries = len(log)
        self.expected = log.expected()
        self.paths = {
            "rev11": os.path.join(workdir, "offline.rev11.teeperf"),
            "rev12": os.path.join(workdir, "offline.rev12.teeperf"),
        }
        with open(self.paths["rev11"], "wb") as fh:
            fh.write(log.rev11_bytes())
        with open(self.paths["rev12"], "wb") as fh:
            fh.write(log.rev12_bytes())
        self.symtab = os.path.join(workdir, "offline.symtab.json")
        with open(self.symtab, "w") as fh:
            fh.write(log.image.to_json())
        self.out = os.path.join(workdir, "offline.flame")


def load_analyzer(symtab_path):
    with open(symtab_path) as fh:
        return Analyzer(BinaryImage.from_json(fh.read()))


def to_flamegraph(analyzer, path, out, jobs):
    """The measured operation: log file -> folded + SVG on disk."""
    analysis = analyzer.analyze(path, jobs=jobs)
    graph = FlameGraph.from_analysis(analysis, title="perfbench")
    graph.write_folded(out + ".folded")
    graph.write_svg(out + ".svg")
    return analysis


def check_analysis(expected, analysis, calls):
    problems = []
    wrong = diff_counts(calls, expected["calls"])
    if wrong:
        problems.append(f"call counts differ for {wrong[:5]}")
    if analysis.total_exclusive() != expected["ticks"]:
        problems.append(
            f"{analysis.total_exclusive()} exclusive ticks, expected "
            f"{expected['ticks']}"
        )
    return problems


#: Layer spans of the traced pipeline: (owner, attribute, span name).
_SPANS = (
    (analyzer_module, "open_log", "log.open"),
    (Analyzer, "analyze", "analyzer.analyze"),
    (FlameGraph, "from_analysis", "flamegraph.build"),
    (FlameGraph, "write_folded", "flamegraph.write_folded"),
    (FlameGraph, "to_folded", "flamegraph.fold"),
    (FlameGraph, "write_svg", "flamegraph.write_svg"),
    (FlameGraph, "to_svg", "flamegraph.svg"),
)
_ITER_SPANS = (
    (LogStream, "iter_column_chunks", "log.decode"),
    (ColumnarLog, "iter_column_chunks", "columnar.decode"),
)


def _install(tracer):
    for owner, attr, name in _SPANS:
        tracer.wrap(owner, attr, name)
    for owner, attr, name in _ITER_SPANS:
        tracer.wrap_iter(owner, attr, name)


class OfflinePhase:
    """The offline-analyze step; :meth:`step` makes one flame graph,
    cycling through :data:`PIPELINES` (only the first when untraced)."""

    min_reps = 2

    def __init__(self, inp, tracer=None, tamper=None):
        self.inp = inp
        self.tracer = tracer
        self.tamper = tamper
        self.result = PhaseResult()
        self.pipelines = PIPELINES if tracer is not None else PIPELINES[:1]
        self.samples = {metric: [] for metric, _, _ in self.pipelines}
        self.traced = {metric: [] for metric, _, _ in self.pipelines}
        self.stats = {}
        self._next = 0

    def step(self):
        """One flame graph, from the next pipeline in turn."""
        inp, tracer, result = self.inp, self.tracer, self.result
        metric, fmt, jobs = self.pipelines[self._next]
        self._next = (self._next + 1) % len(self.pipelines)
        setup_s, analyzer = timed(load_analyzer, inp.symtab)
        result.setup.append(setup_s)
        seconds, analysis = timed(
            to_flamegraph, analyzer, inp.paths[fmt], inp.out, jobs
        )
        self.samples[metric].append(seconds)
        result.attempted += 1
        calls = call_counts(analysis)
        if self.tamper is not None:
            calls = self.tamper(calls)
        result.problems += check_analysis(inp.expected, analysis, calls)[:1]
        self.stats[metric] = analysis.pipeline
        if tracer is not None:
            _install(tracer)
            try:
                root = tracer.begin("to_flamegraph")
                to_flamegraph(analyzer, inp.paths[fmt], inp.out, jobs)
                tracer.end(root)
            finally:
                tracer.unwrap()
            self.traced[metric].append(root)

    @property
    def done(self):
        """Times every pipeline has run so far."""
        return min(len(v) for v in self.samples.values())

    def finish(self):
        inp, result = self.inp, self.result
        result.metrics = {m: median(v) for m, v in self.samples.items()}
        if self.tracer is None:
            return result
        salvage_s, (_, report) = timed(recover_log, inp.paths["rev11"])
        result.attempted += 1
        if report.entries_salvaged != inp.entries or not report.ok:
            result.problems.append(
                f"salvage kept {report.entries_salvaged} of "
                f"{inp.entries} entries of a clean log"
            )
        result.layers = _layers(
            self.tracer, self.traced, self.stats, result.metrics, salvage_s,
        )
        return result


def _layers(tracer, traced, stats, untraced, salvage_s):
    """Per-layer metrics from the traced repetitions' spans and the
    untraced times of the pipelines that are not end-to-end metrics."""

    def per_root(roots, name):
        return median([
            sum((e - s) / 1e9 for n, s, e, p in _below(tracer, r)
                if n == name)
            for r in roots
        ])

    jobs1 = traced["to_flamegraph_s"]
    analyze_s = per_root(jobs1, "analyzer.analyze")
    decode_s = per_root(jobs1, "log.decode")
    pipeline = stats["to_flamegraph_s"]
    layers = {
        "offline.to_flamegraph_jobs2_s": untraced["to_flamegraph_jobs2_s"],
        "offline.to_flamegraph_rev12_s": untraced["to_flamegraph_rev12_s"],
        "log.open_s": per_root(jobs1, "log.open"),
        "log.decode_s": decode_s,
        "columnar.decode_s": per_root(
            traced["to_flamegraph_rev12_s"], "columnar.decode"
        ),
        "analyzer.analyze_s": analyze_s,
        "analyzer.analyze_jobs2_s": per_root(
            traced["to_flamegraph_jobs2_s"], "analyzer.analyze"
        ),
        "analyzer.shard_reconstruct_s": analyze_s - decode_s,
        "analyzer.shards_vectorised": pipeline.shards_vectorised,
        "analyzer.shards_fallback": pipeline.shards_fallback,
        "symbols.cache_hit_ratio": pipeline.cache_hit_rate,
        "flamegraph.fold_s": per_root(jobs1, "flamegraph.fold"),
        "flamegraph.svg_s": per_root(jobs1, "flamegraph.svg"),
        "recovery.salvage_s": salvage_s,
    }
    # Self times of the jobs=1 rev 1.1 pipeline, averaged over its
    # traced repetitions so that the parts add up to the whole.
    totals = {}
    for root in jobs1:
        for name, seconds in tracer.self_times(root).items():
            totals[name] = totals.get(name, 0.0) + seconds / len(jobs1)
    e2e = totals.pop("to_flamegraph")
    e2e += sum(totals.values())
    self_times = {
        "log_open": totals.get("log.open", 0.0),
        "log_decode": totals.get("log.decode", 0.0),
        "analyzer": totals.get("analyzer.analyze", 0.0),
        "flamegraph_build": totals.get("flamegraph.build", 0.0),
        "flamegraph_fold": totals.get("flamegraph.fold", 0.0),
        "flamegraph_svg": totals.get("flamegraph.svg", 0.0),
        "io_write": totals.get("flamegraph.write_folded", 0.0)
        + totals.get("flamegraph.write_svg", 0.0),
    }
    layers.update(decompose(
        "offline", e2e, untraced["to_flamegraph_s"], self_times
    ))
    return layers


def _below(tracer, root):
    """The spans in the subtree under span index `root`."""
    spans = tracer.spans
    inside = {root}
    out = []
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
            out.append(spans[i])
    return out
