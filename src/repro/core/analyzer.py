"""Stage 3 — the streaming analyzer.

The analyzer ingests the log in fixed-size chunks from whatever
reader :func:`~repro.core.log.open_log` makes of its source (a
:class:`~repro.core.log.SharedLog` in memory, a file mapped as a
:class:`~repro.core.log.LogStream`, or a rev 1.2
:class:`~repro.core.columnar.ColumnarLog`), groups entries per thread
(the thread id in each entry makes per-thread order reliable even
though the global log order is not), reconstructs each thread's call
stack from the call/return events — per-thread shards are independent,
so ``jobs=N`` runs them on a thread pool that shares one symbol cache —
and computes for every method:

* *inclusive* time — counter ticks between entry and exit;
* *exclusive* ("real") time — inclusive minus the time spent in
  callees, the paper's "infer the real time spent in the method".

Every shard ends as a :class:`~repro.core.reconstruct.RecordColumns`,
so an :class:`Analysis` is columnar throughout, and every run carries
a :class:`~repro.core.stats.PipelineStats` counters object
(``analysis.pipeline``) describing what the pipeline did.

Addresses are runtime addresses; the analyzer recovers the relocation
offset from the log header's well-known profiler address and resolves
every address through the simulated binary's symbol table (the
addr2line/readelf/c++filt pipeline of the implementation section).

Robustness rules, matching §II-B:

* entries past the log's maximum size were never written — reservation
  overflow simply drops them — and calls left open when the log filled
  up (or the thread was still running) are closed at the thread's last
  observed counter value and marked *truncated*;
* a return that matches a deeper frame closes the intermediate frames
  as truncated (tracing was paused in between);
* a return with no matching frame at all is counted and dismissed.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as _np

from repro.core.columnar import ColumnarLog
from repro.core.errors import AnalyzerError
from repro.core.log import DEFAULT_CHUNK_ENTRIES, open_log
from repro.core.recovery import (
    RECOVER_MODES,
    recover_log,
    recovery_stats,
    require_clean,
)
from repro.core.reconstruct import (
    CallRecord,
    RecordColumns,
    group_keys,
    run_shard,
)
from repro.core.stats import PipelineStats
from repro.frame import Frame
from repro.symbols.symtab import CachedResolver

__all__ = [
    "Analysis",
    "Analyzer",
    "CallRecord",
    "MethodStats",
    "RecordColumns",
]


@dataclass
class MethodStats:
    """Aggregate statistics for one method across all its calls."""

    method: str
    calls: int = 0
    inclusive: int = 0
    exclusive: int = 0
    min_inclusive: int = None
    max_inclusive: int = None
    threads: set = field(default_factory=set)

    @property
    def mean_inclusive(self):
        return self.inclusive / self.calls if self.calls else 0.0


class Analysis:
    """The result object: records, aggregates, frames and reports.

    The calls arrive as a columnar
    :class:`~repro.core.reconstruct.RecordColumns` (``columns``).
    Record objects and the per-method aggregation are built lazily,
    and the bulk consumers (``folded()``, ``records_frame()``,
    thread/total aggregates, call counts) read the arrays directly
    without ever materialising records.
    """

    def __init__(self, columns, unmatched_returns, tick_ns, meta,
                 locations=None, pipeline=None):
        self.columns = columns
        self._records = None
        self.unmatched_returns = unmatched_returns
        self.tick_ns = tick_ns
        self.meta = meta
        self.locations = locations or {}
        self.pipeline = pipeline
        # The RecoveryReport when analysis ran with recover="auto" /
        # "strict" (None when the log was trusted as-is).
        self.recovery = None
        self._stats_cache = None

    @property
    def records(self):
        """The :class:`CallRecord` list (materialised on first use)."""
        if self._records is None:
            self._records = self.columns.records()
        return self._records

    @property
    def _stats(self):
        if self._stats_cache is None:
            self._stats_cache = self._stats_from_columns()
        return self._stats_cache

    def _stats_from_columns(self):
        """Per-method aggregation over the columns: bincount the
        sums, scatter the min/max and each method's first record, and
        group ``method_id * n_tids + tid_code`` keys for the thread
        sets; methods keep first-appearance order."""
        cols = self.columns
        mids = cols.method_id
        n_methods = len(cols.methods)
        n = len(mids)
        if not n:
            return {}
        calls = _np.bincount(mids, minlength=n_methods)
        incl = _np.zeros(n_methods, dtype=_np.int64)
        _np.add.at(incl, mids, cols.inclusive)
        excl = _np.zeros(n_methods, dtype=_np.int64)
        _np.add.at(excl, mids, cols.exclusive)
        info = _np.iinfo(_np.int64)
        mins = _np.full(n_methods, info.max, dtype=_np.int64)
        _np.minimum.at(mins, mids, cols.inclusive)
        maxs = _np.full(n_methods, info.min, dtype=_np.int64)
        _np.maximum.at(maxs, mids, cols.inclusive)
        first = _np.full(n_methods, n, dtype=_np.intp)
        _np.minimum.at(first, mids, _np.arange(n))
        tids, tid_code = group_keys(cols.tid)
        tids = tids.tolist()
        threads = {}
        pairs, _ = group_keys(mids * len(tids) + tid_code)
        for key in pairs.tolist():
            mid, code = divmod(key, len(tids))
            threads.setdefault(mid, set()).add(tids[code])
        stats = {}
        called = _np.argsort(first)[: _np.count_nonzero(calls)]
        for mid in called.tolist():
            name = cols.methods[mid]
            stats[name] = MethodStats(
                method=name,
                calls=int(calls[mid]),
                inclusive=int(incl[mid]),
                exclusive=int(excl[mid]),
                min_inclusive=int(mins[mid]),
                max_inclusive=int(maxs[mid]),
                threads=threads.get(mid, set()),
            )
        return stats

    # ------------------------------------------------------------------
    # Aggregates

    def methods(self):
        """Per-method statistics, hottest exclusive time first."""
        return sorted(
            self._stats.values(), key=lambda s: s.exclusive, reverse=True
        )

    def method(self, name):
        try:
            return self._stats[name]
        except KeyError:
            raise AnalyzerError(
                f"method {name!r} does not appear in the profile"
            ) from None

    def threads(self):
        """Thread ids observed, in first-appearance order."""
        uniq, first = _np.unique(self.columns.tid, return_index=True)
        return [
            int(uniq[j]) for j in _np.argsort(first, kind="stable").tolist()
        ]

    def total_exclusive(self):
        """Total attributed ticks (sums to total traced time)."""
        return int(self.columns.exclusive.sum())

    def truncated_calls(self):
        return int(self.columns.truncated.sum())

    def exclusive_fraction(self, name):
        """Share of total traced time spent directly in `name`."""
        total = self.total_exclusive()
        if total == 0:
            return 0.0
        return self.method(name).exclusive / total

    def folded(self):
        """Folded stacks: {(root, ..., leaf): exclusive ticks}.

        This is the Flame-Graph input — each invocation contributes its
        *exclusive* ticks to its full call path, so widths nest exactly.
        """
        cols = self.columns
        mask = cols.exclusive > 0
        pids = cols.path_id[mask]
        if not len(pids):
            return {}
        n = len(pids)
        sums = _np.zeros(len(cols.paths), dtype=_np.int64)
        _np.add.at(sums, pids, cols.exclusive[mask])
        # Paths in order of first appearance: each path's first record
        # from one scatter-min, as the method table does, not a sort.
        first = _np.full(len(cols.paths), n, dtype=_np.intp)
        _np.minimum.at(first, pids, _np.arange(n))
        present = _np.flatnonzero(first < n)
        return {
            cols.path_tuple(pid): int(sums[pid])
            for pid in present[_np.argsort(first[present])].tolist()
        }

    # ------------------------------------------------------------------
    # Frames (the declarative query interface builds on these)

    def records_frame(self):
        cols = self.columns
        methods = cols.methods
        return Frame(
            {
                "method": [methods[m] for m in cols.method_id.tolist()],
                "thread": cols.tid.tolist(),
                "caller": [
                    methods[c] if c >= 0 else None
                    for c in cols.caller_id.tolist()
                ],
                "depth": cols.depth.tolist(),
                "enter": cols.enter.tolist(),
                "exit": cols.exit.tolist(),
                "inclusive": cols.inclusive.tolist(),
                "exclusive": cols.exclusive.tolist(),
                "truncated": cols.truncated.tolist(),
            }
        )

    def methods_frame(self):
        return Frame.from_records(
            (
                {
                    "method": s.method,
                    "calls": s.calls,
                    "inclusive": s.inclusive,
                    "exclusive": s.exclusive,
                    "mean_inclusive": s.mean_inclusive,
                    "threads": len(s.threads),
                }
                for s in self.methods()
            ),
            columns=[
                "method",
                "calls",
                "inclusive",
                "exclusive",
                "mean_inclusive",
                "threads",
            ],
        )

    # ------------------------------------------------------------------
    # Reporting

    def to_ns(self, ticks):
        return ticks * self.tick_ns

    def report(self, top=20):
        """The sorted per-method table presented to the programmer."""
        total = self.total_exclusive() or 1
        lines = [
            f"TEE-Perf profile: {len(self.columns)} calls, "
            f"{len(self.threads())} threads, "
            f"{self.meta.get('events', 0)} log entries "
            f"(pid {self.meta.get('pid')})",
            f"{'excl %':>7} {'exclusive':>12} {'inclusive':>12} "
            f"{'calls':>8}  method",
        ]
        for stats in self.methods()[:top]:
            lines.append(
                f"{100 * stats.exclusive / total:>6.2f}% "
                f"{stats.exclusive:>12} {stats.inclusive:>12} "
                f"{stats.calls:>8}  {stats.method}"
            )
        if self.unmatched_returns:
            lines.append(f"dismissed unmatched returns: {self.unmatched_returns}")
        if self.truncated_calls():
            lines.append(f"truncated calls: {self.truncated_calls()}")
        return "\n".join(lines)


class Analyzer:
    """Turns a log (+ the binary image) into an :class:`Analysis`.

    Parameters
    ----------
    image:
        The simulated binary whose symbol table resolves addresses.
    tick_ns:
        Nanoseconds per counter tick (reporting only).
    cache_size:
        Capacity of the per-run symbol-resolution LRU.
    """

    def __init__(self, image, tick_ns=1.0, cache_size=65536):
        self.image = image
        self.tick_ns = tick_ns
        self.cache_size = cache_size

    def analyze(self, log, jobs=1, chunk_size=None, stats=None,
                recover="off", options=None):
        """Streaming analysis: chunked ingestion, sharded reconstruction.

        `log` may be anything :func:`~repro.core.log.open_log` opens:
        a reader, raw bytes (wrapped in place), or a path (mapped, so
        the whole file is never read into memory at once; the mapping
        is closed before ``analyze`` returns).  `jobs`
        sets the worker-pool width for per-thread shards; `stats` is
        an optional recorder-seeded :class:`PipelineStats` to extend —
        the resulting counters land on ``analysis.pipeline`` either
        way.  Every shard goes through the whole-shard numpy kernel
        (:func:`~repro.core.reconstruct.reconstruct_vector`); an
        anomalous shard is first rewritten by
        :func:`~repro.core.reconstruct.balance`, which applies the
        robustness rules above.

        `recover` handles damaged logs: ``"off"`` trusts the input,
        ``"auto"`` salvages it first (sealed segments verified by
        CRC, torn/unsealed regions quarantined — the report lands on
        ``analysis.recovery`` and its counters on the pipeline
        stats), ``"strict"`` additionally raises
        :class:`~repro.core.errors.RecoveryError` when anything was
        quarantined.

        An :class:`~repro.core.options.AnalyzeOptions` passed as
        `options` supplies jobs/chunk_size/recover in one object and
        takes precedence over the individual kwargs.

        Output is field-for-field identical whatever the jobs or chunk
        size.
        """
        if options is not None:
            jobs = options.jobs
            chunk_size = options.chunk_size
            recover = options.recover
        if jobs < 1:
            raise AnalyzerError(f"jobs must be positive: {jobs}")
        if recover not in RECOVER_MODES:
            raise AnalyzerError(
                f"unknown recover mode {recover!r} (choose from "
                f"{', '.join(RECOVER_MODES)})"
            )
        chunk_size = chunk_size or DEFAULT_CHUNK_ENTRIES
        recovery_report = None
        if recover != "off":
            log, recovery_report = recover_log(log)
            if recover == "strict":
                require_clean(recovery_report)
        try:
            reader = open_log(log)
        except TypeError:
            raise AnalyzerError(
                f"cannot analyze {type(log).__name__}"
            ) from None
        try:
            stats = stats if stats is not None else PipelineStats()
            stats.jobs = jobs
            stats.chunk_size = chunk_size
            if not stats.bytes_written:
                stats.bytes_written = len(reader) * reader.entry_size
            if not stats.bytes_on_disk and isinstance(reader, ColumnarLog):
                stats.bytes_on_disk = reader.nbytes
            if recovery_report is not None:
                recovery_stats(recovery_report, stats)

            # Ingestion: decode fixed-size *column* chunks (one
            # vectorised sweep each — no LogEntry objects), shard per
            # thread with one grouping pass per chunk.
            per_thread = {}
            lo = hi = None
            for cols in reader.iter_column_chunks(chunk_size):
                stats.chunks_processed += 1
                stats.entries_ingested += len(cols)
                bounds = cols.counter_bounds()
                if bounds is not None:
                    lo = bounds[0] if lo is None else min(lo, bounds[0])
                    hi = bounds[1] if hi is None else max(hi, bounds[1])
                    self._shard_columns(cols, per_thread)
            stats.counter_span = (hi - lo) if lo is not None else 0

            analysis = self._finish_columns(reader, per_thread, jobs, stats)
            analysis.recovery = recovery_report
            return analysis
        finally:
            if reader is not log:
                reader.close()

    # ------------------------------------------------------------------

    def _shard_columns(self, cols, per_thread):
        """Split one decoded column span per thread id, preserving
        thread first-appearance order (the merge order contract).

        One stable argsort by thread id groups the span: a thread's
        rows are one run of the gathered columns, still in log order,
        and the run's first row is the thread's first appearance.  A
        span of one thread keeps its own columns.  Each shard
        accumulates these runs as *segments*, concatenated once just
        before reconstruction.
        """
        kind, counter, addr, call_site = (
            cols.kind, cols.counter, cols.addr, cols.call_site
        )
        order = _np.argsort(cols.tid, kind="stable")
        tids = cols.tid[order]
        heads = [0, *(_np.flatnonzero(tids[1:] != tids[:-1]) + 1).tolist()]
        if len(heads) > 1:
            kind, counter, addr = kind[order], counter[order], addr[order]
            if call_site is not None:
                call_site = call_site[order]
        ends = heads[1:] + [len(order)]
        for j in _np.argsort(order[heads]).tolist():
            lo, hi = heads[j], ends[j]
            per_thread.setdefault(int(tids[lo]), []).append((
                kind[lo:hi], counter[lo:hi], addr[lo:hi],
                None if call_site is None else call_site[lo:hi],
            ))

    @staticmethod
    def _concat_segment_arrays(segments):
        """Flatten a shard's segments into four numpy arrays — the
        reconstruction kernel's input shape."""
        if len(segments) == 1:
            return segments[0]
        has_cs = segments[0][3] is not None
        return (
            _np.concatenate([s[0] for s in segments]),
            _np.concatenate([s[1] for s in segments]),
            _np.concatenate([s[2] for s in segments]),
            _np.concatenate([s[3] for s in segments]) if has_cs else None,
        )

    def _finish_columns(self, log, per_thread, jobs, stats):
        """Reconstruct every shard (serially or on a thread pool that
        shares one symbol cache) and merge.  A shard's exception
        propagates out of ``analyze``."""
        offset = log.profiler_addr - self.image.profiler_addr
        shards = list(per_thread.items())
        stats.shards_analyzed = len(shards)
        cache = CachedResolver(self.image.symtab, maxsize=self.cache_size)

        def run(shard):
            tid, segments = shard
            kinds, counters, addrs, call_sites = (
                self._concat_segment_arrays(segments)
            )
            return run_shard(
                tid, kinds, counters, addrs, call_sites, offset, cache
            )

        if jobs > 1 and len(shards) > 1:
            with ThreadPoolExecutor(
                max_workers=min(jobs, len(shards))
            ) as pool:
                outcomes = list(pool.map(run, shards))
        else:
            outcomes = [run(shard) for shard in shards]
        return self._merge(log, outcomes, cache, stats)

    def _merge(self, log, outcomes, cache, stats):
        # Merge: shard results concatenate in thread first-appearance
        # order.
        unmatched = 0
        mismatches = 0
        synthetic_hits = 0
        for outcome in outcomes:
            unmatched += outcome.unmatched
            mismatches += outcome.mismatches
            synthetic_hits += outcome.synthetic_hits
            if outcome.balanced:
                stats.shards_fallback += 1
            else:
                stats.shards_vectorised += 1
        columns = RecordColumns.concat([o.columns for o in outcomes])
        stats.frames_truncated += int(columns.truncated.sum())
        stats.entries_dismissed += unmatched
        # The kernel's unique-address resolves count the per-call
        # resolutions it *skipped* as hits (a per-event lookup would
        # have answered them from the LRU), keeping the hit-rate
        # meaningful.
        stats.cache_hits += cache.hits + synthetic_hits
        stats.cache_misses += cache.misses

        meta = {
            "events": len(log),
            "pid": log.pid,
            "capacity": log.capacity,
            "version": log.version,
            "multithread": log.multithread,
            "callsite_mismatches": mismatches,
        }
        locations = {
            sym.pretty: (sym.file, sym.line) for sym in self.image.symtab
        }
        return Analysis(
            columns, unmatched, self.tick_ns, meta, locations, pipeline=stats
        )
