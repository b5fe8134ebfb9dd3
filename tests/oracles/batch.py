"""The batch oracle: stage 3 as one sequential pass.

:func:`analyze_batch` analyses a log the way the paper describes the
analyzer and the way this repository first implemented it: the whole
log read one :class:`~repro.core.log.LogEntry` at a time, entries
grouped per thread in first-appearance order, and each thread's stack
rebuilt by :func:`reconstruct_python`, an entry-at-a-time loop over an
explicit stack of open frames, on a single worker.  No column chunks,
no sharding pool, no vector kernel and no balance pass.

The streaming :meth:`~repro.core.analyzer.Analyzer.analyze` must match
it byte for byte on every log, chunk size and ``jobs`` value.
"""

import numpy as np

from repro.core.analyzer import Analysis
from repro.core.log import KIND_CALL
from repro.core.reconstruct import CallRecord, RecordColumns, resolve_name
from repro.core.stats import PipelineStats
from repro.symbols import CachedResolver


def read_entries(log):
    """`log`'s entries decoded one at a time by :meth:`SharedLog.entry`
    (``struct``), independently of the column decoder every reader
    iterates through — the reference that decoder is checked against."""
    return [log.entry(i) for i in range(len(log))]


class _OpenFrame:
    __slots__ = ("addr", "method", "enter", "child_ticks", "path")

    def __init__(self, addr, method, enter, path):
        self.addr = addr
        self.method = method
        self.enter = enter
        self.child_ticks = 0
        self.path = path


def reconstruct_python(tid, kinds, counters, addrs, call_sites, offset,
                       cache):
    """One thread's records, rebuilt an entry at a time.

    The paper's robustness rules as a stack walk: frames left open at
    the end close at the thread's last counter as truncated, a return
    that matches a deeper frame closes the frames in between as
    truncated, and a return that matches no open frame is dismissed.
    Returns ``(records, unmatched, callsite_mismatches)``; records
    come in close order and records sharing a call path share one
    path tuple.
    """
    stack = []
    records = []
    unmatched = 0
    mismatches = 0
    interned = {}
    last_counter = counters[-1] if len(counters) else 0

    def close(frame, at, truncated):
        inclusive = max(0, at - frame.enter)
        exclusive = max(0, inclusive - frame.child_ticks)
        if stack:
            stack[-1].child_ticks += inclusive
        records.append(
            CallRecord(
                method=frame.method,
                tid=tid,
                enter=frame.enter,
                exit=at,
                inclusive=inclusive,
                exclusive=exclusive,
                depth=len(stack),
                caller=stack[-1].method if stack else None,
                path=frame.path,
                truncated=truncated,
            )
        )

    if call_sites is None:
        call_sites = [0] * len(kinds)
    for kind, counter, addr, call_site in zip(
        kinds, counters, addrs, call_sites
    ):
        if kind == KIND_CALL:
            # v2 logs carry the call site; cross-check it against the
            # stack-derived caller (a log-integrity diagnostic).
            if call_site and stack:
                expected = resolve_name(cache, call_site, offset)
                if expected != stack[-1].method:
                    mismatches += 1
            method = resolve_name(cache, addr, offset)
            parent_path = stack[-1].path if stack else ()
            path = parent_path + (method,)
            path = interned.setdefault(path, path)
            stack.append(_OpenFrame(addr, method, counter, path))
            continue
        # A return: match against the open stack.
        if stack and stack[-1].addr == addr:
            close(stack.pop(), counter, truncated=False)
        elif any(f.addr == addr for f in stack):
            while stack[-1].addr != addr:
                close(stack.pop(), counter, truncated=True)
            close(stack.pop(), counter, truncated=False)
        else:
            unmatched += 1
    while stack:
        close(stack.pop(), last_counter, truncated=True)
    return records, unmatched, mismatches


def columns_from_records(records):
    """Columnise a :class:`CallRecord` list, interning method names
    and call paths in first-appearance order.  The records are kept as
    the columns' materialisation cache."""
    name_id = {}
    methods = []
    by_tuple = {(): -1}
    paths = []

    def intern_name(name):
        if name not in name_id:
            name_id[name] = len(methods)
            methods.append(name)
        return name_id[name]

    def intern_path(path):
        if path not in by_tuple:
            parent = intern_path(path[:-1])
            by_tuple[path] = len(paths)
            paths.append((parent, intern_name(path[-1])))
        return by_tuple[path]

    def column(values, dtype):
        return np.array(list(values), dtype=dtype)

    out = RecordColumns(
        column((intern_name(r.method) for r in records), np.int64),
        column((r.tid for r in records), np.uint64),
        column((r.enter for r in records), np.int64),
        column((r.exit for r in records), np.int64),
        column((r.inclusive for r in records), np.int64),
        column((r.exclusive for r in records), np.int64),
        column((r.depth for r in records), np.int64),
        column(
            (intern_name(r.caller) if r.caller is not None else -1
             for r in records),
            np.int64,
        ),
        column((intern_path(r.path) for r in records), np.int64),
        column((r.truncated for r in records), bool),
        methods,
        paths,
    )
    out._records = list(records)
    return out


def analyze_batch(analyzer, log):
    """Analyse `log` (a :class:`SharedLog`, read through
    :func:`read_entries`) with `analyzer`'s image, tick length and
    cache size."""
    stats = PipelineStats(jobs=1, chunks_processed=1)
    per_thread = {}
    lo = hi = None
    for entry in read_entries(log):
        stats.entries_ingested += 1
        per_thread.setdefault(entry.tid, []).append(entry)
        lo = entry.counter if lo is None else min(lo, entry.counter)
        hi = entry.counter if hi is None else max(hi, entry.counter)
    stats.counter_span = (hi - lo) if lo is not None else 0
    stats.shards_analyzed = len(per_thread)

    image = analyzer.image
    offset = log.profiler_addr - image.profiler_addr
    cache = CachedResolver(image.symtab, maxsize=analyzer.cache_size)
    records = []
    unmatched = mismatches = 0
    for tid, entries in per_thread.items():
        shard, dismissed, mismatched = reconstruct_python(
            tid,
            [e.kind for e in entries],
            [e.counter for e in entries],
            [e.addr for e in entries],
            [e.call_site for e in entries],
            offset,
            cache,
        )
        records.extend(shard)
        unmatched += dismissed
        mismatches += mismatched
    stats.frames_truncated = sum(1 for r in records if r.truncated)
    stats.entries_dismissed = unmatched
    stats.cache_hits = cache.hits
    stats.cache_misses = cache.misses

    meta = {
        "events": len(log),
        "pid": log.pid,
        "capacity": log.capacity,
        "version": log.version,
        "multithread": log.multithread,
        "callsite_mismatches": mismatches,
    }
    locations = {sym.pretty: (sym.file, sym.line) for sym in image.symtab}
    return Analysis(
        columns_from_records(records), unmatched, analyzer.tick_ns,
        meta, locations, pipeline=stats,
    )
