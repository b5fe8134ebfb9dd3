"""The batch oracle: stage 3 as one sequential pass.

:func:`analyze_batch` analyses a log the way the paper describes the
analyzer and the way this repository first implemented it: the whole
log read one :class:`~repro.core.log.LogEntry` at a time, entries
grouped per thread in first-appearance order, and each thread's stack
rebuilt by :func:`~repro.core.reconstruct.reconstruct_python` on a
single worker.  No column chunks, no sharding pool, no vector kernel.

The streaming :meth:`~repro.core.analyzer.Analyzer.analyze` must match
it byte for byte on every log, engine, chunk size and ``jobs`` value.
"""

from repro.core.analyzer import Analysis
from repro.core.reconstruct import RecordColumns, reconstruct_python
from repro.core.stats import PipelineStats
from repro.symbols import CachedResolver


def read_entries(log):
    """`log`'s entries decoded one at a time by :meth:`SharedLog.entry`
    (``struct``), independently of the column decoder every reader
    iterates through — the reference that decoder is checked against."""
    return [log.entry(i) for i in range(len(log))]


def analyze_batch(analyzer, log):
    """Analyse `log` (a :class:`SharedLog`, read through
    :func:`read_entries`) with `analyzer`'s image, tick length and
    cache size."""
    stats = PipelineStats(jobs=1, engine="python", chunks_processed=1)
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
        RecordColumns.from_records(records), unmatched, analyzer.tick_ns,
        meta, locations, pipeline=stats,
    )
