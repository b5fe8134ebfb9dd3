"""Export the analysis into other tools' formats.

The paper expects that "other tooling support for visualization should
be similarly easy to port" (§III) — the analyzer already has everything
a visualiser needs.  This module proves the point with four writers:

* :func:`to_gprof` — GNU gprof's flat profile and call graph (the
  related-work baseline the paper compares against conceptually);
* :func:`to_callgrind` — the callgrind format consumed by
  KCachegrind/QCachegrind;
* :func:`to_speedscope` — speedscope.app's "evented" JSON, preserving
  the exact per-thread event timeline;
* :func:`to_json` — a plain machine-readable dump of the aggregates,
  including the pipeline counters when the analysis carries them;
* :func:`to_metrics` — Prometheus-style exposition text of the
  pipeline and profile counters (the TEEMon-style scrape surface).
"""

import json


def _edges(analysis):
    """(caller, callee) -> [calls, inclusive_ticks] over all records."""
    edges = {}
    for record in analysis.records:
        key = (record.caller, record.method)
        slot = edges.setdefault(key, [0, 0])
        slot[0] += 1
        slot[1] += record.inclusive
    return edges


def to_gprof(analysis, top=40):
    """gprof-style output: flat profile, then the call graph."""
    total = analysis.total_exclusive() or 1
    lines = [
        "Flat profile:",
        "",
        f"{'% time':>7} {'self':>12} {'calls':>9} "
        f"{'self/call':>12}  name",
    ]
    for stats in analysis.methods()[:top]:
        per_call = stats.exclusive / stats.calls if stats.calls else 0
        lines.append(
            f"{100 * stats.exclusive / total:>6.2f}% "
            f"{stats.exclusive:>12} {stats.calls:>9} "
            f"{per_call:>12.1f}  {stats.method}"
        )
    lines += ["", "Call graph:", ""]
    edges = _edges(analysis)
    for index, stats in enumerate(analysis.methods()[:top], start=1):
        callers = [
            (caller, calls, incl)
            for (caller, callee), (calls, incl) in edges.items()
            if callee == stats.method and caller is not None
        ]
        callees = [
            (callee, calls, incl)
            for (caller, callee), (calls, incl) in edges.items()
            if caller == stats.method
        ]
        for caller, calls, incl in sorted(callers):
            lines.append(f"{'':>18} {caller}  ({calls} calls)")
        lines.append(
            f"[{index}] {100 * stats.inclusive / total:>6.2f}% "
            f"{stats.method} ({stats.calls} calls, "
            f"{stats.inclusive} incl)"
        )
        for callee, calls, incl in sorted(callees):
            lines.append(f"{'':>18}   -> {callee}  ({calls} calls)")
        lines.append("-" * 60)
    return "\n".join(lines) + "\n"


def to_callgrind(analysis):
    """Callgrind format (open the file in KCachegrind).

    Self cost goes on the function; each caller->callee edge carries
    its call count and inclusive cost.
    """
    lines = [
        "# callgrind format",
        "version: 1",
        "creator: tee-perf",
        "events: Ticks",
        "",
    ]

    def location(method):
        file, line = analysis.locations.get(method, (None, None))
        return file or "??", line or 0

    edges = _edges(analysis)
    for stats in analysis.methods():
        file, line = location(stats.method)
        lines.append(f"fl={file}")
        lines.append(f"fn={stats.method}")
        lines.append(f"{line} {stats.exclusive}")
        for (caller, callee), (calls, incl) in sorted(
            edges.items(), key=lambda kv: str(kv[0])
        ):
            if caller != stats.method:
                continue
            cfile, cline = location(callee)
            lines.append(f"cfl={cfile}")
            lines.append(f"cfn={callee}")
            lines.append(f"calls={calls} {cline}")
            lines.append(f"{line} {incl}")
        lines.append("")
    return "\n".join(lines)


def to_speedscope(analysis, name="tee-perf profile"):
    """speedscope.app "evented" JSON: the exact event timeline.

    One speedscope profile per thread, frames shared.
    """
    frame_index = {}
    frames = []

    def frame_id(method):
        if method not in frame_index:
            file, line = analysis.locations.get(method, (None, None))
            frame_index[method] = len(frames)
            frames.append(
                {"name": method, "file": file or "??", "line": line or 0}
            )
        return frame_index[method]

    events_by_thread = {}
    for record in analysis.records:
        fid = frame_id(record.method)
        events = events_by_thread.setdefault(record.tid, [])
        events.append((record.enter, "O", fid, record.depth))
        events.append((record.exit, "C", fid, record.depth))
    profiles = []
    for tid, events in sorted(events_by_thread.items()):
        # Nesting at equal timestamps: deepest closes first, then
        # shallowest opens first.
        events.sort(
            key=lambda e: (
                e[0],
                0 if e[1] == "C" else 1,
                -e[3] if e[1] == "C" else e[3],
            )
        )
        start = events[0][0]
        end = max(e[0] for e in events)
        profiles.append(
            {
                "type": "evented",
                "name": f"thread {tid}",
                "unit": "none",
                "startValue": start,
                "endValue": end,
                "events": [
                    {"type": kind, "frame": fid, "at": at}
                    for at, kind, fid, _ in events
                ],
            }
        )
    return json.dumps(
        {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "shared": {"frames": frames},
            "profiles": profiles,
        },
        indent=2,
    )


def to_json(analysis):
    """A plain JSON dump of the aggregates and folded stacks."""
    pipeline = getattr(analysis, "pipeline", None)
    return json.dumps(
        {
            "meta": analysis.meta,
            "tick_ns": analysis.tick_ns,
            "unmatched_returns": analysis.unmatched_returns,
            "pipeline": pipeline.to_dict() if pipeline else None,
            "methods": [
                {
                    "method": s.method,
                    "calls": s.calls,
                    "inclusive": s.inclusive,
                    "exclusive": s.exclusive,
                    "min_inclusive": s.min_inclusive,
                    "max_inclusive": s.max_inclusive,
                    "threads": sorted(s.threads),
                }
                for s in analysis.methods()
            ],
            "folded": {
                ";".join(path): ticks
                for path, ticks in sorted(analysis.folded().items())
            },
        },
        indent=2,
    )


def to_metrics(analysis, prefix="teeperf"):
    """Prometheus-style exposition text: the pipeline counters plus
    the headline profile gauges.

    TEEMon's insight is that a TEE profiler earns its keep when its
    counters are continuously scrapeable; this writer makes one
    analysis pass look exactly like such a scrape, so the output can
    be pushed to a textfile collector unchanged.
    """
    lines = []

    def metric(name, kind, help_text, value):
        lines.append(f"# HELP {prefix}_{name} {help_text}")
        lines.append(f"# TYPE {prefix}_{name} {kind}")
        lines.append(f"{prefix}_{name} {value}")

    pipeline = getattr(analysis, "pipeline", None)
    if pipeline is not None:
        metric(
            "recorder_events_recorded_total", "counter",
            "Events the recorder committed to the shared log.",
            pipeline.entries_recorded,
        )
        metric(
            "recorder_events_dropped_total", "counter",
            "Events lost at record time (log reservation overflow).",
            pipeline.entries_dropped,
        )
        metric(
            "entries_ingested_total", "counter",
            "Log entries decoded by the analyzer.",
            pipeline.entries_ingested,
        )
        metric(
            "entries_dropped_total", "counter",
            "Events lost at record time (log reservation overflow).",
            pipeline.entries_dropped,
        )
        metric(
            "entries_dismissed_total", "counter",
            "Returns dismissed for want of a matching open frame.",
            pipeline.entries_dismissed,
        )
        metric(
            "frames_truncated_total", "counter",
            "Calls closed at the thread's last observed counter.",
            pipeline.frames_truncated,
        )
        metric(
            "chunks_processed_total", "counter",
            "Fixed-size ingestion chunks decoded.",
            pipeline.chunks_processed,
        )
        metric(
            "shards_analyzed_total", "counter",
            "Per-thread shards reconstructed.",
            pipeline.shards_analyzed,
        )
        metric(
            "shards_vectorised_total", "counter",
            "Clean shards the reconstruction kernel took as they came.",
            pipeline.shards_vectorised,
        )
        metric(
            "shards_fallback_total", "counter",
            "Anomalous shards the balance pass rewrote before the kernel.",
            pipeline.shards_fallback,
        )
        metric(
            "segments_sealed_total", "counter",
            "Sealed writer blocks (CRC seal records) observed.",
            pipeline.segments_sealed,
        )
        metric(
            "entries_salvaged_total", "counter",
            "Entries recovery rebuilt from a damaged log.",
            pipeline.entries_salvaged,
        )
        metric(
            "entries_quarantined_total", "counter",
            "Entries recovery set aside (torn/truncated/unsealed/CRC).",
            pipeline.entries_quarantined,
        )
        metric(
            "crc_failures_total", "counter",
            "Sealed segments whose CRC32 no longer matched.",
            pipeline.crc_failures,
        )
        metric(
            "bytes_written_total", "counter",
            "Fixed-width entry bytes committed to the shared log.",
            pipeline.bytes_written,
        )
        metric(
            "bytes_on_disk_total", "counter",
            "Bytes the persisted log image occupies.",
            pipeline.bytes_on_disk,
        )
        metric(
            "compression_ratio", "gauge",
            "Entry bytes per persisted byte (rev 1.2 columnar).",
            f"{pipeline.compression_ratio:.6f}",
        )
        metric(
            "ingest_rate_entries_per_tick", "gauge",
            "Entries ingested per software-counter tick.",
            f"{pipeline.ingest_rate:.6f}",
        )
        metric(
            "symbol_cache_hit_rate", "gauge",
            "Fraction of symbol resolutions served from the LRU.",
            f"{pipeline.cache_hit_rate:.6f}",
        )
    metric(
        "profile_calls_total", "counter",
        "Completed (or truncated) method invocations.",
        len(analysis.columns),
    )
    metric(
        "profile_threads", "gauge",
        "Distinct threads observed in the profile.",
        len(analysis.threads()),
    )
    metric(
        "profile_exclusive_ticks_total", "counter",
        "Total attributed exclusive ticks.",
        analysis.total_exclusive(),
    )
    return "\n".join(lines) + "\n"
