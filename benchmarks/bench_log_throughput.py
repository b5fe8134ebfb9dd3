"""Ablation E — lock-free log appends, batched record path, columnar decode.

"the access to the log, while recording, is lock-free, due to the
append only nature and the use of atomic instructions.  Therefore, we
keep the overhead of writing to the log to a minimum."

Two halves:

* the original pytest ablation (real threads hammering one SharedLog,
  each through its own ``ThreadLogWriter`` in blocks of one — one
  fetch-and-add per event; nothing lost, nothing written twice,
  per-thread order survives);
* a standalone before/after wrapper (``python
  benchmarks/bench_log_throughput.py [--quick]``) over the suite's
  ``record_write``, ``record_zero_copy``, ``codec_ratio`` and
  ``columnar_decode`` benchmarks.  The frozen
  pre-batching baselines and the paired measurement live in
  :mod:`repro.bench.workloads.record_path`; this script runs them
  through the :mod:`repro.bench` harness (warmup, repetitions,
  CI-based floor gates — see docs/benchmarking.md) and writes
  ``benchmarks/out/BENCH_record.json`` as a derived view of the suite
  result.  The process exits non-zero when a gate fails — CI runs
  this as the perf-smoke job; the authoritative run is the
  bench-suite job's ``python -m repro.bench --quick``.
"""

import argparse
import json
import pathlib
import sys
import threading
import time

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    _src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.api import SharedLog
from repro.core import KIND_CALL, ThreadLogWriter
from repro.bench.ports import derived_views
from repro.bench.runner import run_selected
from repro.bench.workloads.record_path import (
    CODEC_RATIO_FLOOR,
    DECODE_FLOOR,
    WRITE_FLOOR,
    ZERO_COPY_FLOOR,
)

OUT_DIR = pathlib.Path(__file__).parent / "out"

EVENTS_PER_THREAD = 20_000


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Before/after record-path and decode benchmark"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: smaller workloads, fewer repetitions",
    )
    args = parser.parse_args(argv)

    results = run_selected(
        (
            "record_write", "record_zero_copy", "codec_ratio",
            "columnar_decode",
        ),
        quick=args.quick,
    )
    payload = derived_views(results, quick=args.quick)["BENCH_record.json"]
    write, decode = payload["write"], payload["decode"]
    zero_copy, codec = payload["zero_copy"], payload["codec"]

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "BENCH_record.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    print(
        f"write : legacy {write['legacy_events_per_sec']:>12,.0f} ev/s"
        f"  batched {write['batched_events_per_sec']:>12,.0f} ev/s"
        f"  -> {write['speedup']:.2f}x (floor {WRITE_FLOOR}x)"
    )
    print(
        f"bulk  : legacy {zero_copy['legacy_events_per_sec']:>12,.0f} ev/s"
        f"  zerocopy {zero_copy['bulk_events_per_sec']:>11,.0f} ev/s"
        f"  -> {zero_copy['speedup']:.2f}x (floor {ZERO_COPY_FLOOR}x)"
    )
    print(
        f"codec : fixed  {codec['fixed_width_bytes']:>12,} B   "
        f"rev 1.2 {codec['rev12_bytes']:>12,} B"
        f"  -> {codec['ratio']:.2f}x (floor {CODEC_RATIO_FLOOR}x)"
    )
    print(
        f"decode: legacy {decode['legacy_entries_per_sec']:>12,.0f} en/s"
        f"  columnar {decode['columnar_entries_per_sec']:>12,.0f} en/s"
        f"  -> {decode['speedup']:.2f}x (floor {DECODE_FLOOR}x)"
    )
    print(f"wrote {out}")

    failed = [name for name, r in results.items() if not r.passed]
    if failed:
        print("GATE FAILED: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


# ======================================================================
# Pytest half: Ablation E — real threads, one shared log, one writer
# per thread committing blocks of one (one fetch-and-add per event).


def hammer(n_threads):
    log = SharedLog.create(n_threads * EVENTS_PER_THREAD)

    def writer(tid):
        with ThreadLogWriter(log, 1) as thread_writer:
            append = thread_writer.append
            for i in range(EVENTS_PER_THREAD):
                append(KIND_CALL, i, 0x400000 + i, tid)

    threads = [
        threading.Thread(target=writer, args=(tid,))
        for tid in range(n_threads)
    ]

    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    return log, elapsed


def test_lock_free_appends(emit, benchmark):
    from repro.fex import ResultTable

    def collect():
        rows = []
        for n in (1, 2, 4, 8):
            log, elapsed = hammer(n)
            rows.append((n, log, elapsed))
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    table = ResultTable(
        "Ablation E — concurrent appends into one shared log (live mode)",
        ["threads", "events", "dropped", "events/s"],
    )
    for n, log, elapsed in rows:
        total = n * EVENTS_PER_THREAD
        table.add_row(n, total, log.dropped, f"{total / elapsed:,.0f}")
    emit("ablation_log_throughput.txt", table.render())

    for n, log, elapsed in rows:
        assert log.dropped == 0  # capacity was sized exactly
        assert len(log) == n * EVENTS_PER_THREAD
        # Per-thread order survives interleaving: counters ascend.
        last = {}
        for entry in log:
            if entry.tid in last:
                assert entry.counter == last[entry.tid] + 1
            else:
                assert entry.counter == 0
            last[entry.tid] = entry.counter
        assert set(last) == set(range(n))


def test_batched_writer_beats_per_event(emit):
    """The in-tree quick run: the harness gates enforced under pytest
    too, and the derived-view JSON artifact refreshed."""
    assert main(["--quick"]) == 0
    payload = json.loads((OUT_DIR / "BENCH_record.json").read_text())
    assert payload["derived_from"] == "BENCH_suite.json"
    assert payload["write"]["speedup"] > 1.0
    assert payload["decode"]["speedup"] >= DECODE_FLOOR
    assert payload["zero_copy"]["speedup"] >= ZERO_COPY_FLOOR
    assert payload["codec"]["ratio"] >= CODEC_RATIO_FLOOR


if __name__ == "__main__":
    sys.exit(main())
