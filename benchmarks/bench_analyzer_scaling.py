"""Analyzer scaling — stack reconstruction across ``jobs``.

The ROADMAP's north star needs stage 3 to keep up with logs far larger
than memory and with many threads.  PR 3 made *decode* columnar; this
benchmark measures the other half of the hot path — stack
reconstruction by the whole-shard numpy kernel
(:mod:`repro.core.reconstruct`) — in three cells:

* ``vector j=1``  — single worker;
* ``vector j=4``  — shards fanned out to the analyzer's thread pool
  (one shared symbol cache);
* ``vector j=4 (mmap)`` — ditto over an mmap-backed on-disk stream.

The log builder and the matrix timer live in
:mod:`repro.bench.workloads.analyzer`, shared with the suite's
``analyzer_vector`` benchmark (``python -m repro.bench``), which gates
the same floor with repetitions and confidence intervals.  This
standalone run keeps the ``jobs=4`` and mmap cells the suite omits and
checks one floor, **vector j=1 >= VECTOR_FLOOR entries/s** on the
512k-entry clean log (standalone run:
``python benchmarks/bench_analyzer_scaling.py [--quick]``, artefact in
``benchmarks/out/analyzer_scaling.json``, non-zero exit on a miss).
``BENCH_analyze.json`` is the suite's derived view, not this matrix.

The differential guarantee is asserted outside the timed region: every
cell must produce field-for-field identical records.
"""

import argparse
import json
import os
import pathlib
import sys

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    _src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.api import Analyzer
from repro.bench.workloads.analyzer import (
    FRAMES_PER_THREAD,
    THREADS,
    VECTOR_FLOOR,
    build_image,
    build_log,
    run_matrix,
)

OUT_DIR = pathlib.Path(__file__).parent / "out"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Stack reconstruction x jobs scaling benchmark"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: single repeat per cell",
    )
    args = parser.parse_args(argv)
    repeats = 1 if args.quick else 3

    image = build_image()
    log = build_log(image, threads=THREADS,
                    frames_per_thread=FRAMES_PER_THREAD)
    entries = len(log)
    assert entries >= 500_000

    OUT_DIR.mkdir(exist_ok=True)
    stream_path = OUT_DIR / "scaling.teeperf"
    log.dump(str(stream_path))

    analyzer = Analyzer(image)
    cells = run_matrix(analyzer, log, stream_path, repeats)
    stream_path.unlink()

    times = {name: elapsed for name, _, elapsed in cells}
    entries_per_sec = entries / times["vector j=1"]

    payload = {
        "benchmark": "analyze_engines",
        "quick": args.quick,
        "entries": entries,
        "threads": THREADS,
        "cpu_count": os.cpu_count() or 1,
        "cells": [
            {
                "name": name,
                "seconds": elapsed,
                "entries_per_sec": entries / elapsed,
                "shards_vectorised": analysis.pipeline.shards_vectorised,
                "shards_fallback": analysis.pipeline.shards_fallback,
                "cache_hit_rate": analysis.pipeline.cache_hit_rate,
            }
            for name, analysis, elapsed in cells
        ],
        "entries_per_sec": entries_per_sec,
        "vector_floor": VECTOR_FLOOR,
    }
    out = OUT_DIR / "analyzer_scaling.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    for name, analysis, elapsed in cells:
        stats = analysis.pipeline
        print(
            f"{name:<18} {elapsed:>7.3f}s  {entries / elapsed:>12,.0f} en/s"
            f"  vec={stats.shards_vectorised} fb={stats.shards_fallback}"
            f"  cache {100 * stats.cache_hit_rate:.1f}%"
        )
    print(
        f"vector j=1: {entries_per_sec:,.0f} entries/s "
        f"(floor {VECTOR_FLOOR:,.0f})"
    )
    print(f"wrote {out}")

    # Correctness outside the timed region: every cell's profile must
    # be field-for-field identical, and on the clean log the kernel
    # takes every shard as it comes.
    reference = cells[0][1]
    for name, analysis, _ in cells:
        assert analysis.records == reference.records, name
        assert analysis.unmatched_returns == reference.unmatched_returns
        assert analysis.meta == reference.meta, name
        assert analysis.pipeline.shards_fallback == 0, name
        assert analysis.pipeline.shards_vectorised == THREADS, name
        assert analysis.pipeline.cache_hit_rate > 0.99, name

    if entries_per_sec < VECTOR_FLOOR:
        print(
            f"FLOOR MISSED: vector j=1 {entries_per_sec:,.0f} < "
            f"{VECTOR_FLOOR:,.0f} entries/s",
            file=sys.stderr,
        )
        return 1
    return 0


# ======================================================================
# Pytest half: the floors under pytest plus the emit artefact.


def test_analyzer_engine_matrix(emit):
    from repro.fex import ResultTable

    assert main(["--quick"]) == 0
    payload = json.loads((OUT_DIR / "analyzer_scaling.json").read_text())
    assert payload["entries_per_sec"] >= VECTOR_FLOOR

    table = ResultTable(
        f"Analyzer scaling — {payload['entries']:,} entries, "
        f"{payload['threads']} threads",
        ["cell", "seconds", "entries/s", "vectorised", "cache hit %"],
    )
    for cell in payload["cells"]:
        table.add_row(
            cell["name"],
            f"{cell['seconds']:.3f}",
            f"{cell['entries_per_sec']:,.0f}",
            cell["shards_vectorised"],
            f"{100 * cell['cache_hit_rate']:.1f}",
        )
    emit("analyzer_scaling.txt", table.render())


if __name__ == "__main__":
    sys.exit(main())
