"""The suite registry: the gated benchmarks, ported onto the harness.

Each entry wraps the exact measurement core its standalone script uses
(:mod:`repro.bench.workloads`) in a :class:`~repro.bench.harness.
Benchmark`: a body producing one *sample* per call (a speedup ratio,
a rate, an overhead fraction, a recovered fraction, a share error)
plus the distribution-aware gate that replaces the script's point
floor.

Three size profiles:

* **full** — paper-sized workloads (the numbers the README quotes);
* **quick** (``--quick``) — CI-sized, same floors, smaller bodies;
* **smoke** (``REPRO_BENCH_SMOKE=1``) — tiny bodies for the tier-1
  integration test, where the *machinery* is under test, not the
  hardware.

Paired measurement for every ratio: each sample times baseline and
contender back to back in one body call, so host noise cancels in the
ratio — the ratio's distribution is what the gates judge.  The
absolute gates (``analyzer_vector``, ``fleet_ingest``) judge entries/s
against a fixed floor.
"""

import os
import time as _time

from repro.bench.gates import CeilingGate, FloorGate
from repro.bench.harness import Benchmark
from repro.bench.stats import median
from repro.bench.workloads import accuracy as _accuracy
from repro.bench.workloads import analyzer as _analyzer
from repro.bench.workloads import fleet as _fleet
from repro.bench.workloads import monitor as _monitor
from repro.bench.workloads import record_path as _record
from repro.bench.workloads import recovery as _recovery

__all__ = ["build_registry", "derived_views", "smoke_mode"]


def smoke_mode():
    """Tiny-workload mode for integration tests (env, not a flag: the
    CLI surface documents only what users should run)."""
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _profile(quick, smoke):
    """Size table: (full, quick, smoke) per knob."""
    pick = 2 if smoke else (1 if quick else 0)

    def size(*options):
        return options[pick]

    return size


# ----------------------------------------------------------------------
# record path


def _record_write_bench(size):
    n_events = size(200_000, 100_000, 40_000)
    inner = size(3, 3, 2)
    state = {"pairs": []}

    def body(_):
        pair = _record.write_sample(n_events, inner=inner)
        state["pairs"].append(pair)
        return pair[0] / pair[1]  # legacy / batched = speedup

    def detail(_):
        t_legacy = median([p[0] for p in state["pairs"]])
        t_batched = median([p[1] for p in state["pairs"]])
        return {
            "events": n_events,
            "legacy_events_per_sec": n_events / t_legacy,
            "batched_events_per_sec": n_events / t_batched,
            "legacy_ns_per_event": t_legacy / n_events * 1e9,
            "batched_ns_per_event": t_batched / n_events * 1e9,
            "floor": _record.WRITE_FLOOR,
        }

    return Benchmark(
        name="record_write",
        description=(
            "Batched ThreadLogWriter vs the frozen per-event append "
            "baseline (events/sec speedup)"
        ),
        unit="x",
        direction="higher",
        body=body,
        detail=detail,
        gates=[FloorGate(_record.WRITE_FLOOR)],
    )


def _record_zero_copy_bench(size):
    n_events = size(200_000, 100_000, 40_000)
    inner = size(3, 3, 2)
    state = {"pairs": []}

    def setup():
        return {"columns": _record.build_event_columns(n_events)}

    def body(s):
        pair = _record.zero_copy_sample(
            n_events, s["columns"], inner=inner
        )
        state["pairs"].append(pair)
        return pair[0] / pair[1]  # legacy / bulk = speedup

    def detail(_):
        t_legacy = median([p[0] for p in state["pairs"]])
        t_bulk = median([p[1] for p in state["pairs"]])
        return {
            "events": n_events,
            "legacy_events_per_sec": n_events / t_legacy,
            "bulk_events_per_sec": n_events / t_bulk,
            "legacy_ns_per_event": t_legacy / n_events * 1e9,
            "bulk_ns_per_event": t_bulk / n_events * 1e9,
            "floor": _record.ZERO_COPY_FLOOR,
        }

    return Benchmark(
        name="record_zero_copy",
        description=(
            "Bulk zero-copy column write (append_columns) vs the "
            "frozen per-event append baseline (events/sec speedup)"
        ),
        unit="x",
        direction="higher",
        body=body,
        setup=setup,
        detail=detail,
        gates=[FloorGate(_record.ZERO_COPY_FLOOR)],
    )


def _codec_ratio_bench(size):
    threads = size(8, 4, 2)
    frames = size(32_768, 16_384, 2_048)
    state = {"last": None}

    def setup():
        image = _analyzer.build_image()
        log = _analyzer.build_log(
            image, threads=threads, frames_per_thread=frames
        )
        return {"log": log, "entries": len(log)}

    def body(s):
        raw, packed = _record.codec_sizes(s["log"])
        state["last"] = (raw, packed)
        return raw / packed  # compression ratio

    def detail(s):
        raw, packed = state["last"]
        return {
            "entries": s["entries"],
            "threads": threads,
            "fixed_width_bytes": raw,
            "rev12_bytes": packed,
            "floor": _record.CODEC_RATIO_FLOOR,
        }

    return Benchmark(
        name="codec_ratio",
        description=(
            "Rev 1.2 columnar image size vs fixed-width bytes on the "
            "standard call/return workload (compression ratio)"
        ),
        unit="x",
        direction="higher",
        body=body,
        setup=setup,
        detail=detail,
        # The workload is deterministic, so every sample must clear
        # the floor — no CI slack needed or wanted.
        gates=[FloorGate(_record.CODEC_RATIO_FLOOR, mode="exact")],
        overrides={"warmup_max": 1, "repetitions": 3},
    )


def _columnar_decode_bench(size):
    n_entries = size(262_144, 65_536, 16_384)
    state = {"pairs": [], "log": None}

    def setup():
        log = _record.build_filled_log(n_entries)
        state["log"] = log
        return {"buf": log.to_bytes(), "version": log.version}

    def body(s):
        pair = _record.decode_sample(s["buf"], s["version"], n_entries)
        state["pairs"].append(pair)
        return pair[0] / pair[1]

    def detail(_):
        t_legacy = median([p[0] for p in state["pairs"]])
        t_columnar = median([p[1] for p in state["pairs"]])
        return {
            "entries": n_entries,
            "legacy_entries_per_sec": n_entries / t_legacy,
            "columnar_entries_per_sec": n_entries / t_columnar,
            "floor": _record.DECODE_FLOOR,
        }

    return Benchmark(
        name="columnar_decode",
        description=(
            "Columnar bulk decode vs the frozen per-entry LogEntry "
            "reader (entries/sec speedup)"
        ),
        unit="x",
        direction="higher",
        body=body,
        setup=setup,
        detail=detail,
        gates=[FloorGate(_record.DECODE_FLOOR)],
    )


# ----------------------------------------------------------------------
# analyzer


def _analyzer_vector_bench(size):
    threads = size(8, 4, 2)
    frames = size(16_000, 8_000, 2_000)

    def setup():
        image = _analyzer.build_image()
        log = _analyzer.build_log(
            image, threads=threads, frames_per_thread=frames
        )
        return {
            "analyzer": _analyzer.make_analyzer(image),
            "log": log,
            "entries": len(log),
        }

    def body(s):
        rate, analysis = _analyzer.analyze_sample(s["analyzer"], s["log"])
        # Outside the timed region: the clean log's exact profile —
        # one call per frame, every shard taken as it came, nothing
        # truncated.
        assert len(analysis.columns) == threads * frames
        assert analysis.pipeline.shards_fallback == 0
        assert analysis.pipeline.frames_truncated == 0
        return rate

    def detail(s):
        return {
            "entries": s["entries"],
            "threads": threads,
            "floor": _analyzer.VECTOR_FLOOR,
        }

    return Benchmark(
        name="analyzer_vector",
        description=(
            "Whole-shard vectorised stack reconstruction on a clean "
            "log, single worker (entries/sec)"
        ),
        unit="entries/s",
        direction="higher",
        body=body,
        setup=setup,
        detail=detail,
        gates=[FloorGate(_analyzer.VECTOR_FLOOR)],
        overrides={"warmup_max": 2},
    )


# ----------------------------------------------------------------------
# monitor


def _monitor_overhead_bench(size):
    loops = size(120_000, 60_000, 20_000)
    repeats = size(9, 5, 3)
    state = {"last": None}

    def setup():
        workload = _monitor.make_workload(loops)
        workload()  # warm up the bytecode and the branch predictors
        return workload

    def body(workload):
        baseline, monitored, samples, pass_p95 = (
            _monitor.overhead_sample(workload, repeats)
        )
        state["last"] = {
            "baseline_seconds": baseline,
            "monitored_seconds": monitored,
            "sampling_passes": samples,
            "sample_pass_p95_seconds": pass_p95,
        }
        # The monitor really ran, and each pass fit in its interval.
        assert samples >= 1
        return monitored / baseline - 1.0

    def detail(_):
        data = dict(state["last"])
        data.update({
            "interval_seconds": _monitor.INTERVAL,
            "repeats": repeats,
            "work_loops": loops,
            "budget_fraction": _monitor.OVERHEAD_BUDGET,
        })
        return data

    return Benchmark(
        name="monitor_overhead",
        description=(
            "Wall-clock overhead an attached polling Monitor imposes "
            "on a GIL-bound workload (fraction)"
        ),
        unit="fraction",
        direction="lower",
        body=body,
        setup=setup,
        detail=detail,
        gates=[CeilingGate(_monitor.OVERHEAD_BUDGET)],
        overrides={"warmup_max": 1},
    )


# ----------------------------------------------------------------------
# recovery


def _recovery_matrix_bench(size):
    crash_points = size(4, 3, 2)
    state = {"last": None}

    def body(_):
        matrix = _recovery.bench_fault_matrix(
            block=16, crash_points=crash_points
        )
        state["last"] = matrix
        return matrix["recovered_fraction"]

    def detail(_):
        return dict(state["last"])

    return Benchmark(
        name="recovery_matrix",
        description=(
            "Fraction of CRC-sealed segments recovered across the "
            "crash-phase x crash-point fault matrix"
        ),
        unit="fraction",
        direction="higher",
        body=body,
        detail=detail,
        # The paper-level promise is exact: a single lost sealed
        # segment in any sample is a failure, CI or no CI.
        gates=[FloorGate(_recovery.MATRIX_FLOOR, mode="exact")],
        overrides={"warmup_max": 1},
    )


def _seal_overhead_bench(size):
    n_events = size(100_000, 40_000, 10_000)
    state = {"pairs": []}

    def body(_):
        pair = _recovery.seal_overhead_sample(n_events)
        state["pairs"].append(pair)
        return pair[0] / pair[1]  # fraction of throughput retained

    def detail(_):
        t_plain = median([p[0] for p in state["pairs"]])
        t_sealed = median([p[1] for p in state["pairs"]])
        return {
            "events": n_events,
            "unsealed_events_per_sec": n_events / t_plain,
            "sealed_events_per_sec": n_events / t_sealed,
            "floor": _recovery.SEAL_FLOOR,
        }

    return Benchmark(
        name="seal_overhead",
        description=(
            "Fraction of unsealed batched write throughput retained "
            "with CRC seal journaling on"
        ),
        unit="fraction",
        direction="higher",
        body=body,
        detail=detail,
        gates=[FloorGate(_recovery.SEAL_FLOOR)],
    )


# ----------------------------------------------------------------------
# fleet


def _fleet_ingest_bench(size):
    segments = size(24, 12, 4)
    frames = size(2_000, 1_200, 300)
    state = {"rates": []}

    def setup():
        payloads, symtab, entries = _fleet.build_segments(
            segments, frames_per_thread=frames
        )
        return {
            "daemon": _fleet.build_daemon(),
            "payloads": payloads,
            "symtab": symtab,
            "entries": entries,
        }

    def body(s):
        rate = _fleet.ingest_sample(
            s["daemon"], s["payloads"], s["symtab"], s["entries"]
        )
        state["rates"].append(rate)
        return rate

    def teardown(s):
        s["daemon"].stop()

    def detail(s):
        return {
            "segments": segments,
            "entries_per_segment": s["entries"],
            "entries_per_sec": median(state["rates"]),
            "pool": s["daemon"].pool.kind,
            "floor": _fleet.INGEST_FLOOR,
        }

    return Benchmark(
        name="fleet_ingest",
        description=(
            "Sustained fleet ingest: packed segments through salvage, "
            "worker analysis and window fold-in (entries/sec)"
        ),
        unit="entries/s",
        direction="higher",
        body=body,
        setup=setup,
        teardown=teardown,
        detail=detail,
        gates=[FloorGate(_fleet.INGEST_FLOOR)],
        overrides={"warmup_max": 1},
    )


def _fleet_staleness_bench(size):
    batch = size(8, 5, 3)
    frames = size(1_200, 600, 200)

    def setup():
        payloads, symtab, entries = _fleet.build_segments(
            batch, frames_per_thread=frames
        )
        return {
            "daemon": _fleet.build_daemon(),
            "payloads": payloads,
            "symtab": symtab,
        }

    def body(s):
        return _fleet.staleness_sample(
            s["daemon"], s["payloads"], s["symtab"]
        )

    def teardown(s):
        s["daemon"].stop()

    def detail(s):
        return {
            "batch": batch,
            "pool": s["daemon"].pool.kind,
            "budget_seconds": _fleet.STALENESS_BUDGET,
        }

    return Benchmark(
        name="fleet_staleness",
        description=(
            "Worst publish-to-queryable lag for one segment against "
            "an idle daemon (seconds)"
        ),
        unit="s",
        direction="lower",
        body=body,
        setup=setup,
        teardown=teardown,
        detail=detail,
        gates=[CeilingGate(_fleet.STALENESS_BUDGET)],
        overrides={"warmup_max": 1},
    )


def _query_state(windows, paths):
    """Shared setup for the query benches: synthetic windows, the
    store under test, and the dict-oracle identity check (the frozen
    baseline must produce the *identical* merged profile — byte
    identity of the folded output, and of the memoised text the HTTP
    route serves, asserted before anything is timed)."""
    window_data = _fleet.build_query_windows(
        windows=windows, paths=paths
    )
    store = _fleet.build_query_store(window_data)
    oracle = _fleet.dict_merged_baseline(window_data)
    merged = store.merged("web")
    assert merged.folded() == oracle.folded
    assert (
        merged.flamegraph().to_folded()
        == oracle.profile().flamegraph().to_folded()
    )
    assert merged.to_folded() == oracle.profile().to_folded()
    assert oracle.salvaged + oracle.quarantined == oracle.entries
    return {
        "store": store,
        "windows": window_data,
        "paths": paths,
        "retention": windows,
    }


def _query_detail(s, floor, state):
    start = _time.perf_counter()
    diff = s["store"].diff("web", 0, s["retention"] - 1)
    t_diff = _time.perf_counter() - start
    t_dict, t_cold, t_warm = (
        median([p[i] for p in state["samples"]]) for i in range(3)
    )
    return {
        "retention_windows": s["retention"],
        "paths_per_window": s["paths"],
        "dict_merge_ms": t_dict * 1e3,
        "cold_query_ms": t_cold * 1e3,
        "warm_query_ms": t_warm * 1e3,
        "diff_ms": t_diff * 1e3,
        "diff_methods": len(diff.deltas()),
        "floor": floor,
    }


def _fleet_query_bench(size):
    windows = size(64, 64, 16)
    paths = size(10_000, 10_000, 1_000)
    state = {"samples": []}

    def setup():
        return _query_state(windows, paths)

    def body(s):
        sample = _fleet.query_sample(s["store"], s["windows"])
        state["samples"].append(sample)
        return sample[0] / sample[2]  # dict / warm = speedup

    def detail(s):
        return _query_detail(s, _fleet.QUERY_WARM_FLOOR, state)

    return Benchmark(
        name="fleet_query",
        description=(
            "Warm-cache merged-profile query vs the frozen dict merge "
            "loop at retention x paths (speedup)"
        ),
        unit="x",
        direction="higher",
        body=body,
        setup=setup,
        detail=detail,
        gates=[FloorGate(_fleet.QUERY_WARM_FLOOR)],
        overrides={"warmup_max": 1},
    )


def _fleet_query_cold_bench(size):
    windows = size(64, 64, 16)
    paths = size(10_000, 10_000, 1_000)
    state = {"samples": []}

    def setup():
        return _query_state(windows, paths)

    def body(s):
        sample = _fleet.query_sample(s["store"], s["windows"])
        state["samples"].append(sample)
        return sample[0] / sample[1]  # dict / cold = speedup

    def detail(s):
        return _query_detail(s, _fleet.QUERY_COLD_FLOOR, state)

    return Benchmark(
        name="fleet_query_cold",
        description=(
            "Cold (flushed-cache) merged-profile query vs the frozen "
            "dict merge loop at retention x paths (speedup)"
        ),
        unit="x",
        direction="higher",
        body=body,
        setup=setup,
        detail=detail,
        gates=[FloorGate(_fleet.QUERY_COLD_FLOOR)],
        overrides={"warmup_max": 1},
    )


# ----------------------------------------------------------------------
# accuracy


def _accuracy_bench(size):
    rounds = size(120, 40, 12)
    state = {}

    def body(_):
        truth = _accuracy.truth_shares()
        tee = _accuracy.teeperf_shares(rounds=rounds)
        state["tee"] = tee
        state["truth"] = truth
        return _accuracy.max_error(tee, truth)

    def detail(_):
        sampled = _accuracy.perf_shares(rounds=rounds)
        return {
            "rounds": rounds,
            "ceiling": _accuracy.ACCURACY_CEILING,
            "perf_max_error": _accuracy.max_error(
                sampled, state["truth"]
            ),
            "truth_shares": state["truth"],
            "teeperf_shares": state["tee"],
        }

    return Benchmark(
        name="accuracy_error",
        description=(
            "TEE-Perf's worst per-method share error against the "
            "simulator's exact ground truth"
        ),
        unit="share",
        direction="lower",
        body=body,
        detail=detail,
        # The simulation is deterministic; any sample over the bound
        # is a real accuracy loss, so the gate is exact.
        gates=[CeilingGate(_accuracy.ACCURACY_CEILING, mode="exact")],
        overrides={"warmup_max": 1},
    )


# ----------------------------------------------------------------------


def build_registry(quick=False, smoke=None):
    """The suite, in run order.  ``smoke=None`` reads the env knob."""
    if smoke is None:
        smoke = smoke_mode()
    size = _profile(quick, smoke)
    return [
        _record_write_bench(size),
        _record_zero_copy_bench(size),
        _codec_ratio_bench(size),
        _columnar_decode_bench(size),
        _analyzer_vector_bench(size),
        _monitor_overhead_bench(size),
        _recovery_matrix_bench(size),
        _seal_overhead_bench(size),
        _fleet_ingest_bench(size),
        _fleet_staleness_bench(size),
        _fleet_query_bench(size),
        _fleet_query_cold_bench(size),
        _accuracy_bench(size),
    ]


def derived_views(results, quick=False):
    """Legacy per-bench artifacts as views of the suite result.

    ``results`` maps bench name -> :class:`BenchResult`.  Returns
    ``{filename: payload}`` for every legacy artifact whose source
    benchmarks all ran.  Each payload carries the keys its standalone
    script emits plus ``"derived_from": "BENCH_suite.json"``.
    """
    views = {}

    def stamp(payload, benchmark):
        payload.update({
            "benchmark": benchmark,
            "quick": bool(quick),
            "derived_from": "BENCH_suite.json",
        })
        return payload

    if "record_write" in results and "columnar_decode" in results:
        write = dict(results["record_write"].detail)
        write["speedup"] = results["record_write"].stats.median
        decode = dict(results["columnar_decode"].detail)
        decode["speedup"] = results["columnar_decode"].stats.median
        payload = {"write": write, "decode": decode}
        if "record_zero_copy" in results:
            zero_copy = dict(results["record_zero_copy"].detail)
            zero_copy["speedup"] = (
                results["record_zero_copy"].stats.median
            )
            payload["zero_copy"] = zero_copy
        if "codec_ratio" in results:
            codec = dict(results["codec_ratio"].detail)
            codec["ratio"] = results["codec_ratio"].stats.median
            payload["codec"] = codec
        views["BENCH_record.json"] = stamp(payload, "record_path")

    if "analyzer_vector" in results:
        r = results["analyzer_vector"]
        views["BENCH_analyze.json"] = stamp(
            {
                "entries": r.detail.get("entries"),
                "threads": r.detail.get("threads"),
                "entries_per_sec": r.stats.median,
                "vector_floor": _analyzer.VECTOR_FLOOR,
            },
            "analyze_engines",
        )

    if "monitor_overhead" in results:
        r = results["monitor_overhead"]
        payload = dict(r.detail)
        payload["overhead_fraction"] = r.stats.median
        views["BENCH_monitor.json"] = stamp(payload, "monitor_overhead")

    if "recovery_matrix" in results:
        payload = {"fault_matrix": dict(results["recovery_matrix"].detail)}
        if "seal_overhead" in results:
            seal = dict(results["seal_overhead"].detail)
            seal["retained_fraction"] = (
                results["seal_overhead"].stats.median
            )
            payload["seal_overhead"] = seal
        views["BENCH_recovery.json"] = stamp(payload, "recovery")

    if "fleet_ingest" in results:
        payload = dict(results["fleet_ingest"].detail)
        payload["entries_per_sec"] = results["fleet_ingest"].stats.median
        if "fleet_staleness" in results:
            stale = dict(results["fleet_staleness"].detail)
            stale["worst_seconds"] = (
                results["fleet_staleness"].stats.median
            )
            payload["staleness"] = stale
        if "fleet_query" in results:
            query = dict(results["fleet_query"].detail)
            query["warm_speedup"] = results["fleet_query"].stats.median
            if "fleet_query_cold" in results:
                query["cold_speedup"] = (
                    results["fleet_query_cold"].stats.median
                )
            payload["query"] = query
        views["BENCH_fleet.json"] = stamp(payload, "fleet_ingest")

    if "accuracy_error" in results:
        r = results["accuracy_error"]
        views["BENCH_accuracy.json"] = stamp(
            {
                "tee_max_error": r.stats.median,
                "ceiling": _accuracy.ACCURACY_CEILING,
                "perf_max_error": r.detail.get("perf_max_error"),
                "rounds": r.detail.get("rounds"),
            },
            "accuracy",
        )

    return views
