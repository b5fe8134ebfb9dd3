"""PipelineStats: merge semantics and the to_dict/from_dict round trip."""

import json

from repro.core import PipelineStats
from tests.oracles.per_event import append


def sample_stats():
    return PipelineStats(
        entries_recorded=120,
        entries_ingested=118,
        entries_dropped=2,
        entries_dismissed=1,
        frames_truncated=3,
        chunks_processed=4,
        shards_analyzed=5,
        jobs=2,
        chunk_size=32,
        counter_span=1000,
        cache_hits=80,
        cache_misses=20,
    )


def test_round_trip_is_equal():
    stats = sample_stats()
    assert PipelineStats.from_dict(stats.to_dict()) == stats


def test_round_trip_through_json():
    stats = sample_stats()
    rehydrated = PipelineStats.from_dict(json.loads(json.dumps(stats.to_dict())))
    assert rehydrated == stats
    assert rehydrated.ingest_rate == stats.ingest_rate


def test_from_dict_ignores_derived_and_unknown_keys():
    data = sample_stats().to_dict()
    assert "ingest_rate" in data and "cache_hit_rate" in data  # derived
    data["someday_a_new_counter"] = 999
    stats = PipelineStats.from_dict(data)
    assert stats == sample_stats()


def test_from_dict_defaults_missing_fields():
    stats = PipelineStats.from_dict({"entries_recorded": 7})
    assert stats.entries_recorded == 7
    assert stats.entries_ingested == 0
    assert stats.jobs == 1


def test_merge_adds_counters_and_survives_round_trip():
    one = PipelineStats(entries_recorded=10, entries_dropped=1, jobs=1)
    two = PipelineStats(entries_recorded=20, entries_dropped=3, jobs=4)
    merged = PipelineStats.from_dict(one.to_dict()).merge(two)
    assert merged.entries_recorded == 30
    assert merged.entries_dropped == 4
    assert merged.jobs == 4  # configuration: max, not sum
    assert PipelineStats.from_dict(merged.to_dict()) == merged


def test_equality_distinguishes_counters():
    assert PipelineStats(entries_recorded=1) != PipelineStats()


def test_report_names_recorded_entries():
    assert "entries recorded:  120" in sample_stats().report()


def test_compression_ratio_flows_to_dict_and_metrics():
    stats = PipelineStats(bytes_written=3000, bytes_on_disk=1000)
    assert stats.compression_ratio == 3.0
    assert stats.to_dict()["compression_ratio"] == 3.0
    # Unknown sizes never divide by zero.
    assert PipelineStats(bytes_written=10).compression_ratio == 0.0
    assert PipelineStats().compression_ratio == 0.0
    # Round trip keeps the raw counters (the ratio is derived).
    back = PipelineStats.from_dict(stats.to_dict())
    assert (back.bytes_written, back.bytes_on_disk) == (3000, 1000)

    # End to end: analysing a rev 1.2 image fills the byte counters
    # and they surface in the exposition text.
    from repro.api import Analyzer, SharedLog
    from repro.core import KIND_CALL, KIND_RET
    from repro.core.columnar import encode_log
    from repro.core.export import to_metrics
    from repro.symbols import BinaryImage

    img = BinaryImage("app")
    img.add_function("f", size=64)
    addr = next(iter(img.symtab)).addr
    log = SharedLog.create(64, profiler_addr=img.profiler_addr)
    for i in range(32):
        append(log, KIND_CALL if i % 2 == 0 else KIND_RET, i, addr, 1)
    log._store_tail()
    image = encode_log(log)

    analysis = Analyzer(img).analyze(image)
    pipeline = analysis.pipeline
    assert pipeline.bytes_written == 32 * log.entry_size
    assert pipeline.bytes_on_disk == len(image)
    assert pipeline.compression_ratio == (
        pipeline.bytes_written / pipeline.bytes_on_disk
    )
    text = to_metrics(analysis)
    assert f"teeperf_bytes_written_total {32 * log.entry_size}" in text
    assert f"teeperf_bytes_on_disk_total {len(image)}" in text
    assert "teeperf_compression_ratio" in text
